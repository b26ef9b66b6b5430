package ast

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"modpeg/internal/text"
)

// The wire form of a Value:
//
//	{"kind":"node","name":"Add","start":0,"end":3,"children":[...]}
//	{"kind":"token","text":"1","start":0,"end":1}
//	{"kind":"list","items":[...]}
//	null
//
// Fields appear in the order kind, name, text, start, end, children,
// items. Empty names, texts, children, and items are omitted, spans
// only when valid; children stay positional, a nil child is null.
// String leaves and any other leaf type (rendered with fmt.Sprint)
// encode as tokens without a span. Strings are escaped exactly as
// encoding/json escapes them, so the output is byte-identical to
// json.Marshal of the equivalent struct tree.

// ToJSON renders a value as indented JSON for machine consumption (editor
// tooling, test fixtures). Spans are included when valid.
func ToJSON(v Value) (string, error) {
	var b bytes.Buffer
	if err := json.Indent(&b, AppendJSON(nil, v), "", "  "); err != nil {
		return "", fmt.Errorf("ast: %w", err)
	}
	return b.String(), nil
}

// ToJSONCompact renders a value as single-line JSON. Indented rendering
// of a deeply nested AST is quadratic in the nesting depth (every line
// carries its full indent prefix), so wire protocols must use this
// form: a depth-2000 value serializes in linear size here but to
// hundreds of megabytes through ToJSON. The error is always nil.
func ToJSONCompact(v Value) (string, error) {
	return string(AppendJSON(nil, v)), nil
}

// AppendJSON appends the compact wire form of v to dst and returns the
// extended buffer. It walks the value once and allocates nothing beyond
// growing dst (leaves of types other than *Node, *Token, List, and
// string are rendered with fmt.Sprint).
func AppendJSON(dst []byte, v Value) []byte {
	switch v := v.(type) {
	case nil:
		return append(dst, "null"...)
	case *Token:
		if v == nil {
			return append(dst, "null"...)
		}
		dst = append(dst, `{"kind":"token"`...)
		return append(appendSpan(appendTextField(dst, v.Text), v.Span), '}')
	case *Node:
		if v == nil {
			return append(dst, "null"...)
		}
		dst = append(dst, `{"kind":"node"`...)
		if v.Name != "" {
			dst = append(dst, `,"name":`...)
			dst = AppendJSONString(dst, v.Name)
		}
		return appendValues(appendSpan(dst, v.Span), `,"children":[`, v.Children)
	case List:
		dst = append(dst, `{"kind":"list"`...)
		return appendValues(dst, `,"items":[`, v)
	case string:
		dst = append(dst, `{"kind":"token"`...)
		return append(appendTextField(dst, v), '}')
	default:
		dst = append(dst, `{"kind":"token"`...)
		return append(appendTextField(dst, fmt.Sprint(v)), '}')
	}
}

// appendTextField appends the token text field, omitted when empty.
func appendTextField(dst []byte, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, `,"text":`...)
	return AppendJSONString(dst, s)
}

// appendSpan appends the start and end fields, omitted when sp is
// invalid.
func appendSpan(dst []byte, sp text.Span) []byte {
	if !sp.IsValid() {
		return dst
	}
	dst = append(dst, `,"start":`...)
	dst = strconv.AppendInt(dst, int64(sp.Start), 10)
	dst = append(dst, `,"end":`...)
	return strconv.AppendInt(dst, int64(sp.End), 10)
}

// appendValues appends the children or items field (omitted when
// empty) and closes the enclosing object.
func appendValues(dst []byte, key string, vs []Value) []byte {
	if len(vs) > 0 {
		dst = append(dst, key...)
		for i, c := range vs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSON(dst, c)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// AppendJSONString appends s as a JSON string literal, escaped the way
// encoding/json escapes strings by default: '"' and '\\', the control
// bytes (\b \f \n \r \t by name, the rest as \u00XX), the HTML
// characters <, > and &, U+2028 and U+2029 as backslash-u escapes,
// and each byte of invalid UTF-8 as the escaped U+FFFD.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe marks the ASCII bytes a JSON string carries verbatim: the
// printable ones except '"', '\\', and the HTML characters.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()
