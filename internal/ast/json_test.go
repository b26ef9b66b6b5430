package ast

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"modpeg/internal/text"
)

// jsonValue is the reference wire form of a Value: the struct tree
// whose reflection-based json.Marshal output AppendJSON must reproduce
// byte for byte.
type jsonValue struct {
	Kind     string       `json:"kind"`
	Name     string       `json:"name,omitempty"`
	Text     string       `json:"text,omitempty"`
	Start    *int         `json:"start,omitempty"`
	End      *int         `json:"end,omitempty"`
	Children []*jsonValue `json:"children,omitempty"`
	Items    []*jsonValue `json:"items,omitempty"`
}

func toJSONValue(v Value) *jsonValue {
	switch v := v.(type) {
	case nil:
		return nil
	case *Token:
		if v == nil {
			return nil
		}
		jv := &jsonValue{Kind: "token", Text: v.Text}
		if v.Span.IsValid() {
			s, e := int(v.Span.Start), int(v.Span.End)
			jv.Start, jv.End = &s, &e
		}
		return jv
	case *Node:
		if v == nil {
			return nil
		}
		jv := &jsonValue{Kind: "node", Name: v.Name}
		if v.Span.IsValid() {
			s, e := int(v.Span.Start), int(v.Span.End)
			jv.Start, jv.End = &s, &e
		}
		jv.Children = make([]*jsonValue, len(v.Children))
		for i, c := range v.Children {
			jv.Children[i] = toJSONValue(c)
		}
		return jv
	case List:
		jv := &jsonValue{Kind: "list", Items: make([]*jsonValue, len(v))}
		for i, c := range v {
			jv.Items[i] = toJSONValue(c)
		}
		return jv
	case string:
		return &jsonValue{Kind: "token", Text: v}
	default:
		return &jsonValue{Kind: "token", Text: fmt.Sprint(v)}
	}
}

// checkReference fails t unless ToJSONCompact and ToJSON of v match
// json.Marshal and json.MarshalIndent of the reference tree, and
// AppendJSON keeps what dst already held.
func checkReference(t *testing.T, v Value) {
	t.Helper()
	want, err := json.Marshal(toJSONValue(v))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ToJSONCompact(v); err != nil || got != string(want) {
		t.Fatalf("ToJSONCompact(%s):\n got %q, %v\nwant %q", Format(v), got, err, want)
	}
	wantIndent, err := json.MarshalIndent(toJSONValue(v), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ToJSON(v); err != nil || got != string(wantIndent) {
		t.Fatalf("ToJSON(%s):\n got %q, %v\nwant %q", Format(v), got, err, wantIndent)
	}
	if got := AppendJSON([]byte("x"), v); string(got) != "x"+string(want) {
		t.Fatalf("AppendJSON dropped its prefix: %q", got)
	}
}

func TestAppendJSONMatchesReference(t *testing.T) {
	n := sample()
	n.Span = text.NewSpan(0, 3)
	cases := []Value{
		nil,
		(*Token)(nil),
		(*Node)(nil),
		n,
		List{},
		List(nil),
		List{nil, tok2("a"), "raw", 7, 2.5, true},
		NewNode(""),
		NewNode("Empty"),
		&Node{Name: "Z", Children: []Value{}, Span: text.NewSpan(0, 0)},
		NewToken("", text.NewSpan(4, 4)),
		NewToken("bad span", text.NewSpan(5, 2)),
		NewToken("neg", text.Span{Start: -3, End: 4}),
		NewToken("<a href=\"x\">&amp;</a>", text.NewSpan(0, 1)),
		NewToken("\x00\x01\x1f\x7f\b\f\n\r\t\\/", text.NoSpan),
		NewToken("line\xe2\x80\xa8para\xe2\x80\xa9end", text.NoSpan),
		NewToken("bad\xff\xfeutf8\xe2\x80", text.NoSpan),
		NewToken("caf\xc3\xa9 \xf0\x9f\x98\x80", text.NoSpan),
		NewNode("N<&>\x01", "s\xe2\x80\xa8", List{NewNode("In")}),
		"",
		"<script>",
		struct{ A int }{3},
	}
	for _, v := range cases {
		checkReference(t, v)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		checkReference(t, randomValue(r, 5))
	}
}

func TestAppendJSONStringEveryByte(t *testing.T) {
	for b := 0; b < 256; b++ {
		s := "a" + string([]byte{byte(b)}) + "z"
		want, _ := json.Marshal(s)
		if got := AppendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("byte %#x: got %q, want %q", b, got, want)
		}
	}
}

// TestAppendJSONAllocs is the value encoder's allocation canary: with a
// buffer that already fits, encoding a tree allocates nothing.
func TestAppendJSONAllocs(t *testing.T) {
	v := NewNode("Root",
		sample(),
		List{tok("<&>"), nil, NewToken("x\xe2\x80\xa8\x01\xff", text.NoSpan)},
		"leaf",
		(*Node)(nil),
	)
	buf := AppendJSON(nil, v)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendJSON(buf[:0], v) }); allocs != 0 {
		t.Fatalf("AppendJSON allocates %v times per call into a reused buffer, want 0", allocs)
	}
}

// valueDecoder builds a Value from fuzz bytes. Missing bytes read as 0.
type valueDecoder struct{ b []byte }

func (d *valueDecoder) next() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// trickyText holds the fragments the encoder escapes: HTML characters,
// control bytes, the JavaScript line terminators U+2028/U+2029, and
// invalid or truncated UTF-8.
var trickyText = [...]string{
	"<>&", "\x00\x01\x1f\x7f", "\xe2\x80\xa8", "\xe2\x80\xa9",
	"\xff\xfe", "\xe2\x80", "\"\\/", "\b\f\n\r\t",
}

// text reads a length byte and that many raw bytes; a set high bit
// appends one of the trickyText fragments.
func (d *valueDecoder) text() string {
	n := d.next()
	k := min(int(n&0x0f), len(d.b))
	s := string(d.b[:k])
	d.b = d.b[k:]
	if n&0x80 != 0 {
		s += trickyText[n>>4&7]
	}
	return s
}

// span reads a span that may be missing, reversed, or negative.
func (d *valueDecoder) span() text.Span {
	switch d.next() % 4 {
	case 0:
		return text.NoSpan
	case 1:
		return text.NewSpan(text.Pos(d.next()), text.Pos(d.next()))
	case 2:
		return text.Span{Start: -text.Pos(d.next()), End: text.Pos(d.next())}
	default:
		s := text.Pos(d.next())
		return text.NewSpan(s, s+text.Pos(d.next()))
	}
}

func (d *valueDecoder) value(depth int) Value {
	tag := d.next() % 10
	if depth == 0 && tag >= 8 {
		tag = 6
	}
	switch tag {
	case 0:
		return nil
	case 1:
		return (*Token)(nil)
	case 2:
		return (*Node)(nil)
	case 3:
		return d.text()
	case 4:
		return int(int8(d.next()))
	case 5:
		return float64(d.next()) / 4
	case 6, 7:
		return &Token{Text: d.text(), Span: d.span()}
	case 8:
		n := &Node{Name: d.text(), Span: d.span()}
		for k := d.next() % 5; k > 0; k-- {
			n.Children = append(n.Children, d.value(depth-1))
		}
		return n
	default:
		l := List{}
		for k := d.next() % 5; k > 0; k-- {
			l = append(l, d.value(depth-1))
		}
		return l
	}
}

// FuzzValueJSON holds the hand-written encoder to the reflection-based
// reference on arbitrary values: every kind, typed nils, string and
// other leaves, invalid spans, and texts that need escaping.
func FuzzValueJSON(f *testing.F) {
	f.Add([]byte{8, 0x83, 'A', '<', '&', 3, 1, 4, 3, 6, 0xa1, 'x', 1, 0, 9, 9, 2, 0, 1, 2})
	f.Add([]byte{9, 4, 6, 0xb2, 'a', 'b', 2, 5, 7, 6, 0xc0, 1, 9, 9, 3, 0xd1, 0xff})
	f.Add([]byte{8, 0xf0, 2, 3, 3, 0x90, 6, 0x80, 0, 4, 200, 5, 7})
	f.Add([]byte("\x08\x8fdeeply nested \x03\x01\x02\x04\x08\x00\x00\x01\x09\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bytes past the cap cannot matter, which keeps the minimization
		// of each new input short.
		if len(data) > 256 {
			data = data[:256]
		}
		checkReference(t, (&valueDecoder{b: data}).value(6))
	})
}
