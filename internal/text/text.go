// Package text provides the source-text substrate shared by every layer of
// modpeg: immutable source buffers, byte-offset positions, human-readable
// line/column coordinates, and spans.
//
// All parsing machinery in this repository — the grammar-language front end
// in internal/syntax, the packrat engines in internal/vm, and parsers emitted
// by internal/codegen — reports locations in terms of this package, so error
// messages and AST locations are uniform across the system.
package text

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Pos is an absolute byte offset into a Source. The zero value is the start
// of the input. Pos is deliberately a plain integer type so that hot parser
// loops can manipulate it without indirection.
type Pos int

// NoPos marks an unknown or absent position.
const NoPos Pos = -1

// IsValid reports whether p refers to an actual offset.
func (p Pos) IsValid() bool { return p >= 0 }

// Span is a half-open byte range [Start, End) within a single Source.
type Span struct {
	Start Pos
	End   Pos
}

// NoSpan marks an unknown or absent range.
var NoSpan = Span{NoPos, NoPos}

// NewSpan constructs the half-open span [start, end).
func NewSpan(start, end Pos) Span { return Span{Start: start, End: end} }

// IsValid reports whether the span refers to an actual range.
func (s Span) IsValid() bool { return s.Start.IsValid() && s.End.IsValid() && s.End >= s.Start }

// Len returns the number of bytes covered by the span, or 0 if invalid.
func (s Span) Len() int {
	if !s.IsValid() {
		return 0
	}
	return int(s.End - s.Start)
}

// Union returns the smallest span covering both s and o. Invalid operands
// are ignored; if both are invalid the result is invalid.
func (s Span) Union(o Span) Span {
	switch {
	case !s.IsValid():
		return o
	case !o.IsValid():
		return s
	}
	u := s
	if o.Start < u.Start {
		u.Start = o.Start
	}
	if o.End > u.End {
		u.End = o.End
	}
	return u
}

// Contains reports whether the byte offset p lies inside the span.
func (s Span) Contains(p Pos) bool {
	return s.IsValid() && p >= s.Start && p < s.End
}

func (s Span) String() string {
	if !s.IsValid() {
		return "<no span>"
	}
	return fmt.Sprintf("[%d,%d)", s.Start, s.End)
}

// Location is a human-readable coordinate: file name, 1-based line, 1-based
// column (in bytes). It is derived from a Pos via Source.Location.
type Location struct {
	File   string
	Line   int // 1-based
	Column int // 1-based, byte column
	Offset Pos
}

func (l Location) String() string {
	if l.File == "" {
		return fmt.Sprintf("%d:%d", l.Line, l.Column)
	}
	return fmt.Sprintf("%s:%d:%d", l.File, l.Line, l.Column)
}

// Source is an immutable named input buffer with a lazily built line index.
// It is safe for concurrent readers once constructed.
type Source struct {
	name    string
	content string
	// lines is the byte offset of the start of each line (lines[0] == 0),
	// built by lineStarts on first use: only locations and quotes need
	// it, and most parses report neither.
	linesOnce sync.Once
	lines     []Pos
}

// NewSource builds a Source from a name (typically a file path; may be
// empty) and its full contents.
func NewSource(name, content string) *Source {
	return &Source{name: name, content: content}
}

// lineStarts returns the line index, building it on the first call.
func (s *Source) lineStarts() []Pos {
	s.linesOnce.Do(func() {
		lines := make([]Pos, 1, strings.Count(s.content, "\n")+1)
		for at := 0; ; {
			i := strings.IndexByte(s.content[at:], '\n')
			if i < 0 {
				break
			}
			at += i + 1
			lines = append(lines, Pos(at))
		}
		s.lines = lines
	})
	return s.lines
}

// Name returns the source's name, e.g. its file path.
func (s *Source) Name() string { return s.name }

// Content returns the full text of the source.
func (s *Source) Content() string { return s.content }

// Len returns the length of the source in bytes.
func (s *Source) Len() int { return len(s.content) }

// Slice returns the text covered by the span, clamped to the buffer.
func (s *Source) Slice(sp Span) string {
	if !sp.IsValid() {
		return ""
	}
	start, end := int(sp.Start), int(sp.End)
	if start < 0 {
		start = 0
	}
	if end > len(s.content) {
		end = len(s.content)
	}
	if start >= end {
		return ""
	}
	return s.content[start:end]
}

// LineCount returns the number of lines in the source. An empty source has
// one (empty) line.
func (s *Source) LineCount() int { return len(s.lineStarts()) }

// Location converts a byte offset into file/line/column coordinates.
// Offsets past the end of the buffer are clamped to the final position.
func (s *Source) Location(p Pos) Location {
	if p < 0 {
		p = 0
	}
	if int(p) > len(s.content) {
		p = Pos(len(s.content))
	}
	// Find the last line start <= p.
	lines := s.lineStarts()
	i := sort.Search(len(lines), func(i int) bool { return lines[i] > p }) - 1
	if i < 0 {
		i = 0
	}
	return Location{
		File:   s.name,
		Line:   i + 1,
		Column: int(p-lines[i]) + 1,
		Offset: p,
	}
}

// Line returns the text of the 1-based line number n without its trailing
// newline. Out-of-range line numbers yield the empty string.
func (s *Source) Line(n int) string {
	lines := s.lineStarts()
	if n < 1 || n > len(lines) {
		return ""
	}
	start := int(lines[n-1])
	end := len(s.content)
	if n < len(lines) {
		end = int(lines[n]) - 1 // strip '\n'
	}
	if start > end {
		return ""
	}
	return s.content[start:end]
}

// Quote renders a single-line caret diagnostic for the given span, in the
// style of modern compilers:
//
//	3 | total = total + x
//	  |         ^^^^^
//
// Only the first line of multi-line spans is underlined.
func (s *Source) Quote(sp Span) string {
	if !sp.IsValid() {
		return ""
	}
	loc := s.Location(sp.Start)
	line := s.Line(loc.Line)
	prefix := fmt.Sprintf("%d | ", loc.Line)
	var b strings.Builder
	b.WriteString(prefix)
	b.WriteString(line)
	b.WriteByte('\n')
	b.WriteString(strings.Repeat(" ", len(fmt.Sprint(loc.Line))))
	b.WriteString(" | ")
	b.WriteString(strings.Repeat(" ", loc.Column-1))
	n := sp.Len()
	if rem := len(line) - (loc.Column - 1); n > rem {
		n = rem
	}
	if n < 1 {
		n = 1
	}
	b.WriteString(strings.Repeat("^", n))
	return b.String()
}
