package text

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestPosValidity(t *testing.T) {
	if NoPos.IsValid() {
		t.Fatal("NoPos must be invalid")
	}
	if !Pos(0).IsValid() {
		t.Fatal("Pos(0) must be valid")
	}
	if !Pos(17).IsValid() {
		t.Fatal("Pos(17) must be valid")
	}
}

func TestSpanBasics(t *testing.T) {
	s := Span{2, 5}
	if !s.IsValid() || s.Len() != 3 {
		t.Fatalf("span %v: valid=%v len=%d", s, s.IsValid(), s.Len())
	}
	if NoSpan.IsValid() || NoSpan.Len() != 0 {
		t.Fatal("NoSpan must be invalid with zero length")
	}
	if (Span{5, 2}).IsValid() {
		t.Fatal("inverted span must be invalid")
	}
	if !s.Contains(2) || !s.Contains(4) || s.Contains(5) || s.Contains(1) {
		t.Fatal("Contains is wrong at boundaries")
	}
	if got := s.String(); got != "[2,5)" {
		t.Fatalf("String = %q", got)
	}
	if got := NoSpan.String(); got != "<no span>" {
		t.Fatalf("NoSpan.String = %q", got)
	}
}

func TestSpanUnion(t *testing.T) {
	cases := []struct {
		a, b, want Span
	}{
		{Span{1, 3}, Span{2, 7}, Span{1, 7}},
		{Span{4, 5}, Span{1, 2}, Span{1, 5}},
		{NoSpan, Span{1, 2}, Span{1, 2}},
		{Span{1, 2}, NoSpan, Span{1, 2}},
		{NoSpan, NoSpan, NoSpan},
		{Span{3, 3}, Span{3, 3}, Span{3, 3}},
	}
	for _, c := range cases {
		if got := c.a.Union(c.b); got != c.want {
			t.Errorf("Union(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSpanUnionProperties(t *testing.T) {
	// Union is commutative and covers both operands.
	f := func(a0, a1, b0, b1 uint8) bool {
		a := Span{Pos(a0), Pos(a0) + Pos(a1)}
		b := Span{Pos(b0), Pos(b0) + Pos(b1)}
		u := a.Union(b)
		if u != b.Union(a) {
			return false
		}
		return u.Start <= a.Start && u.Start <= b.Start && u.End >= a.End && u.End >= b.End
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSourceLocation(t *testing.T) {
	src := NewSource("f.mpeg", "ab\ncd\n\nxyz")
	cases := []struct {
		p    Pos
		line int
		col  int
	}{
		{0, 1, 1}, {1, 1, 2}, {2, 1, 3}, // "ab\n": newline belongs to line 1
		{3, 2, 1}, {5, 2, 3},
		{6, 3, 1},
		{7, 4, 1}, {9, 4, 3}, {10, 4, 4}, // 10 == len, clamped end
		{99, 4, 4}, // clamped
		{-4, 1, 1}, // clamped
	}
	for _, c := range cases {
		loc := src.Location(c.p)
		if loc.Line != c.line || loc.Column != c.col {
			t.Errorf("Location(%d) = %d:%d, want %d:%d", c.p, loc.Line, loc.Column, c.line, c.col)
		}
	}
	if got := src.Location(3).String(); got != "f.mpeg:2:1" {
		t.Fatalf("Location.String = %q", got)
	}
	if got := (Location{Line: 2, Column: 1}).String(); got != "2:1" {
		t.Fatalf("anonymous Location.String = %q", got)
	}
}

func TestSourceLines(t *testing.T) {
	src := NewSource("", "one\ntwo\nthree")
	if src.LineCount() != 3 {
		t.Fatalf("LineCount = %d", src.LineCount())
	}
	want := []string{"one", "two", "three"}
	for i, w := range want {
		if got := src.Line(i + 1); got != w {
			t.Errorf("Line(%d) = %q, want %q", i+1, got, w)
		}
	}
	if src.Line(0) != "" || src.Line(4) != "" {
		t.Error("out-of-range lines must be empty")
	}
	empty := NewSource("", "")
	if empty.LineCount() != 1 || empty.Line(1) != "" {
		t.Error("empty source must have one empty line")
	}
}

// TestSourceConcurrentReaders builds the lazy line index from several
// goroutines at once; under -race it checks that a Source stays safe
// for concurrent readers.
func TestSourceConcurrentReaders(t *testing.T) {
	src := NewSource("c", strings.Repeat("line\n", 100)+"last")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if loc := src.Location(Pos(502)); loc.Line != 101 || loc.Column != 3 {
				t.Errorf("Location(502) = %d:%d, want 101:3", loc.Line, loc.Column)
			}
			if n := src.LineCount(); n != 101 {
				t.Errorf("LineCount = %d, want 101", n)
			}
			if l := src.Line(101); l != "last" {
				t.Errorf("Line(101) = %q, want %q", l, "last")
			}
		}()
	}
	wg.Wait()
}

func TestSourceSlice(t *testing.T) {
	src := NewSource("", "hello world")
	if got := src.Slice(Span{0, 5}); got != "hello" {
		t.Fatalf("Slice = %q", got)
	}
	if got := src.Slice(Span{6, 99}); got != "world" {
		t.Fatalf("clamped Slice = %q", got)
	}
	if got := src.Slice(NoSpan); got != "" {
		t.Fatalf("Slice(NoSpan) = %q", got)
	}
	if got := src.Slice(Span{8, 3}); got != "" {
		t.Fatalf("Slice(inverted) = %q", got)
	}
}

func TestLocationRoundTripProperty(t *testing.T) {
	// For random content and every offset, line/column must map back to the
	// same offset via the line start table.
	f := func(raw []byte) bool {
		content := strings.Map(func(r rune) rune {
			if r == '\r' {
				return 'x'
			}
			return r
		}, string(raw))
		src := NewSource("p", content)
		for p := 0; p <= len(content); p++ {
			loc := src.Location(Pos(p))
			lineStart := int(src.lineStarts()[loc.Line-1])
			if lineStart+loc.Column-1 != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuote(t *testing.T) {
	src := NewSource("g", "a = b / c ;\nnext")
	q := src.Quote(Span{4, 9})
	want := "1 | a = b / c ;\n  |     ^^^^^"
	if q != want {
		t.Fatalf("Quote:\n%q\nwant\n%q", q, want)
	}
	if src.Quote(NoSpan) != "" {
		t.Fatal("Quote(NoSpan) must be empty")
	}
	// Span running past end of line: caret run is clamped to the line.
	q = src.Quote(Span{10, 40})
	if !strings.HasSuffix(q, "^") || strings.Count(q, "^") != 1 {
		t.Fatalf("clamped Quote = %q", q)
	}
}

func TestErrorRendering(t *testing.T) {
	src := NewSource("m.mpeg", "module m;\nbad")
	e := Errorf(src, Span{10, 13}, "unexpected %q", "bad")
	if got := e.Error(); got != `m.mpeg:2:1: unexpected "bad"` {
		t.Fatalf("Error = %q", got)
	}
	if d := e.Detail(); !strings.Contains(d, "2 | bad") || !strings.Contains(d, "^^^") {
		t.Fatalf("Detail = %q", d)
	}
	anon := &Error{Msg: "plain"}
	if anon.Error() != "plain" || anon.Detail() != "plain" {
		t.Fatal("anonymous error must render message only")
	}
}

func TestErrorList(t *testing.T) {
	var l ErrorList
	if l.Err() != nil || l.Len() != 0 {
		t.Fatal("empty list must be nil error")
	}
	src := NewSource("z", "x\ny")
	l.Addf(src, Span{2, 3}, "second")
	l.Addf(src, Span{0, 1}, "first")
	l.Addf(nil, NoSpan, "anon")
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	l.Sort()
	all := l.All()
	if all[0].Msg != "anon" || all[1].Msg != "first" || all[2].Msg != "second" {
		t.Fatalf("sorted order wrong: %v, %v, %v", all[0].Msg, all[1].Msg, all[2].Msg)
	}
	if err := l.Err(); err == nil || !strings.Contains(err.Error(), "first") {
		t.Fatalf("Err = %v", err)
	}

	var single ErrorList
	single.Addf(src, Span{0, 1}, "only")
	if got := single.Error(); strings.Contains(got, "\n") {
		t.Fatalf("single error must be one line: %q", got)
	}

	var merged ErrorList
	merged.Merge(&l)
	merged.Merge(nil)
	if merged.Len() != 3 {
		t.Fatalf("Merge len = %d", merged.Len())
	}
	var nilList *ErrorList
	if nilList.Len() != 0 || nilList.All() != nil {
		t.Fatal("nil list accessors must be safe")
	}
}
