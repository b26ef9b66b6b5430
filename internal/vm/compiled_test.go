package vm

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// TestCompiledZeroAllocs is the compiled engine's allocation canary:
// a warm session parsing a fully void grammar must allocate nothing —
// the closure tree, like the interpreter's dispatch loop, has to run
// entirely on recycled arenas. scripts/bench_check.sh enforces the same
// property on the compiled BenchmarkTable5VoidSteadyState row.
func TestCompiledZeroAllocs(t *testing.T) {
	input := strings.Repeat("(1+2)*3-4/5+", 200) + "6"
	src := text.NewSource("in", input)
	prog := build(t, voidCalcGrammar, CompiledEngine())
	s := prog.NewSession()
	if _, _, err := s.Parse(src); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := s.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state compiled session parse allocated %.1f objects/op, want 0", allocs)
	}
}

// TestCompiledMatchesOptimized is the inline differential check the
// conformance harness runs at corpus scale: same pipeline, both
// engines, exact agreement on value, error text, and rejection point.
func TestCompiledMatchesOptimized(t *testing.T) {
	for _, grammar := range []string{calcGrammar, voidCalcGrammar} {
		opt := build(t, grammar, Optimized())
		comp := build(t, grammar, CompiledEngine())
		inputs := []string{
			"1+2*3", "(1+2)*(3-4)", "((((5))))", "7",
			"", "1+", "(1+2", "1++2", "*3", "1 + \t2\n*3",
			strings.Repeat("(1+2)*3-4/5+", 50) + "6",
		}
		for _, in := range inputs {
			src := text.NewSource("in", in)
			wantV, _, wantErr := opt.Parse(src)
			gotV, _, gotErr := comp.Parse(src)
			if errStr(gotErr) != errStr(wantErr) {
				t.Fatalf("%q: compiled err %q, optimized err %q", in, errStr(gotErr), errStr(wantErr))
			}
			if !ast.Equal(gotV, wantV) {
				t.Fatalf("%q: compiled value %s, optimized %s", in, ast.Format(gotV), ast.Format(wantV))
			}
		}
	}
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestCompiledIncrementalAgrees proves the compiled engine maintains
// the examined-region watermarks Document.Apply depends on: an edited
// document must reparse to exactly the from-scratch result, and small
// edits on a large input must actually recycle memo entries rather
// than fall back to a full reparse.
func TestCompiledIncrementalAgrees(t *testing.T) {
	base := strings.Repeat("(1+2)*3-4*5+", 400) + "6"
	doc := build(t, calcGrammar, CompiledEngine()).NewDocument(text.NewSource("doc", base))
	if doc.Err() != nil {
		t.Fatal(doc.Err())
	}
	fresh := build(t, calcGrammar, CompiledEngine())

	txt := base
	// The base text repeats a 12-byte block; each edit keeps it valid:
	// overwrite a digit mid-input, insert a parenthesized factor on a
	// block boundary, delete one whole block from the front.
	edits := []Edit{
		{Off: len(txt)/2 - len(txt)/2%12 + 1, OldLen: 1, NewLen: 1, Text: "7"},
		{Off: 12, OldLen: 0, NewLen: 6, Text: "(8+9)*"},
		{Off: 0, OldLen: 12, NewLen: 0, Text: ""},
	}
	reused := 0
	for i, e := range edits {
		v, stats, err := doc.Apply(e)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		reused += stats.MemoReused
		txt = txt[:e.Off] + e.Text + txt[e.Off+e.OldLen:]
		want, _, werr := fresh.Parse(text.NewSource("scratch", txt))
		if werr != nil {
			t.Fatalf("edit %d: scratch parse: %v", i, werr)
		}
		if !ast.Equal(v, want) {
			t.Fatalf("edit %d: incremental value differs from scratch parse", i)
		}
	}
	if reused == 0 {
		t.Fatal("no memo entries recycled across three small edits: incremental reuse is not engaging on the compiled engine")
	}
}

// TestCompiledConcurrentParseRace hammers one compiled Program from
// many goroutines — pooled Parse calls, dedicated sessions, and
// ParseAll batches interleaved — proving under -race that the closure
// tree is read-only after compile and pooled parser state never leaks
// between concurrent parses.
func TestCompiledConcurrentParseRace(t *testing.T) {
	prog := build(t, calcGrammar, CompiledEngine())
	inputs := []string{"1+2*3", "(1+2)*(3+4)", "7", "1+", "((9))", ""}
	var srcs []*text.Source
	var want []string
	for i, in := range inputs {
		src := text.NewSource(fmt.Sprintf("in%d", i), in)
		srcs = append(srcs, src)
		v, _, err := prog.NewSession().Parse(src)
		if err != nil {
			want = append(want, "")
		} else {
			want = append(want, ast.Format(v))
		}
	}
	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % len(srcs)
				var v ast.Value
				var err error
				switch (g + i) % 3 {
				case 0:
					v, _, err = prog.Parse(srcs[k])
				case 1:
					s := prog.NewSession()
					s.Parse(srcs[(k+1)%len(srcs)])
					v, _, err = s.Parse(srcs[k])
				default:
					results := prog.ParseAll(context.Background(), srcs, 3, Limits{})
					if len(results) != len(srcs) {
						t.Errorf("batch returned %d results", len(results))
						return
					}
					v, err = results[k].Value, results[k].Err
				}
				if got := ""; err == nil {
					got = ast.Format(v)
					if got != want[k] {
						t.Errorf("goroutine %d: input %d parsed to %s, want %s", g, k, got, want[k])
						return
					}
				} else if want[k] != "" {
					t.Errorf("goroutine %d: input %d unexpectedly rejected: %v", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
