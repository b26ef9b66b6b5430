package vm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// voidCalcGrammar exercises memoization, choices, repetition, and
// predicates while producing no semantic values at all — the pure
// parser-machinery workload for the zero-allocation assertions.
const voidCalcGrammar = `
option root = S;
public void S = Expr !. ;
void Expr = Term (("+" / "-") Term)* ;
void Term = Factor (("*" / "/") Factor)* ;
void Factor = Number / "(" Expr ")" ;
void Number = [0-9]+ ;
`

func TestSessionReuseMatchesColdParse(t *testing.T) {
	inputs := []string{
		"1 + 2*3",
		"(1+2)*3",
		"1*2*3*4*5",
		"x",     // fails
		"1 + 2", // shorter than the first input: stale memo would be visible
		"((((1))))",
		"(1+2)*(3+4)-5*6+7*(8-9)", // longer again
		"",                        // fails at position 0
	}
	for _, cfg := range engineConfigs {
		prog := build(t, calcGrammar, cfg)
		s := prog.NewSession()
		for _, in := range inputs {
			src := text.NewSource("in", in)
			coldVal, coldStats, coldErr := prog.NewSession().Parse(src)
			gotVal, gotStats, gotErr := s.Parse(src)
			if (gotErr == nil) != (coldErr == nil) {
				t.Fatalf("cfg %v input %q: session err %v, cold err %v", cfg, in, gotErr, coldErr)
			}
			if gotErr != nil && gotErr.Error() != coldErr.Error() {
				t.Fatalf("cfg %v input %q: error drift: %v vs %v", cfg, in, gotErr, coldErr)
			}
			if !ast.Equal(gotVal, coldVal) {
				t.Fatalf("cfg %v input %q: value drift: %s vs %s",
					cfg, in, ast.Format(gotVal), ast.Format(coldVal))
			}
			if gotStats != coldStats {
				t.Fatalf("cfg %v input %q: stats drift:\nsession: %v\ncold:    %v",
					cfg, in, gotStats, coldStats)
			}
		}
	}
}

func TestPooledParseMatchesSessionParse(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	src := text.NewSource("in", "1+2*(3-4)")
	refVal, refStats, err := prog.NewSession().Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated pooled parses reuse a warm parser; nothing may drift.
	for i := 0; i < 5; i++ {
		v, st, err := prog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if !ast.Equal(v, refVal) || st != refStats {
			t.Fatalf("iteration %d drift: %s / %v", i, ast.Format(v), st)
		}
	}
}

func TestSessionParsePrefix(t *testing.T) {
	prog := build(t, "public S = \"ab\" ;\n", Optimized())
	s := prog.NewSession()
	for i := 0; i < 3; i++ {
		_, n, _, err := s.ParsePrefix(text.NewSource("in", "abc"))
		if err != nil || n != 2 {
			t.Fatalf("n = %d, err = %v", n, err)
		}
	}
	if _, _, _, err := s.ParsePrefix(text.NewSource("in", "xx")); err == nil {
		t.Fatal("prefix mismatch must fail")
	}
	if s.Program() != prog {
		t.Fatal("Program identity")
	}
}

// TestSteadyStateAllocsVoidGrammar asserts the headline property of the
// session layer: once warm, the parser machinery itself allocates
// nothing. The grammar is fully void so no semantic values muddy the
// count.
func TestSteadyStateAllocsVoidGrammar(t *testing.T) {
	input := strings.Repeat("(1+2)*3-4/5+", 200) + "6"
	src := text.NewSource("in", input)
	for _, cfg := range []Options{Optimized(), NaivePackrat(), Backtracking()} {
		prog := build(t, voidCalcGrammar, cfg)
		s := prog.NewSession()
		if _, _, err := s.Parse(src); err != nil {
			t.Fatalf("cfg %v: %v", cfg, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := s.Parse(src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("cfg %v: steady-state session parse allocated %.1f objects/op, want 0", cfg, allocs)
		}
	}
}

// TestSteadyStateAllocsCalc bounds the valued calc grammar: the pooled
// path may allocate only for semantic values (amortized through slabs),
// which must be a small fraction of what a cold parse allocates.
func TestSteadyStateAllocsCalc(t *testing.T) {
	input := strings.Repeat("(1+2)*3-4*5+", 200) + "6"
	src := text.NewSource("in", input)
	prog := build(t, calcGrammar, Optimized())

	cold := testing.AllocsPerRun(10, func() {
		if _, _, err := prog.NewSession().Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	s := prog.NewSession()
	s.Parse(src)
	warm := testing.AllocsPerRun(10, func() {
		if _, _, err := s.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if warm > cold/2 {
		t.Errorf("warm session allocs = %.1f, cold = %.1f: want warm <= cold/2", warm, cold)
	}
}

func TestParseAllOrderContract(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	var srcs []*text.Source
	var wantOK []bool
	for i := 0; i < 64; i++ {
		in := fmt.Sprintf("%d+%d*%d", i, i+1, i+2)
		ok := true
		if i%7 == 3 { // sprinkle failures through the batch
			in += "+"
			ok = false
		}
		srcs = append(srcs, text.NewSource(fmt.Sprintf("in%d", i), in))
		wantOK = append(wantOK, ok)
	}
	for _, workers := range []int{0, 1, 3, 128} {
		results := prog.ParseAll(srcs, workers)
		if len(results) != len(srcs) {
			t.Fatalf("workers=%d: %d results for %d inputs", workers, len(results), len(srcs))
		}
		for i, r := range results {
			if (r.Err == nil) != wantOK[i] {
				t.Fatalf("workers=%d input %d: err = %v, want ok=%v", workers, i, r.Err, wantOK[i])
			}
			if r.Err != nil {
				continue
			}
			want, _, err := prog.NewSession().Parse(srcs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !ast.Equal(r.Value, want) {
				t.Fatalf("workers=%d input %d: value %s, want %s",
					workers, i, ast.Format(r.Value), ast.Format(want))
			}
		}
	}
	if results := prog.ParseAll(nil, 4); len(results) != 0 {
		t.Fatalf("empty batch: %d results", len(results))
	}
}

func TestTotalStats(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	srcs := []*text.Source{
		text.NewSource("a", "1+2"),
		text.NewSource("b", "3*4*5"),
	}
	results := prog.ParseAll(srcs, 1)
	total := TotalStats(results)
	var want Stats
	for _, src := range srcs {
		_, st, err := prog.NewSession().Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(st)
	}
	if total != want {
		t.Fatalf("total = %v, want %v", total, want)
	}
	if total.Calls <= results[0].Stats.Calls {
		t.Fatal("aggregate must exceed a single input's counters")
	}
}

// TestConcurrentParseRace hammers one Program from many goroutines —
// pooled Parse calls interleaved with ParseAll batches — to prove under
// -race that the Program is read-only after compile and sessions never
// leak across goroutines.
func TestConcurrentParseRace(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	inputs := []string{"1+2*3", "(1+2)*(3+4)", "7", "1+", "((9))", ""}
	var srcs []*text.Source
	for i, in := range inputs {
		srcs = append(srcs, text.NewSource(fmt.Sprintf("in%d", i), in))
	}
	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 3 {
				case 0:
					prog.Parse(srcs[(g+i)%len(srcs)])
				case 1:
					s := prog.NewSession()
					s.Parse(srcs[(g+i)%len(srcs)])
					s.Parse(srcs[(g+i+1)%len(srcs)])
				default:
					results := prog.ParseAll(srcs, 3)
					if len(results) != len(srcs) {
						t.Errorf("batch returned %d results", len(results))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionReleasesPreviousValues pins the value arena's lifetime: a
// reused session must not keep the trees of its earlier parses alive.
// When one value slab held values of two parses, every tree kept its
// predecessor reachable and a pooled parser retained every value it
// ever built.
func TestSessionReleasesPreviousValues(t *testing.T) {
	for _, opts := range []Options{Optimized(), CompiledEngine()} {
		s := build(t, calcGrammar, opts).NewSession()
		prev := weakRoot(t, s, "1 + 2*3")
		for k := 0; k < 4; k++ {
			v, _, err := s.Parse(text.NewSource("in", "(1+2)*3"))
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			if prev.Value() != nil {
				t.Fatalf("%+v: parse %d's value is still reachable once parse %d's is live", opts, k, k+1)
			}
			prev = weak.Make(v.(*ast.Node))
			runtime.KeepAlive(v)
		}
	}
}

// weakRoot parses in on s and returns a weak pointer to the root node,
// so no strong reference to the value outlives the call.
func weakRoot(t *testing.T, s *Session, in string) weak.Pointer[ast.Node] {
	t.Helper()
	v, _, err := s.Parse(text.NewSource("in", in))
	if err != nil {
		t.Fatal(err)
	}
	return weak.Make(v.(*ast.Node))
}

// TestSmallParseValueSlabs checks that a fresh-slab parse of a tiny
// input stays small: the value slabs start small and grow with the
// parse instead of costing full-size slabs (about 76 KB) every time.
func TestSmallParseValueSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed under the race detector")
	}
	s := build(t, calcGrammar, Optimized()).NewSession()
	src := text.NewSource("in", "(1 + 2) * 3 - 4 * (5 + 6 * 7) + 8 * 9 - 10 + 11 * (12 - 13) + 14")
	if _, _, err := s.Parse(src); err != nil {
		t.Fatal(err)
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, _, err := s.Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 16<<10 {
		t.Fatalf("a %d-byte parse allocates %d bytes, want at most 16 KB", len(src.Content()), per)
	}
}
