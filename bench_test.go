// Benchmark harness reproducing the paper's evaluation. Each benchmark
// family corresponds to one table or figure of the experiment index in
// DESIGN.md; EXPERIMENTS.md records the measured results next to the
// paper's qualitative claims.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package modpeg

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"modpeg/internal/ast"
	"modpeg/internal/codegen/gencalc"
	"modpeg/internal/codegen/genjson"
	"modpeg/internal/core"
	"modpeg/internal/grammars"
	"modpeg/internal/peg"
	"modpeg/internal/telemetry"
	"modpeg/internal/text"
	"modpeg/internal/transform"
	"modpeg/internal/vm"
	"modpeg/internal/workload"
)

// mustProgram composes top, applies topts, compiles with eopts.
func mustProgram(b *testing.B, top string, topts transform.Options, eopts vm.Options) *vm.Program {
	b.Helper()
	g, err := grammars.Compose(top)
	if err != nil {
		b.Fatal(err)
	}
	tg, _, err := transform.Apply(g, topts)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := vm.Compile(tg, eopts)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func benchParse(b *testing.B, prog *vm.Program, input string) {
	src := text.NewSource("bench", input)
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := prog.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- Table 1
//
// Grammar modularity statistics: how large each composed grammar is and
// how much of it the optimizer strips. The "benchmark" measures full
// composition time (load + parse modules + resolve + modify); the counts
// are attached as custom metrics so `-bench Table1` prints the table.

func BenchmarkTable1GrammarStats(b *testing.B) {
	for _, top := range grammars.TopModules() {
		b.Run(top, func(b *testing.B) {
			var g *peg.Grammar
			var err error
			for i := 0; i < b.N; i++ {
				g, err = grammars.Compose(top)
				if err != nil {
					b.Fatal(err)
				}
			}
			s := peg.StatsOfGrammar(g)
			tg, _, err := transform.Apply(g, transform.Defaults())
			if err != nil {
				b.Fatal(err)
			}
			so := peg.StatsOfGrammar(tg)
			b.ReportMetric(float64(s.Modules), "modules")
			b.ReportMetric(float64(s.Productions), "prods")
			b.ReportMetric(float64(s.Alternatives), "alts")
			b.ReportMetric(float64(so.Productions), "prods-opt")
			b.ReportMetric(float64(so.Transient), "transient-opt")
		})
	}
}

// ---------------------------------------------------------------- Table 2
//
// Optimization impact, leave-one-out: the full pipeline with each pass
// (or engine feature) disabled in turn, parsing the Java-subset corpus.
// The paper's corresponding table shows which optimizations carry the
// speedup; transient marking and engine features dominate here too.

func BenchmarkTable2Ablation(b *testing.B) {
	input := workload.JavaProgram(workload.Config{Seed: 42, Size: 40 * 1024})

	type cfg struct {
		name  string
		topts transform.Options
		eopts vm.Options
	}
	all := transform.Defaults()
	configs := []cfg{
		{"all-on", all, vm.Optimized()},
		{"no-transient", func() transform.Options { o := all; o.MarkTransient = false; return o }(), vm.Optimized()},
		{"no-inline", func() transform.Options { o := all; o.Inline = false; return o }(), vm.Optimized()},
		{"no-fold", func() transform.Options { o := all; o.FoldPrefixes = false; o.MergeClasses = false; return o }(), vm.Optimized()},
		{"no-deadcode", func() transform.Options { o := all; o.DeadCode = false; return o }(), vm.Optimized()},
		{"no-dispatch", all, func() vm.Options { o := vm.Optimized(); o.Dispatch = false; return o }()},
		{"no-chunks", all, func() vm.Options { o := vm.Optimized(); o.ChunkedMemo = false; return o }()},
		{"expand-repetitions", func() transform.Options { o := all; o.ExpandRepetitions = true; return o }(), vm.Optimized()},
		{"all-off(naive)", transform.Baseline(), vm.NaivePackrat()},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			prog := mustProgram(b, grammars.JavaCore, c.topts, c.eopts)
			_, stats, err := prog.Parse(text.NewSource("probe", input))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(stats.MemoBytes)/float64(len(input)), "memoB/inputB")
			benchParse(b, prog, input)
		})
	}
}

// ---------------------------------------------------------------- Table 3
//
// Engine comparison on realistic corpora: plain backtracking vs naive
// packrat vs the optimized engine, on the Java and C subsets, plus the
// generated-code parser vs the interpreting engine on the calculator.

func BenchmarkTable3Engines(b *testing.B) {
	corpora := []struct {
		lang  string
		top   string
		input string
	}{
		// The java corpus is named by size, not language: the bench gate
		// (scripts/bench.sh → bench_check.sh) derives java-40KB-ns-per-byte
		// from the "size=40KB/optimized" row, matching the seed reference
		// row recorded in the bench JSON.
		{"size=40KB", grammars.JavaCore, workload.JavaProgram(workload.Config{Seed: 7, Size: 40 * 1024})},
		{"c", grammars.CCore, workload.CProgram(workload.Config{Seed: 7, Size: 40 * 1024})},
		{"json", grammars.JSON, workload.JSONDoc(workload.Config{Seed: 7, Size: 40 * 1024})},
	}
	engines := []struct {
		name  string
		topts transform.Options
		eopts vm.Options
		pgo   bool // recompile with a profile of the same corpus
	}{
		{"backtracking", transform.Defaults(), vm.Backtracking(), false},
		{"naive-packrat", transform.Baseline(), vm.NaivePackrat(), false},
		{"optimized", transform.Defaults(), vm.Optimized(), false},
		{"optimized+pgo", transform.Defaults(), vm.Optimized(), true},
	}
	for _, c := range corpora {
		for _, e := range engines {
			b.Run(c.lang+"/"+e.name, func(b *testing.B) {
				eopts := e.eopts
				if e.pgo {
					// Profile-guided compilation: one profiled parse of the
					// corpus feeds the hot-production report back into Compile.
					prog := mustProgram(b, c.top, e.topts, eopts)
					pr := prog.NewProfiler()
					_, _, err := prog.ParseRequest(context.Background(), text.NewSource("bench", c.input), vm.Request{Hook: pr})
					if err != nil {
						b.Fatal(err)
					}
					eopts.PGO = pr.Profile().PGO()
				}
				prog := mustProgram(b, c.top, e.topts, eopts)
				benchParse(b, prog, c.input)
			})
		}
	}
}

// BenchmarkTable3Generated compares the interpreting engine with the
// generated standalone parser on the same calculator inputs (the
// parser-generator path the paper ships).
func BenchmarkTable3Generated(b *testing.B) {
	calcInput := workload.Expression(workload.Config{Seed: 3, Size: 40 * 1024})
	jsonInput := workload.JSONDoc(workload.Config{Seed: 3, Size: 40 * 1024})
	// gencalc/genjson are generated from the bundled grammars; build the
	// matching interpreters from the same modules.
	b.Run("calc/interpreter", func(b *testing.B) {
		prog := mustProgram(b, grammars.CalcCore, transform.Defaults(), vm.Optimized())
		benchParse(b, prog, calcInput)
	})
	b.Run("calc/generated", func(b *testing.B) {
		b.SetBytes(int64(len(calcInput)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gencalc.Parse(calcInput); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/interpreter", func(b *testing.B) {
		prog := mustProgram(b, grammars.JSON, transform.Defaults(), vm.Optimized())
		benchParse(b, prog, jsonInput)
	})
	b.Run("json/generated", func(b *testing.B) {
		b.SetBytes(int64(len(jsonInput)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := genjson.Parse(jsonInput); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable3Compiled compares the closure-compiled engine against
// the optimized interpreter with a paired-alternating measurement: both
// engines parse the same input inside the same benchmark iteration, so
// CPU-frequency and scheduler noise hit both sides equally and the
// "speedup" metric is stable run to run (phase-isolated A/B timing on
// this family drifts by tens of percent between minutes).
//
// Two corpora bracket the engine's win. The valued java row is
// end-to-end: both engines share the AST construction and GC cost, so
// Amdahl caps the observed ratio well below the engine-only gain. The
// void row parses with warm sessions and no semantic values — pure
// parser machinery — and shows the closure tree's raw advantage.
// scripts/bench.sh derives compiled-speedup-x1000 and
// compiled-void-speedup-x1000 from these rows; bench_check.sh ratchets
// them (the void row carries the >= 2x floor).
func BenchmarkTable3Compiled(b *testing.B) {
	paired := func(b *testing.B, nbytes int, parseOpt, parseComp func() error) {
		b.SetBytes(int64(nbytes))
		var tOpt, tComp time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if err := parseOpt(); err != nil {
				b.Fatal(err)
			}
			t1 := time.Now()
			if err := parseComp(); err != nil {
				b.Fatal(err)
			}
			t2 := time.Now()
			tOpt += t1.Sub(t0)
			tComp += t2.Sub(t1)
		}
		b.ReportMetric(float64(tOpt.Nanoseconds())/float64(tComp.Nanoseconds()), "speedup")
		b.ReportMetric(float64(tOpt.Nanoseconds())/float64(b.N)/1e6, "interp-ms")
		b.ReportMetric(float64(tComp.Nanoseconds())/float64(b.N)/1e6, "compiled-ms")
	}
	b.Run("java-64KB", func(b *testing.B) {
		input := workload.JavaProgram(workload.Config{Seed: 7, Size: 64 * 1024})
		src := text.NewSource("bench", input)
		opt := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.Optimized())
		comp := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.CompiledEngine())
		paired(b, len(input), func() error {
			_, _, err := opt.Parse(src)
			return err
		}, func() error {
			_, _, err := comp.Parse(src)
			return err
		})
	})
	b.Run("void-64KB", func(b *testing.B) {
		g, err := core.Compose("voidcalc", core.MapResolver{"voidcalc": voidBenchGrammar})
		if err != nil {
			b.Fatal(err)
		}
		tg, _, err := transform.Apply(g, transform.Defaults())
		if err != nil {
			b.Fatal(err)
		}
		input := "(1+2)*3-4/5+"
		for len(input) < 64*1024 {
			input += input
		}
		input += "6"
		src := text.NewSource("bench", input)
		mk := func(opts vm.Options) *vm.Session {
			prog, err := vm.Compile(tg, opts)
			if err != nil {
				b.Fatal(err)
			}
			s := prog.NewSession()
			if _, _, err := s.Parse(src); err != nil {
				b.Fatal(err)
			}
			return s
		}
		opt := mk(vm.Optimized())
		comp := mk(vm.CompiledEngine())
		paired(b, len(input), func() error {
			_, _, err := opt.Parse(src)
			return err
		}, func() error {
			_, _, err := comp.Parse(src)
			return err
		})
	})
}

// ---------------------------------------------------------------- Table 4
//
// Cost of modular composition: the base Java grammar vs the grammar
// composed with three extension modules, parsing the same base-language
// corpus (no extension constructs), plus composition time itself.

func BenchmarkTable4Composition(b *testing.B) {
	input := workload.JavaProgram(workload.Config{Seed: 11, Size: 40 * 1024})
	extInput := workload.JavaProgramExt(workload.Config{Seed: 11, Size: 40 * 1024})

	b.Run("parse/base-grammar", func(b *testing.B) {
		prog := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.Optimized())
		benchParse(b, prog, input)
	})
	b.Run("parse/composed-grammar", func(b *testing.B) {
		prog := mustProgram(b, grammars.JavaFull, transform.Defaults(), vm.Optimized())
		benchParse(b, prog, input)
	})
	b.Run("parse/composed-grammar-ext-input", func(b *testing.B) {
		prog := mustProgram(b, grammars.JavaFull, transform.Defaults(), vm.Optimized())
		benchParse(b, prog, extInput)
	})
	b.Run("compose/base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := grammars.Compose(grammars.JavaCore); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compose/full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := grammars.Compose(grammars.JavaFull); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The build half of a registry upload: the optimizer pipeline plus
	// the engine compile, on the already composed grammar.
	g, err := grammars.Compose(grammars.JavaCore)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range []struct {
		name string
		opts vm.Options
	}{{"optimized", vm.Optimized()}, {"compiled", vm.CompiledEngine()}} {
		b.Run("build/java.core/"+e.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tg, _, err := transform.Apply(g, transform.Defaults())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := vm.Compile(tg, e.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- Fig. 1
//
// Linear-time scaling: parse time per input byte across input sizes. A
// packrat parser's ns/byte stays flat; the benchmark reports throughput
// per size so the series can be plotted.

func BenchmarkFig1Scaling(b *testing.B) {
	prog := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.Optimized())
	for _, kb := range []int{4, 16, 64, 256} {
		input := workload.JavaProgram(workload.Config{Seed: 5, Size: kb * 1024})
		b.Run(fmt.Sprintf("size=%dKB", kb), func(b *testing.B) {
			benchParse(b, prog, input)
		})
	}
}

// ---------------------------------------------------------------- Fig. 2
//
// Heap utilization of memoization: memo bytes per input byte across
// engine configurations and input sizes. Chunked memoization with
// transient productions cuts the constant severalfold vs naive packrat.

func BenchmarkFig2Heap(b *testing.B) {
	configs := []struct {
		name  string
		topts transform.Options
		eopts vm.Options
	}{
		{"naive-packrat", transform.Baseline(), vm.NaivePackrat()},
		{"chunked-memoall", transform.Baseline(), func() vm.Options {
			o := vm.NaivePackrat()
			o.ChunkedMemo = true
			return o
		}()},
		{"optimized", transform.Defaults(), vm.Optimized()},
	}
	for _, kb := range []int{16, 64} {
		input := workload.JavaProgram(workload.Config{Seed: 9, Size: kb * 1024})
		for _, c := range configs {
			b.Run(fmt.Sprintf("size=%dKB/%s", kb, c.name), func(b *testing.B) {
				prog := mustProgram(b, grammars.JavaCore, c.topts, c.eopts)
				_, stats, err := prog.Parse(text.NewSource("probe", input))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.MemoBytes)/float64(len(input)), "memoB/inputB")
				benchParse(b, prog, input)
			})
		}
	}
}

// ---------------------------------------------------------------- Fig. 3
//
// Why packrat: on the pathological shared-prefix grammar, plain
// backtracking explodes exponentially with nesting depth while the
// memoizing engines stay linear. Depths are kept small enough that the
// exponential side still terminates.

func BenchmarkFig3Pathological(b *testing.B) {
	g, err := core.Compose("path", core.MapResolver{"path": workload.PathologicalGrammar})
	if err != nil {
		b.Fatal(err)
	}
	tg, _, err := transform.Apply(g, transform.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{8, 12, 16, 20} {
		input := workload.Pathological(depth)
		for _, e := range []struct {
			name string
			opts vm.Options
		}{
			{"backtracking", vm.Backtracking()},
			{"packrat", vm.NaivePackrat()},
			{"optimized", vm.Optimized()},
		} {
			b.Run(fmt.Sprintf("depth=%d/%s", depth, e.name), func(b *testing.B) {
				prog, err := vm.Compile(tg, e.opts)
				if err != nil {
					b.Fatal(err)
				}
				_, stats, err := prog.Parse(text.NewSource("probe", input))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Calls), "calls")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := prog.Parse(text.NewSource("bench", input)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------- Table 5
//
// Engine residency: how much of a parse's cost is machinery allocation
// that a resident (pooled or explicitly reused) session amortizes away.
// "cold" builds a fresh session per parse — the seed's behaviour —
// while "pooled" exercises Program.Parse's internal sync.Pool and
// "session" reuses one explicit session. The memo arena, chunk
// directory, and scratch buffers are recycled; semantic values still
// allocate (slab-amortized), so allocs/op does not reach zero on valued
// grammars (see TestSteadyStateAllocsVoidGrammar for the zero case).

func BenchmarkTable5Sessions(b *testing.B) {
	for _, w := range []struct {
		name string
		top  string
		gen  func() string
	}{
		{"calc", "calc.full", func() string { return workload.Expression(workload.Config{Seed: 7, Size: 40 * 1024}) }},
		{"java", "java.core", func() string {
			return workload.JavaProgram(workload.Config{Seed: 7, Size: 40 * 1024})
		}},
	} {
		input := w.gen()
		src := text.NewSource("bench", input)
		prog := mustProgram(b, w.top, transform.Defaults(), vm.Optimized())
		b.Run(w.name+"/cold", func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := prog.NewSession().Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.name+"/pooled", func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := prog.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(w.name+"/session", func(b *testing.B) {
			s := prog.NewSession()
			if _, _, err := s.Parse(src); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5Batch compares parsing a 16-file batch sequentially on
// one session against fanning it across GOMAXPROCS workers with
// Program.ParseAll. On a multi-core machine the batch row should
// approach a worker-count speedup; on one core it matches sequential.
func BenchmarkTable5Batch(b *testing.B) {
	const nFiles = 16
	prog := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.Optimized())
	var srcs []*text.Source
	var total int
	for i := 0; i < nFiles; i++ {
		in := workload.JavaProgram(workload.Config{Seed: int64(200 + i), Size: 8 * 1024})
		total += len(in)
		srcs = append(srcs, text.NewSource(fmt.Sprintf("file%d", i), in))
	}
	b.Run("sequential", func(b *testing.B) {
		s := prog.NewSession()
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, src := range srcs {
				if _, _, err := s.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range prog.ParseAll(context.Background(), srcs, 0, vm.Limits{}) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// voidBenchGrammar is an all-void calculator: it exercises memoization,
// choices, and repetition while producing no semantic values, so a warm
// session parse is pure parser machinery. The steady state must be
// exactly 0 allocs/op — scripts/bench_check.sh gates CI on this row's
// allocs_per_op staying zero.
const voidBenchGrammar = `module voidcalc;
option root = S;
public void S = Expr !. ;
void Expr = Term (("+" / "-") Term)* ;
void Term = Factor (("*" / "/") Factor)* ;
void Factor = Number / "(" Expr ")" ;
void Number = [0-9]+ ;
`

// BenchmarkTable5VoidSteadyState is the allocation canary: a warm
// session parsing a void grammar. Machinery allocations have nowhere to
// hide behind semantic values here, so allocs/op must be exactly 0 —
// any regression in the arena, session, or governance layers shows up
// as a nonzero column in the bench JSON and fails the CI gate. Both the
// interpreter and the closure-compiled engine are held to the zero
// floor: bench_check.sh requires every VoidSteadyState row to report 0.
func BenchmarkTable5VoidSteadyState(b *testing.B) {
	g, err := core.Compose("voidcalc", core.MapResolver{"voidcalc": voidBenchGrammar})
	if err != nil {
		b.Fatal(err)
	}
	tg, _, err := transform.Apply(g, transform.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	input := "(1+2)*3-4/5+"
	for len(input) < 8*1024 {
		input += input
	}
	input += "6"
	src := text.NewSource("bench", input)
	for _, e := range []struct {
		name string
		opts vm.Options
	}{
		{"optimized", vm.Optimized()},
		{"compiled", vm.CompiledEngine()},
	} {
		b.Run(e.name, func(b *testing.B) {
			prog, err := vm.Compile(tg, e.opts)
			if err != nil {
				b.Fatal(err)
			}
			s := prog.NewSession()
			if _, _, err := s.Parse(src); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The serve layer's default hot path: pooled ParseRequest with
	// sampling off and no trace ID. The sampling decision is
	// one atomic load per checkout and the exemplar branch one string
	// compare, so this row is held to the same 0 allocs/op floor as the
	// session rows — the always-on profiler must cost nothing when off.
	b.Run("sampling-off", func(b *testing.B) {
		prog, err := vm.Compile(tg, vm.Optimized())
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		if _, _, err := prog.ParseRequest(ctx, src, vm.Request{}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := prog.ParseRequest(ctx, src, vm.Request{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------- Table 7
//
// Resource-governance overhead: the java.core workload parsed with
// Session.Parse ("ungoverned"), with ParseRequest and zero limits (the
// arming cost alone), and with every budget armed but generous (the
// polling cost on the chunk-allocation and backtrack edges). Parse is
// ParseRequest with a zero Request, so the first two rows time one
// path; the row names stay for comparison with earlier BENCH files.

func BenchmarkTable7Governance(b *testing.B) {
	prog := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.Optimized())
	input := workload.JavaProgram(workload.Config{Seed: 7, Size: 40 * 1024})
	src := text.NewSource("bench", input)
	ctx := context.Background()
	s := prog.NewSession()
	if _, _, err := s.Parse(src); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, lim vm.Limits, governed bool) {
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if governed {
				_, _, err = s.ParseRequest(ctx, src, vm.Request{Limits: lim})
			} else {
				_, _, err = s.Parse(src)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("ungoverned", func(b *testing.B) { run(b, vm.Limits{}, false) })
	b.Run("zero-limits", func(b *testing.B) { run(b, vm.Limits{}, true) })
	b.Run("all-budgets", func(b *testing.B) {
		run(b, vm.Limits{
			MaxInputBytes:    1 << 30,
			MaxMemoBytes:     1 << 30,
			MaxCallDepth:     1 << 20,
			MaxParseDuration: time.Hour,
		}, true)
	})
}

// ---------------------------------------------------------------- Table 6
//
// Observability overhead: the 40 KB java.core workload parsed with
// instrumentation disabled (nil hook — must match Table 5's java/pooled
// row within noise; the acceptance bound is <= 2%), with the
// per-production profiler installed, and with the call trace streaming
// into a discarding writer. scripts/bench.sh records this family in
// BENCH_2.json.

func BenchmarkTable6Observability(b *testing.B) {
	input := workload.JavaProgram(workload.Config{Seed: 7, Size: 40 * 1024})
	src := text.NewSource("bench", input)
	prog := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.Optimized())

	b.Run("disabled", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := prog.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("profiled", func(b *testing.B) {
		pr := prog.NewProfiler()
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := prog.ParseRequest(context.Background(), src, vm.Request{Hook: pr}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trace := vm.Request{Hook: prog.NewCallTrace(io.Discard)}
			if _, _, err := prog.ParseRequest(context.Background(), src, trace); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable6SamplingOverhead measures the cost of always-on
// 1-in-100 sampled profiling end to end on the 64 KB java corpus. Two
// identically compiled programs parse the same input inside the same
// benchmark iteration: one with sampling off, one at SetSampling(1) so
// EVERY parse takes the sampled path (interpreter under a borrowed
// profiler, merged into the rolling profile). Measuring the fully
// sampled path and amortizing it over the 1-in-100 duty cycle —
// overhead = 1 + (sampled/off - 1)/100 — gives every iteration signal;
// a literal rate-100 run at CI's -benchtime 20x would never fire the
// sampler at all. The "overhead" metric is that amortized ratio;
// scripts/bench.sh records it as derived/sampling-overhead-x1000 and
// bench_check.sh ratchets it at <= 2% (1020). Measured: the sampled
// path is ~1.9x the optimized parse, so the amortized overhead is
// ~1.009.
func BenchmarkTable6SamplingOverhead(b *testing.B) {
	input := workload.JavaProgram(workload.Config{Seed: 7, Size: 64 * 1024})
	src := text.NewSource("bench", input)
	off := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.Optimized())
	sampled := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.Optimized())
	sampled.SetLabel("bench/sampling-overhead")
	sampled.SetSampling(1)
	defer vm.ResetSampledProfiles()
	// Warm both pools so neither side pays a first-iteration build.
	for _, prog := range []*vm.Program{off, sampled} {
		if _, _, err := prog.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(input)))
	var tOff, tSampled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, _, err := off.Parse(src); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if _, _, err := sampled.Parse(src); err != nil {
			b.Fatal(err)
		}
		tOff += t1.Sub(t0)
		tSampled += time.Since(t1)
	}
	ratio := float64(tSampled.Nanoseconds()) / float64(tOff.Nanoseconds())
	b.ReportMetric(1+(ratio-1)/100, "overhead")
}

// ---------------------------------------------------------------- Table 8
//
// Incremental reparsing over recycled memo tables: for each input size
// and edit shape, the "full" row parses the edited text from scratch and
// the "incremental" row applies the edit to a warm Document (alternating
// an insertion with its exact inverse so every iteration invalidates,
// relocates, and reparses for real). The acceptance bound is the
// 64KB/line incremental row at >= 5x the full row; scripts/bench.sh
// records the family (and that derived speedup) in BENCH_4.json.

func BenchmarkTable8Incremental(b *testing.B) {
	prog := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.Optimized())
	for _, kb := range []int{4, 16, 64, 256} {
		input := workload.JavaProgram(workload.Config{Seed: 8, Size: kb * 1024})
		for _, e := range []struct {
			name string
			p    workload.EditPair
		}{
			{"byte", workload.JavaEditByte(input)},
			{"line", workload.JavaEditLine(input)},
			{"blob10pct", workload.JavaEditBlob(input, 0.10)},
		} {
			edited := input[:e.p.Insert.Off] + e.p.Insert.Text + input[e.p.Insert.Off:]
			editedSrc := text.NewSource("bench", edited)
			b.Run(fmt.Sprintf("%dKB/%s/full", kb, e.name), func(b *testing.B) {
				b.SetBytes(int64(len(edited)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := prog.Parse(editedSrc); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%dKB/%s/incremental", kb, e.name), func(b *testing.B) {
				d := prog.NewDocument(text.NewSource("bench", input))
				if d.Err() != nil {
					b.Fatal(d.Err())
				}
				// Warm the ping-pong cycle once so the steady state is measured.
				d.Apply(e.p.Insert)
				d.Apply(e.p.Delete)
				b.SetBytes(int64(len(edited)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ed := e.p.Insert
					if i%2 == 1 {
						ed = e.p.Delete
					}
					if _, _, err := d.Apply(ed); err != nil || d.Err() != nil {
						b.Fatalf("apply: %v, parse: %v", err, d.Err())
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------- Table 9
//
// Telemetry-pipeline overhead: the same governed parse with the metrics
// registry disabled ("bare"), with the default registry + latency/input
// histograms + per-grammar counters ("metrics"), and with the Chrome
// trace-event exporter installed as a ParseHook ("traced"). The
// acceptance bound is the metrics row within ~5% of bare;
// scripts/bench.sh records the family (and the derived overhead ratio)
// in BENCH_5.json.

func BenchmarkTable9Telemetry(b *testing.B) {
	input := workload.Expression(workload.Config{Seed: 9, Size: 40 * 1024})
	src := text.NewSource("bench", input)
	prog := mustProgram(b, grammars.CalcFull, transform.Defaults(), vm.Optimized())

	b.Run("bare", func(b *testing.B) {
		prev := vm.SetTelemetry(false)
		defer vm.SetTelemetry(prev)
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := prog.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("metrics", func(b *testing.B) {
		prev := vm.SetTelemetry(true)
		defer vm.SetTelemetry(prev)
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := prog.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		prev := vm.SetTelemetry(true)
		defer vm.SetTelemetry(prev)
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := telemetry.NewTrace(prog, io.Discard)
			if _, _, err := prog.ParseRequest(context.Background(), src, vm.Request{Hook: tr}); err != nil {
				b.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------- Value encode
//
// The encoding rung of the parse-side ladder: the 64 KB java.core value
// appended by ast.AppendJSON to a reused buffer, the path /parse writes
// its response bodies through. The encoder walks the value once and
// allocates nothing once the buffer fits, so scripts/bench_check.sh
// holds this row at exactly 0 allocs/op, like the void canary.

func BenchmarkValueEncode(b *testing.B) {
	b.Run("java-64KB", func(b *testing.B) {
		prog := mustProgram(b, grammars.JavaCore, transform.Defaults(), vm.Optimized())
		input := workload.JavaProgram(workload.Config{Seed: 7, Size: 64 * 1024})
		v, _, err := prog.Parse(text.NewSource("bench", input))
		if err != nil {
			b.Fatal(err)
		}
		buf := ast.AppendJSON(nil, v)
		b.SetBytes(int64(len(input)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = ast.AppendJSON(buf[:0], v)
		}
	})
}
