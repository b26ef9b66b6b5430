// Package experiments reproduces the paper's evaluation tables and
// figures as programmatic measurements, independent of the testing.B
// framework, so the CLI can print them and EXPERIMENTS.md can record
// them. Each function corresponds to one entry of the experiment index in
// DESIGN.md.
//
// Numbers are wall-clock measurements on synthetic corpora (see
// internal/workload); the paper's absolute numbers came from a 2006
// JVM testbed, so only the *shapes* — who wins, by what factor, where the
// crossovers are — are comparable.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"time"

	"modpeg/internal/core"
	"modpeg/internal/grammars"
	"modpeg/internal/loadbench"
	"modpeg/internal/peg"
	"modpeg/internal/serve"
	"modpeg/internal/syntax"
	"modpeg/internal/telemetry"
	"modpeg/internal/text"
	"modpeg/internal/transform"
	"modpeg/internal/vm"
	"modpeg/internal/workload"
)

// Options tunes measurement effort.
type Options struct {
	// InputKB is the corpus size for throughput experiments.
	InputKB int
	// MinTime is the minimum measurement window per configuration.
	MinTime time.Duration
}

// Defaults returns the options used for the recorded results.
func Defaults() Options {
	return Options{InputKB: 40, MinTime: 300 * time.Millisecond}
}

func (o Options) normalized() Options {
	if o.InputKB <= 0 {
		o.InputKB = 40
	}
	if o.MinTime <= 0 {
		o.MinTime = 300 * time.Millisecond
	}
	return o
}

// Table holds one rendered experiment.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// All runs every experiment.
func All(opts Options) []Table {
	return []Table{
		Table1(), Table2(opts), Table3(opts), Table4(opts), Table5(opts),
		Table7(opts), Table8(opts), Table9(opts), Table11(opts),
		Fig1(opts), Fig2(opts), Fig3(opts), HotProds(opts),
	}
}

// ByID runs one experiment by its identifier ("table1" ... "fig3",
// "hotprods", "limits").
func ByID(id string, opts Options) (Table, error) {
	switch strings.ToLower(id) {
	case "table1":
		return Table1(), nil
	case "table2":
		return Table2(opts), nil
	case "table3":
		return Table3(opts), nil
	case "table4":
		return Table4(opts), nil
	case "table5":
		return Table5(opts), nil
	case "table7", "limits":
		return Table7(opts), nil
	case "table8", "incremental":
		return Table8(opts), nil
	case "table9", "telemetry":
		return Table9(opts), nil
	case "table11", "capacity":
		return Table11(opts), nil
	case "fig1":
		return Fig1(opts), nil
	case "fig2":
		return Fig2(opts), nil
	case "fig3":
		return Fig3(opts), nil
	case "hotprods":
		return HotProds(opts), nil
	}
	return Table{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// ------------------------------------------------------------- measuring

// measure runs fn repeatedly for at least minTime and returns the mean
// duration of one run.
func measure(minTime time.Duration, fn func()) time.Duration {
	// Warm up once (memo tables, caches).
	fn()
	var n int
	start := time.Now()
	for time.Since(start) < minTime {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// measureBest runs fn repeatedly for at least minTime and returns the
// fastest single run. Used where two timings are compared as a ratio
// (Table 8): the minimum discards GC pauses and scheduler noise that a
// short-window mean folds into one side of the ratio.
func measureBest(minTime time.Duration, fn func()) time.Duration {
	fn()
	best := time.Duration(1<<63 - 1)
	start := time.Now()
	for time.Since(start) < minTime {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func mbPerSec(bytes int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(bytes)/d.Seconds()/1e6)
}

func buildProgram(top string, topts transform.Options, eopts vm.Options) (*vm.Program, error) {
	g, err := grammars.Compose(top)
	if err != nil {
		return nil, err
	}
	tg, _, err := transform.Apply(g, topts)
	if err != nil {
		return nil, err
	}
	return vm.Compile(tg, eopts)
}

// ---------------------------------------------------------------- table1

// Table1 reports grammar modularity statistics for each bundled module —
// the analogue of the paper's per-module grammar size table.
func Table1() Table {
	t := Table{
		ID:     "Table 1",
		Title:  "grammar modularity statistics (per bundled module)",
		Header: []string{"module", "imports", "modifies", "prods", "overrides", "adds", "removes", "alts"},
	}
	resolver := grammars.Resolver()
	for _, name := range grammars.ModuleNames() {
		src, err := resolver.Resolve(name)
		if err != nil {
			continue
		}
		m, err := syntax.Parse(src)
		if err != nil {
			continue
		}
		s := peg.StatsOf(m)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(s.Imports), fmt.Sprint(s.Modifies),
			fmt.Sprint(s.Productions), fmt.Sprint(s.Overrides),
			fmt.Sprint(s.Additions), fmt.Sprint(s.Removals),
			fmt.Sprint(s.Alternatives),
		})
	}
	for _, top := range grammars.TopModules() {
		g, err := grammars.Compose(top)
		if err != nil {
			continue
		}
		s := peg.StatsOfGrammar(g)
		tg, _, err := transform.Apply(g, transform.Defaults())
		if err != nil {
			continue
		}
		so := peg.StatsOfGrammar(tg)
		t.Rows = append(t.Rows, []string{
			"composed:" + top,
			fmt.Sprint(s.Modules), "-",
			fmt.Sprint(s.Productions), "-", "-", "-",
			fmt.Sprint(s.Alternatives),
		})
		t.Notes = append(t.Notes, fmt.Sprintf("%s: %d productions after optimization, %d transient",
			top, so.Productions, so.Transient))
	}
	return t
}

// ---------------------------------------------------------------- table2

// ablationConfigs is shared between Table2 and the bench harness.
func ablationConfigs() []struct {
	Name  string
	Topts transform.Options
	Eopts vm.Options
} {
	all := transform.Defaults()
	mod := func(f func(*transform.Options)) transform.Options {
		o := all
		f(&o)
		return o
	}
	engine := func(f func(*vm.Options)) vm.Options {
		o := vm.Optimized()
		f(&o)
		return o
	}
	return []struct {
		Name  string
		Topts transform.Options
		Eopts vm.Options
	}{
		{"all-on", all, vm.Optimized()},
		{"no-transient-marking", mod(func(o *transform.Options) { o.MarkTransient = false }), vm.Optimized()},
		{"no-inlining", mod(func(o *transform.Options) { o.Inline = false }), vm.Optimized()},
		{"no-folding", mod(func(o *transform.Options) { o.FoldPrefixes = false; o.MergeClasses = false }), vm.Optimized()},
		{"no-dead-code", mod(func(o *transform.Options) { o.DeadCode = false }), vm.Optimized()},
		{"no-dispatch", all, engine(func(o *vm.Options) { o.Dispatch = false })},
		{"no-scan-fusion", all, engine(func(o *vm.Options) { o.ScanFusion = false })},
		{"map-memo (no chunks)", all, engine(func(o *vm.Options) { o.ChunkedMemo = false })},
		{"expanded-repetitions", mod(func(o *transform.Options) { o.ExpandRepetitions = true }), vm.Optimized()},
		{"all-off (naive packrat)", transform.Baseline(), vm.NaivePackrat()},
	}
}

// Table2 reports the optimization-impact ablation on the Java-subset
// corpus: throughput and memo footprint with each optimization disabled
// in turn.
func Table2(opts Options) Table {
	opts = opts.normalized()
	input := workload.JavaProgram(workload.Config{Seed: 42, Size: opts.InputKB * 1024})
	src := text.NewSource("bench", input)
	t := Table{
		ID:     "Table 2",
		Title:  fmt.Sprintf("optimization ablation, java.core corpus (%d KB)", len(input)/1024),
		Header: []string{"configuration", "MB/s", "rel-time", "memoKB", "memo stores", "calls"},
	}
	var base time.Duration
	for _, c := range ablationConfigs() {
		prog, err := buildProgram(grammars.JavaCore, c.Topts, c.Eopts)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %v", c.Name, err))
			continue
		}
		_, stats, err := prog.Parse(src)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %v", c.Name, err))
			continue
		}
		d := measure(opts.MinTime, func() { prog.Parse(src) })
		if base == 0 {
			base = d
		}
		t.Rows = append(t.Rows, []string{
			c.Name,
			mbPerSec(len(input), d),
			fmt.Sprintf("%.2fx", float64(d)/float64(base)),
			fmt.Sprint(stats.MemoBytes / 1024),
			fmt.Sprint(stats.MemoStores),
			fmt.Sprint(stats.Calls),
		})
	}
	return t
}

// ---------------------------------------------------------------- table3

// Table3 compares the engines across the realistic corpora.
func Table3(opts Options) Table {
	opts = opts.normalized()
	t := Table{
		ID:     "Table 3",
		Title:  fmt.Sprintf("engine comparison (%d KB corpora)", opts.InputKB),
		Header: []string{"corpus", "engine", "MB/s", "rel-time", "memoKB"},
	}
	corpora := []struct {
		lang  string
		top   string
		input string
	}{
		{"java", grammars.JavaCore, workload.JavaProgram(workload.Config{Seed: 7, Size: opts.InputKB * 1024})},
		{"c", grammars.CCore, workload.CProgram(workload.Config{Seed: 7, Size: opts.InputKB * 1024})},
		{"json", grammars.JSON, workload.JSONDoc(workload.Config{Seed: 7, Size: opts.InputKB * 1024})},
		{"calc", grammars.CalcCore, workload.Expression(workload.Config{Seed: 7, Size: opts.InputKB * 1024})},
	}
	engines := []struct {
		name  string
		topts transform.Options
		eopts vm.Options
	}{
		{"backtracking", transform.Defaults(), vm.Backtracking()},
		{"naive-packrat", transform.Baseline(), vm.NaivePackrat()},
		{"optimized", transform.Defaults(), vm.Optimized()},
		{"compiled", transform.Defaults(), vm.CompiledEngine()},
	}
	for _, c := range corpora {
		src := text.NewSource("bench", c.input)
		for _, e := range engines {
			prog, err := buildProgram(c.top, e.topts, e.eopts)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%s/%s: %v", c.lang, e.name, err))
				continue
			}
			_, stats, err := prog.Parse(src)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%s/%s: %v", c.lang, e.name, err))
				continue
			}
			d := measure(opts.MinTime, func() { prog.Parse(src) })
			t.Rows = append(t.Rows, []string{
				c.lang, e.name,
				mbPerSec(len(c.input), d),
				"", // filled below once the optimized time is known
				fmt.Sprint(stats.MemoBytes / 1024),
			})
			// Store duration in the rel-time cell temporarily.
			t.Rows[len(t.Rows)-1][3] = fmt.Sprint(int64(d))
		}
		// Normalize rel-time to the optimized engine of this corpus.
		var opt int64
		for _, row := range t.Rows {
			if row[0] == c.lang && row[1] == "optimized" {
				fmt.Sscan(row[3], &opt)
			}
		}
		for _, row := range t.Rows {
			if row[0] == c.lang {
				var d int64
				fmt.Sscan(row[3], &d)
				row[3] = fmt.Sprintf("%.2fx", float64(d)/float64(opt))
			}
		}
	}
	return t
}

// ---------------------------------------------------------------- table4

// Table4 measures what modular composition costs: base vs extended
// grammar on the same base-language corpus.
func Table4(opts Options) Table {
	opts = opts.normalized()
	input := workload.JavaProgram(workload.Config{Seed: 11, Size: opts.InputKB * 1024})
	extInput := workload.JavaProgramExt(workload.Config{Seed: 11, Size: opts.InputKB * 1024})
	t := Table{
		ID:     "Table 4",
		Title:  "cost of modular composition (java.core vs java.full)",
		Header: []string{"measurement", "base (java.core)", "composed (java.full)"},
	}

	composeTime := func(top string) time.Duration {
		return measure(opts.MinTime, func() { grammars.Compose(top) })
	}
	t.Rows = append(t.Rows, []string{
		"compose time",
		composeTime(grammars.JavaCore).String(),
		composeTime(grammars.JavaFull).String(),
	})

	baseProg, err := buildProgram(grammars.JavaCore, transform.Defaults(), vm.Optimized())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	fullProg, err := buildProgram(grammars.JavaFull, transform.Defaults(), vm.Optimized())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	src := text.NewSource("bench", input)
	dBase := measure(opts.MinTime, func() { baseProg.Parse(src) })
	dFull := measure(opts.MinTime, func() { fullProg.Parse(src) })
	t.Rows = append(t.Rows, []string{
		"parse base-language corpus (MB/s)",
		mbPerSec(len(input), dBase),
		mbPerSec(len(input), dFull),
	})
	t.Rows = append(t.Rows, []string{
		"composition overhead on base corpus", "1.00x",
		fmt.Sprintf("%.2fx", float64(dFull)/float64(dBase)),
	})
	extSrc := text.NewSource("bench", extInput)
	dExt := measure(opts.MinTime, func() { fullProg.Parse(extSrc) })
	t.Rows = append(t.Rows, []string{
		"parse extended-language corpus (MB/s)", "n/a (rejects)",
		mbPerSec(len(extInput), dExt),
	})
	return t
}

// ---------------------------------------------------------------- table5

// allocsPerOp measures the mean heap allocations and bytes of one run of
// fn (after one warm-up run), independent of testing.B so the CLI can
// report it.
func allocsPerOp(fn func()) (allocs, bytes float64) {
	fn()
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs,
		float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// Table5 measures engine residency: what amortizing the parse session's
// memo storage across parses buys. One operation parses a corpus of
// distinct Java-subset files, either with a cold session per file (the
// allocate-everything-per-parse baseline), with pooled sessions
// (Program.Parse's steady state), with one explicit reused session, or
// fanned across GOMAXPROCS workers via the concurrent batch API.
func Table5(opts Options) Table {
	opts = opts.normalized()
	const nFiles = 16
	fileKB := opts.InputKB / 4
	if fileKB < 1 {
		fileKB = 1
	}
	var srcs []*text.Source
	var totalBytes int
	for i := 0; i < nFiles; i++ {
		in := workload.JavaProgram(workload.Config{Seed: int64(100 + i), Size: fileKB * 1024})
		totalBytes += len(in)
		srcs = append(srcs, text.NewSource(fmt.Sprintf("file%d", i), in))
	}
	workers := runtime.GOMAXPROCS(0)
	t := Table{
		ID:     "Table 5",
		Title:  fmt.Sprintf("engine residency (java.core, %d files x %d KB per op)", nFiles, fileKB),
		Header: []string{"configuration", "MB/s", "rel-time", "allocs/op", "allocKB/op"},
		Notes: []string{
			fmt.Sprintf("batch-parallel uses %d worker(s) (GOMAXPROCS)", workers),
			"one op = parse all files; cold builds a fresh session per file, the others recycle memo storage",
		},
	}
	prog, err := buildProgram(grammars.JavaCore, transform.Defaults(), vm.Optimized())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	session := prog.NewSession()
	configs := []struct {
		name string
		op   func()
	}{
		{"cold session per parse", func() {
			for _, src := range srcs {
				prog.NewSession().Parse(src)
			}
		}},
		{"pooled (Program.Parse)", func() {
			for _, src := range srcs {
				prog.Parse(src)
			}
		}},
		{"reused session", func() {
			for _, src := range srcs {
				session.Parse(src)
			}
		}},
		{"batch-parallel (ParseAll)", func() {
			prog.ParseAll(context.Background(), srcs, workers, vm.Limits{})
		}},
	}
	var base time.Duration
	for _, c := range configs {
		runtime.GC() // level the heap so earlier rows' garbage doesn't skew later ones
		d := measure(opts.MinTime, c.op)
		allocs, bytes := allocsPerOp(c.op)
		if base == 0 {
			base = d
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			mbPerSec(totalBytes, d),
			fmt.Sprintf("%.2fx", float64(d)/float64(base)),
			fmt.Sprintf("%.0f", allocs),
			fmt.Sprintf("%.0f", bytes/1024),
		})
	}
	return t
}

// ---------------------------------------------------------------- table7

// Table7 measures the resource-governance layer (vm.Limits): what
// governance costs when armed but idle, how fast a deadline stops an
// adversarial parse, and what memo-budget shedding degrades throughput
// to while keeping the footprint bounded. The serving-grade claims the
// table backs: governed-but-unlimited parsing is free, hostile inputs
// are stopped in bounded wall-clock time, and memory stays within the
// configured budget with the parse still completing.
func Table7(opts Options) Table {
	opts = opts.normalized()
	ctx := context.Background()
	input := workload.JavaProgram(workload.Config{Seed: 33, Size: opts.InputKB * 1024})
	src := text.NewSource("bench", input)
	t := Table{
		ID:     "Table 7",
		Title:  fmt.Sprintf("resource governance (java.core %d KB; adversarial inputs)", len(input)/1024),
		Header: []string{"scenario", "budget", "outcome", "MB/s", "detail"},
	}
	prog, err := buildProgram(grammars.JavaCore, transform.Defaults(), vm.Optimized())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}

	// Baseline vs armed-but-unlimited governance.
	_, full, err := prog.Parse(src)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	dPlain := measure(opts.MinTime, func() { prog.Parse(src) })
	t.Rows = append(t.Rows, []string{
		"ungoverned baseline", "-", "completes", mbPerSec(len(input), dPlain),
		fmt.Sprintf("memo %d KB", full.MemoBytes/1024),
	})
	dGov := measure(opts.MinTime, func() { prog.ParseRequest(ctx, src, vm.Request{}) })
	t.Rows = append(t.Rows, []string{
		"governed, zero limits", "-", "completes", mbPerSec(len(input), dGov),
		fmt.Sprintf("overhead %.2fx", float64(dGov)/float64(dPlain)),
	})

	// Memo-budget shedding: quarter of the corpus's natural footprint.
	budget := full.MemoBytes / 4
	session := prog.NewSession()
	_, shedStats, err := session.ParseRequest(ctx, src, vm.Request{Limits: vm.Limits{MaxMemoBytes: budget}})
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("shedding: %v", err))
	} else {
		dShed := measure(opts.MinTime, func() { session.ParseRequest(ctx, src, vm.Request{Limits: vm.Limits{MaxMemoBytes: budget}}) })
		t.Rows = append(t.Rows, []string{
			"memo budget (shedding)", fmt.Sprintf("%d KB", budget/1024),
			"completes degraded", mbPerSec(len(input), dShed),
			fmt.Sprintf("peak memo %d KB, sheds %d", shedStats.MemoBytes/1024, shedStats.MemoSheds),
		})
	}
	if _, _, err := prog.ParseRequest(ctx, src, vm.Request{Limits: vm.Limits{MaxMemoBytes: budget, Strict: true}}); err != nil {
		t.Rows = append(t.Rows, []string{
			"memo budget (strict)", fmt.Sprintf("%d KB", budget/1024),
			outcomeOf(err), "-", "-",
		})
	}

	// Depth limit against deep nesting.
	deep := text.NewSource("deep", workload.DeepExpression(20000))
	calcProg, err := buildProgram(grammars.CalcFull, transform.Defaults(), vm.Optimized())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	if _, _, err := calcProg.ParseRequest(ctx, deep, vm.Request{Limits: vm.Limits{MaxCallDepth: 256}}); err != nil {
		t.Rows = append(t.Rows, []string{
			"call depth, 20000-deep parens", "256", outcomeOf(err), "-", "-",
		})
	}

	// Deadline against exponential backtracking: report worst observed
	// abort latency over repeated 1ms-deadline parses.
	g, err := core.Compose("path", core.MapResolver{"path": workload.PathologicalGrammar})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	tg, _, err := transform.Apply(g, transform.Baseline())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	pathProg, err := vm.Compile(tg, vm.Backtracking())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	advSrc := text.NewSource("adversarial", workload.Pathological(40))
	var worst time.Duration
	var lastErr error
	for i := 0; i < 10; i++ {
		start := time.Now()
		_, _, lastErr = pathProg.ParseRequest(ctx, advSrc, vm.Request{Limits: vm.Limits{MaxParseDuration: time.Millisecond}})
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	t.Rows = append(t.Rows, []string{
		"1ms deadline, exponential backtracking", "1ms", outcomeOf(lastErr), "-",
		fmt.Sprintf("worst abort latency %s over 10 runs", worst.Round(10*time.Microsecond)),
	})
	t.Notes = append(t.Notes,
		"shedding keeps the parse running with the memo table frozen at the budget; strict converts the same event into an error")
	return t
}

// outcomeOf renders an error for a Table7 outcome cell.
func outcomeOf(err error) string {
	var le *vm.LimitError
	if errors.As(err, &le) {
		return fmt.Sprintf("limit error (%s)", le.Kind)
	}
	if err != nil {
		return err.Error()
	}
	return "completes"
}

// ------------------------------------------------------------- hotprods

// HotProds is the profile-backed hot-production experiment: where does
// the optimized engine actually spend its time on the Java corpus? The
// per-production profiler answers with self-time rankings — the
// engine-level analogue of the paper's "which optimization pays"
// tables, aimed at grammar authors ("which production to mark
// transient/inline next"). It also measures what the profiler itself
// costs against the uninstrumented engine, since an observability tool
// that distorts the workload lies about it.
func HotProds(opts Options) Table {
	opts = opts.normalized()
	input := workload.JavaProgram(workload.Config{Seed: 21, Size: opts.InputKB * 1024})
	src := text.NewSource("bench", input)
	t := Table{
		ID:     "HotProds",
		Title:  fmt.Sprintf("hot productions by self time (java.core, %d KB, optimized engine)", len(input)/1024),
		Header: []string{"production", "calls", "memo-hits", "self-ms", "cum-ms", "self%"},
	}
	prog, err := buildProgram(grammars.JavaCore, transform.Defaults(), vm.Optimized())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	pr := prog.NewProfiler()
	var stats vm.Stats
	const reps = 3
	for i := 0; i < reps; i++ {
		_, st, err := prog.ParseRequest(context.Background(), src, vm.Request{Hook: pr})
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			return t
		}
		stats.Add(st)
	}
	prof := pr.Profile()
	var totalSelf int64
	for i := range prof.Prods {
		totalSelf += prof.Prods[i].SelfNanos
	}
	for _, r := range prof.Top(10) {
		t.Rows = append(t.Rows, []string{
			r.Name,
			fmt.Sprint(r.Calls), fmt.Sprint(r.MemoHits),
			fmt.Sprintf("%.2f", float64(r.SelfNanos)/1e6),
			fmt.Sprintf("%.2f", float64(r.CumNanos)/1e6),
			fmt.Sprintf("%.1f", 100*float64(r.SelfNanos)/float64(totalSelf)),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"profile aggregates %d parses; total calls %d == engine stats calls %d",
		reps, prof.TotalCalls(), stats.Calls))
	dPlain := measure(opts.MinTime, func() { prog.Parse(src) })
	dProf := measure(opts.MinTime, func() { prog.ParseRequest(context.Background(), src, vm.Request{Hook: pr}) })
	t.Notes = append(t.Notes, fmt.Sprintf(
		"profiler overhead: %.2fx (%s plain, %s profiled per parse)",
		float64(dProf)/float64(dPlain), dPlain, dProf))
	return t
}

// ------------------------------------------------------------------ fig1

// Fig1 reports parse time per input byte across input sizes — the
// linear-time scaling series.
func Fig1(opts Options) Table {
	opts = opts.normalized()
	t := Table{
		ID:     "Fig 1",
		Title:  "time scaling with input size (java.core, optimized engine)",
		Header: []string{"input KB", "parse time", "ns/byte"},
	}
	prog, err := buildProgram(grammars.JavaCore, transform.Defaults(), vm.Optimized())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	for _, kb := range []int{4, 16, 64, 256} {
		input := workload.JavaProgram(workload.Config{Seed: 5, Size: kb * 1024})
		src := text.NewSource("bench", input)
		d := measure(opts.MinTime, func() { prog.Parse(src) })
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(len(input) / 1024),
			d.String(),
			fmt.Sprintf("%.1f", float64(d.Nanoseconds())/float64(len(input))),
		})
	}
	return t
}

// ------------------------------------------------------------------ fig2

// Fig2 reports the heap footprint of memoization per input byte.
func Fig2(opts Options) Table {
	opts = opts.normalized()
	t := Table{
		ID:     "Fig 2",
		Title:  "memoization heap per input byte (java.core)",
		Header: []string{"input KB", "configuration", "memoKB", "memoB/inputB"},
	}
	configs := []struct {
		name  string
		topts transform.Options
		eopts vm.Options
	}{
		{"naive packrat (map memo)", transform.Baseline(), vm.NaivePackrat()},
		{"optimized (chunks+transient)", transform.Defaults(), vm.Optimized()},
	}
	for _, kb := range []int{16, 64} {
		input := workload.JavaProgram(workload.Config{Seed: 9, Size: kb * 1024})
		src := text.NewSource("bench", input)
		for _, c := range configs {
			prog, err := buildProgram(grammars.JavaCore, c.topts, c.eopts)
			if err != nil {
				t.Notes = append(t.Notes, err.Error())
				continue
			}
			_, stats, err := prog.Parse(src)
			if err != nil {
				t.Notes = append(t.Notes, err.Error())
				continue
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(len(input) / 1024),
				c.name,
				fmt.Sprint(stats.MemoBytes / 1024),
				fmt.Sprintf("%.1f", float64(stats.MemoBytes)/float64(len(input))),
			})
		}
	}
	return t
}

// ------------------------------------------------------------------ fig3

// Fig3 demonstrates exponential backtracking vs linear packrat on the
// pathological grammar.
func Fig3(opts Options) Table {
	opts = opts.normalized()
	t := Table{
		ID:     "Fig 3",
		Title:  "pathological input: backtracking explodes, packrat stays linear",
		Header: []string{"depth", "engine", "production calls", "time"},
	}
	g, err := core.Compose("path", core.MapResolver{"path": workload.PathologicalGrammar})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	tg, _, err := transform.Apply(g, transform.Baseline())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	for _, depth := range []int{8, 12, 16, 20} {
		input := workload.Pathological(depth)
		src := text.NewSource("bench", input)
		for _, e := range []struct {
			name string
			opts vm.Options
		}{
			{"backtracking", vm.Backtracking()},
			{"packrat", vm.NaivePackrat()},
		} {
			prog, err := vm.Compile(tg, e.opts)
			if err != nil {
				t.Notes = append(t.Notes, err.Error())
				continue
			}
			_, stats, err := prog.Parse(src)
			if err != nil {
				t.Notes = append(t.Notes, err.Error())
				continue
			}
			d := measure(opts.MinTime/4, func() { prog.Parse(src) })
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(depth), e.name,
				fmt.Sprint(stats.Calls),
				d.String(),
			})
		}
	}
	return t
}

// ---------------------------------------------------------------- table8

// Table8 measures incremental reparsing over recycled memo tables on the
// Java-subset corpus: the cost of a from-scratch reparse of the edited
// text vs an incremental Document.Apply, for three edit shapes — one
// byte, one statement line, and a 10% paste — at input sizes from 4 KB
// to 256 KB. The measured Apply alternates an insertion with its exact
// inverse, so every iteration does real invalidation work against a warm
// document; the reuse counters come from the insertion step.
func Table8(opts Options) Table {
	opts = opts.normalized()
	t := Table{
		ID:    "Table 8",
		Title: "incremental reparse vs full reparse, java.core corpus",
		Header: []string{"inputKB", "edit", "full", "incremental", "speedup",
			"reused", "invalidated", "relocated"},
	}
	prog, err := buildProgram(grammars.JavaCore, transform.Defaults(), vm.Optimized())
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	sizes := []int{4, 16, 64, 256}
	if opts.InputKB < 16 {
		// Fast mode (tests): keep the shape, skip the slow upper rungs.
		sizes = sizes[:2]
	}
	for _, kb := range sizes {
		input := workload.JavaProgram(workload.Config{Seed: 8, Size: kb * 1024})
		for _, e := range []struct {
			name string
			p    workload.EditPair
		}{
			{"1 byte", workload.JavaEditByte(input)},
			{"1 line", workload.JavaEditLine(input)},
			{"10% paste", workload.JavaEditBlob(input, 0.10)},
		} {
			edited := input[:e.p.Insert.Off] + e.p.Insert.Text + input[e.p.Insert.Off:]
			editedSrc := text.NewSource("bench", edited)
			if _, _, err := prog.Parse(editedSrc); err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%dKB %s: %v", kb, e.name, err))
				continue
			}
			full := measureBest(opts.MinTime, func() { prog.Parse(editedSrc) })

			d := prog.NewDocument(text.NewSource("bench", input))
			if d.Err() != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%dKB %s: %v", kb, e.name, d.Err()))
				continue
			}
			pairTime := measureBest(opts.MinTime, func() {
				d.Apply(e.p.Insert)
				d.Apply(e.p.Delete)
			})
			incr := pairTime / 2
			_, stats, applyErr := d.Apply(e.p.Insert)
			if applyErr != nil || d.Err() != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%dKB %s: apply=%v parse=%v", kb, e.name, applyErr, d.Err()))
				continue
			}
			d.Apply(e.p.Delete)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(len(input) / 1024),
				e.name,
				full.Round(time.Microsecond).String(),
				incr.Round(time.Microsecond).String(),
				fmt.Sprintf("%.1fx", float64(full)/float64(incr)),
				fmt.Sprint(stats.MemoReused),
				fmt.Sprint(stats.MemoInvalidated),
				fmt.Sprint(stats.MemoRelocated),
			})
		}
	}
	t.Notes = append(t.Notes,
		"incremental = mean of an insert/inverse-delete pair on a warm document; counters from the insert")
	return t
}

// ---------------------------------------------------------------- table9

// Table9 quantifies the telemetry pipeline's overhead: bare governed
// stats with the metrics registry disabled, the default configuration
// (registry counters + latency/input histograms + per-grammar
// counters), and full Chrome trace-event export through a ParseHook.
func Table9(opts Options) Table {
	opts = opts.normalized()
	t := Table{
		ID:    "Table 9",
		Title: "telemetry overhead: bare stats vs metrics+histograms vs trace export",
		Header: []string{"grammar", "inputKB", "bare", "metrics", "traced",
			"metrics-over", "trace-over"},
	}
	prev := vm.SetTelemetry(true)
	defer vm.SetTelemetry(prev)
	for _, cfg := range []struct {
		top string
		gen func(workload.Config) string
	}{
		{grammars.CalcFull, workload.Expression},
		{grammars.JSON, workload.JSONDoc},
	} {
		prog, err := buildProgram(cfg.top, transform.Defaults(), vm.Optimized())
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		input := cfg.gen(workload.Config{Seed: 9, Size: opts.InputKB * 1024})
		src := text.NewSource("bench", input)
		if _, _, err := prog.Parse(src); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %v", cfg.top, err))
			continue
		}

		vm.SetTelemetry(false)
		bare := measure(opts.MinTime, func() { prog.Parse(src) })
		vm.SetTelemetry(true)
		withMetrics := measure(opts.MinTime, func() { prog.Parse(src) })
		traced := measure(opts.MinTime, func() {
			tr := telemetry.NewTrace(prog, io.Discard)
			prog.ParseRequest(context.Background(), src, vm.Request{Hook: tr})
			tr.Close()
		})

		over := func(base, d time.Duration) string {
			return fmt.Sprintf("%+.1f%%", (float64(d)-float64(base))/float64(base)*100)
		}
		t.Rows = append(t.Rows, []string{
			cfg.top,
			fmt.Sprint(len(input) / 1024),
			bare.Round(time.Microsecond).String(),
			withMetrics.Round(time.Microsecond).String(),
			traced.Round(time.Microsecond).String(),
			over(bare, withMetrics),
			over(bare, traced),
		})
	}
	t.Notes = append(t.Notes,
		"bare = SetTelemetry(false); metrics = default registry+histograms; traced = Chrome trace-event hook to io.Discard")
	return t
}

// --------------------------------------------------------------- table11

// Table11 measures end-to-end service capacity: the loadbench harness
// drives an in-process serve instance (closed loop, fixed worker
// count) under three traffic shapes and reports throughput and
// client-side latency quantiles. The contrast between "full" and
// "omit-values" isolates AST-serialization cost from parse cost; the
// contrast with "no-adversarial" shows what the worst-case corpus
// items cost the mix.
func Table11(opts Options) Table {
	opts = opts.normalized()
	t := Table{
		ID:     "Table 11",
		Title:  "serve capacity: closed-loop RPS and latency by traffic shape",
		Header: []string{"traffic", "rps", "p50", "p99", "p99.9", "requests", "errors"},
	}
	s, err := serve.New(serve.Config{
		Limits: vm.Limits{
			MaxInputBytes:    4 << 20,
			MaxMemoBytes:     64 << 20,
			MaxCallDepth:     100000,
			MaxParseDuration: 5 * time.Second,
		},
	})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	srvCtx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Serve(srvCtx, ln); close(done) }()
	defer func() {
		stop()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
		}
	}()
	base := "http://" + ln.Addr().String()

	phaseDur := 4 * opts.MinTime
	if phaseDur < 200*time.Millisecond {
		phaseDur = 200 * time.Millisecond
	}
	for _, cfg := range []struct {
		label       string
		adversarial bool
		omitValues  bool
	}{
		{"full corpus", true, false},
		{"omit-values", true, true},
		{"no-adversarial", false, false},
	} {
		rep, err := loadbench.Run(context.Background(), loadbench.Config{
			BaseURL:    base,
			Corpus:     loadbench.DefaultCorpus(cfg.adversarial),
			Mode:       loadbench.ModeClosed,
			Workers:    8,
			Duration:   phaseDur,
			Seed:       11,
			OmitValues: cfg.omitValues,
			Warmup:     phaseDur / 4,
		})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %v", cfg.label, err))
			continue
		}
		ph := rep.Phases[0]
		t.Rows = append(t.Rows, []string{
			cfg.label,
			fmt.Sprintf("%.0f", ph.AchievedRPS),
			time.Duration(ph.P50NS).Round(10 * time.Microsecond).String(),
			time.Duration(ph.P99NS).Round(10 * time.Microsecond).String(),
			time.Duration(ph.P999NS).Round(10 * time.Microsecond).String(),
			fmt.Sprint(ph.Sent),
			fmt.Sprint(ph.Unexpected),
		})
	}
	t.Notes = append(t.Notes,
		"closed loop, 8 workers, in-process server; DefaultCorpus mixes calc.full/json.value/java.core across 64B-64KB plus adversarial deep/huge/syntax-error items",
		"omit-values sets ParseRequest.OmitValue: parse capacity without AST serialization and transfer",
		"saturation search under an SLO: modpeg loadtest -mode ramp")
	return t
}
