// Command modpeg is the command-line front end of the modular-PEG parser
// toolkit: it composes module grammars, reports their statistics, checks
// them, parses inputs, and generates standalone Go parsers.
//
// Usage:
//
//	modpeg modules
//	modpeg stats   [-d dir] <top-module>
//	modpeg print   [-d dir] [-optimized] <top-module>
//	modpeg check   [-d dir] <top-module>
//	modpeg parse   [-d dir] [-indent] [-stats] [-timeout d] [-max-memo n] <top-module> [file]
//	modpeg generate [-d dir] [-pkg name] [-o file] <top-module>
//	modpeg serve   [-addr host:port] [-grammars a,b] [-timeout d] [...]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"modpeg"
	"modpeg/internal/core"
	"modpeg/internal/experiments"
	"modpeg/internal/grammars"
	"modpeg/internal/loadbench"
	"modpeg/internal/peg"
	"modpeg/internal/registry"
	"modpeg/internal/serve"
	"modpeg/internal/syntax"
	"modpeg/internal/vm"
	"modpeg/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "modules":
		err = cmdModules(stdout)
	case "stats":
		err = cmdStats(rest, stdout)
	case "print":
		err = cmdPrint(rest, stdout)
	case "check":
		err = cmdCheck(rest, stdout)
	case "parse":
		err = cmdParse(rest, stdin, stdout)
	case "profile":
		err = cmdProfile(rest, stdin, stdout)
	case "generate":
		err = cmdGenerate(rest, stdout)
	case "experiment":
		err = cmdExperiment(rest, stdout)
	case "serve":
		err = cmdServe(rest, stderr)
	case "loadtest":
		err = cmdLoadtest(rest, stdout, stderr)
	case "fmt":
		err = cmdFmt(rest, stdin, stdout)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "modpeg: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "modpeg: %v\n", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `modpeg — modular PEG parser toolkit

commands:
  modules                          list bundled grammar modules
  stats    [-d dir] <top>          per-module and composed grammar statistics
  print    [-d dir] [-optimized] <top>
                                   print the composed grammar
  check    [-d dir] <top>          compose and run the static checks
  parse    [-d dir] [-engine name] [-indent] [-stats] [-profile]
           [-pgo profile.json] [-trace-json file] [-timeout d]
           [-max-memo n] [-max-depth n] [-strict]
           [-incremental -edits script] <top> [file]
                                   parse a file (or stdin) and print the AST,
                                   optionally under resource limits, through
                                   an incremental edit script, exporting a
                                   Chrome trace-event file, on a selected
                                   engine (-engine compiled runs the
                                   closure-compiled engine), or recompiled
                                   with profile-guided inlining (-pgo takes
                                   the JSON written by profile -json)
  profile  [-d dir] [-n reps] [-top n] [-json] [-metrics] [-trace-json file]
           [-gen kb] <top> [file]
                                   profile parses of a file (or stdin, or a
                                   generated corpus) per production
  generate [-d dir] [-pkg p] [-o file] <top>
                                   emit a standalone Go parser
  experiment [-kb n] [-mintime d] <table1..table5|table7..table9|table11|limits|fig1..fig3|hotprods|all>
                                   run the paper-reproduction experiments
  serve    [-addr host:port] [-grammars a,b] [-d dir] [-timeout d] [-max-input n]
           [-max-memo n] [-max-depth n] [-strict] [-max-body n] [-pprof] [-quiet]
           [-registry-dir dir] [-max-tenants n]
                                   run the HTTP parse service: POST /parse,
                                   GET /metrics (Prometheus), /healthz, /readyz,
                                   and the multi-tenant grammar registry
                                   (upload, hot-swap, pin, roll back grammar
                                   versions under /grammars)
  loadtest [-url http://host:port] [-mode closed|open|ramp] [-workers n] [-rps r]
           [-duration d] [-ramp-start r] [-ramp-step r] [-ramp-max r] [-step d]
           [-slo-p99 d] [-slo-errors f] [-seed n] [-warmup d] [-no-adversarial]
           [-tenants n] [-omit-values] [-no-scrape] [-json file] [-min-rps r]
           [-max-p99 d]
                                   drive a serve endpoint (or a spawned
                                   in-process server) with mixed-grammar
                                   traffic and report latency quantiles,
                                   throughput, error breakdown, and server
                                   telemetry; -min-rps/-max-p99 gate CI
  fmt      [-w] [file...]          reformat .mpeg module files (stdin without args)
`)
}

// moduleOpts builds the option list shared by all grammar-loading
// commands.
func moduleOpts(dir string) []modpeg.Option {
	var opts []modpeg.Option
	if dir != "" {
		opts = append(opts, modpeg.WithModuleDir(dir))
	}
	return opts
}

func cmdModules(w io.Writer) error {
	names := grammars.ModuleNames()
	sort.Strings(names)
	tops := map[string]bool{}
	for _, t := range grammars.TopModules() {
		tops[t] = true
	}
	for _, n := range names {
		mark := " "
		if tops[n] {
			mark = "*"
		}
		fmt.Fprintf(w, "%s %s\n", mark, n)
	}
	fmt.Fprintln(w, "\n(* = composable top module)")
	return nil
}

func cmdStats(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	dir := fs.String("d", "", "module directory")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		return fmt.Errorf("usage: modpeg stats [-d dir] <top-module>")
	}
	top := fs.Arg(0)

	p, err := modpeg.New(top, moduleOpts(*dir)...)
	if err != nil {
		return err
	}
	// Per-module statistics require the raw modules.
	resolver := resolverFor(*dir)
	fmt.Fprintln(w, peg.ModuleStatsHeader())
	for _, name := range p.Modules() {
		base := name
		if i := strings.IndexByte(base, '<'); i >= 0 {
			base = base[:i]
		}
		src, err := resolver.Resolve(base)
		if err != nil {
			continue
		}
		m, err := syntax.Parse(src)
		if err != nil {
			continue
		}
		st := peg.StatsOf(m)
		st.Module = name
		fmt.Fprintln(w, st.Row())
	}
	fmt.Fprintf(w, "\ncomposed: %s\n", p.Stats())
	fmt.Fprintf(w, "optimized: %s\n", p.OptimizedStats())
	fmt.Fprintf(w, "\noptimization report:\n%s", p.OptimizationReport())
	return nil
}

func resolverFor(dir string) core.Resolver {
	if dir == "" {
		return grammars.Resolver()
	}
	return core.MultiResolver{core.DirResolver{Dir: dir}, grammars.Resolver()}
}

func cmdPrint(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("print", flag.ContinueOnError)
	dir := fs.String("d", "", "module directory")
	optimized := fs.Bool("optimized", false, "print the optimized grammar")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		return fmt.Errorf("usage: modpeg print [-d dir] [-optimized] <top-module>")
	}
	p, err := modpeg.New(fs.Arg(0), moduleOpts(*dir)...)
	if err != nil {
		return err
	}
	if *optimized {
		fmt.Fprint(w, p.OptimizedGrammar())
	} else {
		fmt.Fprint(w, p.Grammar())
	}
	return nil
}

func cmdCheck(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	dir := fs.String("d", "", "module directory")
	lint := fs.Bool("lint", false, "also report non-fatal grammar smells")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		return fmt.Errorf("usage: modpeg check [-d dir] [-lint] <top-module>")
	}
	p, err := modpeg.New(fs.Arg(0), moduleOpts(*dir)...)
	if err != nil {
		return err
	}
	if err := p.Check(); err != nil {
		return err
	}
	if *lint {
		for _, warning := range p.Lint() {
			fmt.Fprintf(w, "lint: %s\n", warning)
		}
	}
	s := p.Stats()
	fmt.Fprintf(w, "ok: %d modules, %d productions, %d alternatives\n",
		s.Modules, s.Productions, s.Alternatives)
	return nil
}

func cmdParse(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("parse", flag.ContinueOnError)
	dir := fs.String("d", "", "module directory")
	indent := fs.Bool("indent", false, "print the AST as an indented tree")
	asJSON := fs.Bool("json", false, "print the AST as JSON")
	withStats := fs.Bool("stats", false, "print engine statistics")
	withTrace := fs.Bool("trace", false, "stream a production-call trace before the AST")
	traceJSON := fs.String("trace-json", "", "write a Chrome trace-event (Perfetto) JSON file of the parse")
	withProfile := fs.Bool("profile", false, "print the top-10 hot productions after the AST")
	timeout := fs.Duration("timeout", 0, "abort the parse after this wall-clock duration (0 = unlimited)")
	maxMemo := fs.Int("max-memo", 0, "memo-table budget in bytes; the engine sheds memoization past it (0 = unlimited)")
	maxDepth := fs.Int("max-depth", 0, "production-call depth limit (0 = unlimited)")
	strict := fs.Bool("strict", false, "fail when the memo budget is hit instead of shedding memoization")
	incremental := fs.Bool("incremental", false, "parse as an editable document and replay the -edits script incrementally")
	editsPath := fs.String("edits", "", "edit script for -incremental: lines \"@off oldLen [\\\"text\\\"]\", blank-line-separated batches")
	pgoPath := fs.String("pgo", "", "profile report (modpeg profile -json) enabling profile-guided inlining")
	engine := fs.String("engine", "optimized", "parse engine: optimized, compiled, naive-packrat, or backtracking")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil || fs.NArg() < 1 || fs.NArg() > 2 {
		return fmt.Errorf("usage: modpeg parse [-d dir] [-engine name] [-indent] [-stats] [-profile] [-pgo profile.json] [-trace-json file] [-timeout d] [-max-memo n] [-max-depth n] [-strict] [-incremental -edits script] <top-module> [file]")
	}
	opts := moduleOpts(*dir)
	e, err := modpeg.EngineByName(*engine)
	if err != nil {
		return err
	}
	if *pgoPath != "" {
		data, rerr := os.ReadFile(*pgoPath)
		if rerr != nil {
			return rerr
		}
		pgo, perr := modpeg.LoadPGO(data)
		if perr != nil {
			return perr
		}
		e.PGO = pgo
	}
	if *engine != "optimized" || *pgoPath != "" {
		opts = append(opts, modpeg.WithEngine(e))
	}
	p, err := modpeg.New(fs.Arg(0), opts...)
	if err != nil {
		return err
	}

	name := "<stdin>"
	var input []byte
	if fs.NArg() == 2 {
		name = fs.Arg(1)
		input, err = os.ReadFile(name)
	} else {
		input, err = io.ReadAll(stdin)
	}
	if err != nil {
		return err
	}

	lim := modpeg.Limits{
		MaxParseDuration: *timeout,
		MaxMemoBytes:     *maxMemo,
		MaxCallDepth:     *maxDepth,
		Strict:           *strict,
	}
	governed := lim != (modpeg.Limits{})

	if *incremental {
		if *editsPath == "" {
			return fmt.Errorf("parse: -incremental requires -edits <script>")
		}
		if *withTrace || *withProfile || *traceJSON != "" || governed {
			return fmt.Errorf("parse: -incremental is mutually exclusive with -trace, -profile, -trace-json, and resource limits")
		}
		return parseIncremental(p, name, string(input), *editsPath, w, *withStats, *indent, *asJSON)
	}
	if *editsPath != "" {
		return fmt.Errorf("parse: -edits requires -incremental")
	}

	// The flags pick only the hook; limits and -stats apply to every
	// parse alike.
	var hook modpeg.ParseHook
	var prof *modpeg.Profiler
	var trace *modpeg.TraceExporter
	switch {
	case *traceJSON != "":
		if *withTrace || *withProfile {
			return fmt.Errorf("parse: -trace-json is mutually exclusive with -trace and -profile")
		}
		f, ferr := os.Create(*traceJSON)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		trace = p.NewTraceJSON(f)
		hook = trace
	case *withTrace:
		hook = p.NewCallTrace(w)
	case *withProfile:
		prof = p.NewProfiler()
		hook = prof
	}
	v, stats, err := p.ParseRequest(context.Background(), name, string(input), modpeg.Request{Limits: lim, Hook: hook})
	if trace != nil {
		if cerr := trace.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		if pe, ok := err.(*vm.ParseError); ok {
			return fmt.Errorf("%s", pe.Detail())
		}
		return err
	}
	switch {
	case *asJSON:
		out, err := modpeg.ValueToJSON(v)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	case *indent:
		fmt.Fprint(w, modpeg.IndentValue(v))
	default:
		fmt.Fprintln(w, modpeg.FormatValue(v))
	}
	if *withStats {
		fmt.Fprintf(w, "stats: %s\n", stats)
	}
	if trace != nil {
		fmt.Fprintf(w, "trace: %d events written to %s\n", trace.Events(), *traceJSON)
	}
	if prof != nil {
		fmt.Fprintf(w, "\nhot productions:\n%s", prof.Profile().Report(10))
	}
	return nil
}

// teeHook fans one parse's hook events out to two hooks — how
// `profile -trace-json` profiles and trace-exports the same parses.
type teeHook struct {
	a, b modpeg.ParseHook
}

func (t teeHook) OnEnter(prod, pos int) { t.a.OnEnter(prod, pos); t.b.OnEnter(prod, pos) }
func (t teeHook) OnExit(prod, pos, end int, ok bool) {
	t.a.OnExit(prod, pos, end, ok)
	t.b.OnExit(prod, pos, end, ok)
}
func (t teeHook) OnMemoHit(prod, pos, end int, ok bool) {
	t.a.OnMemoHit(prod, pos, end, ok)
	t.b.OnMemoHit(prod, pos, end, ok)
}
func (t teeHook) OnFail(prod, pos int) { t.a.OnFail(prod, pos); t.b.OnFail(prod, pos) }

// parseIncremental runs `parse -incremental -edits <script>`: the input
// becomes an editable document, each batch of the edit script is applied
// with an incremental reparse, and the final document's AST (or error)
// is printed exactly as a plain parse would print it. With -stats, one
// statistics line per apply shows the reuse counters.
func parseIncremental(p *modpeg.Parser, name, input, editsPath string, w io.Writer, withStats, indent, asJSON bool) error {
	script, err := os.ReadFile(editsPath)
	if err != nil {
		return err
	}
	batches, err := parseEditScript(string(script))
	if err != nil {
		return err
	}
	d := p.NewDocument(name, input)
	if withStats {
		fmt.Fprintf(w, "parse: %s\n", d.Stats())
	}
	for i, batch := range batches {
		_, stats, err := d.Apply(batch...)
		if err != nil && d.Err() == nil {
			// Rejected edits (parse errors show up as d.Err() instead and
			// are legitimate intermediate states).
			return fmt.Errorf("edit batch %d: %w", i+1, err)
		}
		if withStats {
			outcome := "ok"
			if d.Err() != nil {
				outcome = "syntax error"
			}
			fmt.Fprintf(w, "apply %d (%d edits, %s): %s\n", i+1, len(batch), outcome, stats)
		}
	}
	if d.Err() != nil {
		if pe, ok := d.Err().(*vm.ParseError); ok {
			return fmt.Errorf("%s", pe.Detail())
		}
		return d.Err()
	}
	switch {
	case asJSON:
		out, err := modpeg.ValueToJSON(d.Value())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	case indent:
		fmt.Fprint(w, modpeg.IndentValue(d.Value()))
	default:
		fmt.Fprintln(w, modpeg.FormatValue(d.Value()))
	}
	return nil
}

// parseEditScript reads the -edits format: one edit per line as
//
//	@<off> <oldLen> ["<replacement>"]
//
// with the replacement in Go string-literal syntax (omitted for pure
// deletions). Offsets are bytes into the text as it stands before the
// line's batch. Consecutive edit lines form one batch applied atomically;
// a blank line ends the batch. Lines starting with # are comments.
func parseEditScript(src string) ([][]modpeg.Edit, error) {
	var batches [][]modpeg.Edit
	var cur []modpeg.Edit
	flush := func() {
		if len(cur) > 0 {
			batches = append(batches, cur)
			cur = nil
		}
	}
	for i, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			flush()
			continue
		case strings.HasPrefix(line, "#"):
			continue
		case !strings.HasPrefix(line, "@"):
			return nil, fmt.Errorf("edit script line %d: want '@off oldLen [\"text\"]', got %q", i+1, line)
		}
		rest := strings.TrimSpace(line[1:])
		parts := strings.SplitN(rest, " ", 3)
		if len(parts) < 2 {
			return nil, fmt.Errorf("edit script line %d: want '@off oldLen [\"text\"]', got %q", i+1, line)
		}
		off, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("edit script line %d: bad offset %q", i+1, parts[0])
		}
		oldLen, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("edit script line %d: bad oldLen %q", i+1, parts[1])
		}
		text := ""
		if len(parts) == 3 && strings.TrimSpace(parts[2]) != "" {
			text, err = strconv.Unquote(strings.TrimSpace(parts[2]))
			if err != nil {
				return nil, fmt.Errorf("edit script line %d: bad replacement %q: %v", i+1, parts[2], err)
			}
		}
		cur = append(cur, modpeg.Edit{Off: off, OldLen: oldLen, NewLen: len(text), Text: text})
	}
	flush()
	return batches, nil
}

// cmdProfile parses an input repeatedly under the per-production
// profiler and reports the aggregate: the hot-production table (or its
// JSON encoding) whose call counts sum to the engine's Stats.Calls.
func cmdProfile(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	dir := fs.String("d", "", "module directory")
	reps := fs.Int("n", 1, "number of repeat parses to aggregate")
	top := fs.Int("top", 0, "limit the table to the top n productions (0 = all active)")
	asJSON := fs.Bool("json", false, "emit the profile as JSON")
	withMetrics := fs.Bool("metrics", false, "also print the engine metrics registry snapshot")
	traceJSON := fs.String("trace-json", "", "also write a Chrome trace-event (Perfetto) JSON file of the profiled parses")
	genKB := fs.Int("gen", 0, "profile a generated synthetic corpus of this many KB instead of reading input")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil || fs.NArg() < 1 || fs.NArg() > 2 {
		return fmt.Errorf("usage: modpeg profile [-d dir] [-n reps] [-top n] [-json] [-metrics] [-trace-json file] [-gen kb] <top-module> [file]")
	}
	if *reps < 1 {
		return fmt.Errorf("profile: -n must be at least 1")
	}
	top_ := fs.Arg(0)
	p, err := modpeg.New(top_, moduleOpts(*dir)...)
	if err != nil {
		return err
	}

	name := "<stdin>"
	var input []byte
	switch {
	case *genKB > 0:
		if fs.NArg() == 2 {
			return fmt.Errorf("profile: -gen and a file argument are mutually exclusive")
		}
		text, err := syntheticCorpus(top_, *genKB)
		if err != nil {
			return err
		}
		name = fmt.Sprintf("<generated %dKB>", *genKB)
		input = []byte(text)
	case fs.NArg() == 2:
		name = fs.Arg(1)
		input, err = os.ReadFile(name)
	default:
		input, err = io.ReadAll(stdin)
	}
	if err != nil {
		return err
	}

	profiler := p.NewProfiler()
	var hook modpeg.ParseHook = profiler
	var trace *modpeg.TraceExporter
	if *traceJSON != "" {
		f, ferr := os.Create(*traceJSON)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		trace = p.NewTraceJSON(f)
		hook = teeHook{profiler, trace}
	}
	var stats modpeg.ParseStats
	for i := 0; i < *reps; i++ {
		_, st, err := p.ParseRequest(context.Background(), name, string(input), modpeg.Request{Hook: hook})
		if err != nil {
			if trace != nil {
				trace.Close()
			}
			if pe, ok := err.(*vm.ParseError); ok {
				return fmt.Errorf("%s", pe.Detail())
			}
			return err
		}
		stats.Add(st)
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			return err
		}
	}
	total := *profiler.Profile()

	if *asJSON {
		out, err := total.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(out))
	} else {
		fmt.Fprintf(w, "profile: %s, %d parse(s) of %s (%d bytes)\n\n", top_, *reps, name, len(input))
		fmt.Fprint(w, total.Report(*top))
		fmt.Fprintf(w, "\nstats: %s\n", stats)
		if trace != nil {
			fmt.Fprintf(w, "trace: %d events written to %s\n", trace.Events(), *traceJSON)
		}
	}
	if *withMetrics {
		out, err := modpeg.Metrics().JSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nengine metrics:\n%s\n", string(out))
	}
	return nil
}

// syntheticCorpus generates a deterministic workload for the bundled
// language families so `modpeg profile -gen` needs no input file.
func syntheticCorpus(top string, kb int) (string, error) {
	cfg := workload.Config{Seed: 7, Size: kb * 1024}
	switch {
	case strings.HasPrefix(top, "java"):
		return workload.JavaProgram(cfg), nil
	case strings.HasPrefix(top, "c."), top == "c":
		return workload.CProgram(cfg), nil
	case strings.HasPrefix(top, "json"):
		return workload.JSONDoc(cfg), nil
	case strings.HasPrefix(top, "calc"):
		return workload.Expression(cfg), nil
	}
	return "", fmt.Errorf("profile: no synthetic workload for module %q (have java*, c*, json*, calc*)", top)
}

func cmdGenerate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	dir := fs.String("d", "", "module directory")
	pkg := fs.String("pkg", "parser", "generated package name")
	out := fs.String("o", "", "output file (default stdout)")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		return fmt.Errorf("usage: modpeg generate [-d dir] [-pkg name] [-o file] <top-module>")
	}
	p, err := modpeg.New(fs.Arg(0), moduleOpts(*dir)...)
	if err != nil {
		return err
	}
	src, err := p.GenerateGo(*pkg)
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = w.Write(src)
		return err
	}
	return os.WriteFile(*out, src, 0o644)
}

func cmdFmt(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("fmt", flag.ContinueOnError)
	write := fs.Bool("w", false, "write the result back to the file")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("usage: modpeg fmt [-w] [file...]")
	}
	if fs.NArg() == 0 {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		m, err := syntax.ParseString("<stdin>", string(data))
		if err != nil {
			return err
		}
		fmt.Fprint(w, peg.FormatModule(m))
		return nil
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		m, err := syntax.ParseString(path, string(data))
		if err != nil {
			return err
		}
		out := peg.FormatModule(m)
		if *write {
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				return err
			}
			continue
		}
		fmt.Fprint(w, out)
	}
	return nil
}

// cmdServe runs the HTTP parse service until SIGTERM/SIGINT, then
// drains in-flight requests and exits.
func cmdServe(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8317", "listen address")
	dir := fs.String("d", "", "module directory")
	grammarList := fs.String("grammars", "", "comma-separated top modules to serve (default: all bundled)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request parse deadline (0 = unlimited)")
	maxInput := fs.Int("max-input", 4<<20, "per-request input-size limit in bytes (0 = unlimited)")
	maxMemo := fs.Int("max-memo", 64<<20, "per-request memo-table budget in bytes (0 = unlimited)")
	maxDepth := fs.Int("max-depth", 100000, "per-request production-call depth limit (0 = unlimited)")
	strict := fs.Bool("strict", false, "fail requests that hit the memo budget instead of shedding memoization")
	maxBody := fs.Int64("max-body", 0, "request-body cap in bytes (0 = 8 MiB)")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	quiet := fs.Bool("quiet", false, "disable structured request and parse logging")
	registryDir := fs.String("registry-dir", "", "persist uploaded grammar versions in this directory (empty = in-memory registry)")
	engine := fs.String("engine", "optimized", "engine for bundled/module-dir grammars: optimized or compiled (registry uploads choose per grammar)")
	maxTenants := fs.Int("max-tenants", 0, "cap on registry tenant namespaces (0 = 64)")
	sampleEvery := fs.Int("sample-every", 0, "profile 1 in n parses of the statically served grammars (0 = off; registry tenants set their own rate per upload)")
	slowParse := fs.Duration("slow-parse", 0, "flight-recorder latency threshold (0 = 250ms default)")
	flightRecords := fs.Int("flight-records", 0, "flight-recorder ring capacity (0 = 256)")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil || fs.NArg() != 0 {
		return fmt.Errorf("usage: modpeg serve [-addr host:port] [-grammars a,b] [-d dir] [-engine name] [-timeout d] [-max-input n] [-max-memo n] [-max-depth n] [-strict] [-max-body n] [-pprof] [-quiet] [-registry-dir dir] [-max-tenants n] [-sample-every n] [-slow-parse d] [-flight-records n]")
	}
	served := modpeg.BundledGrammars()
	if *grammarList != "" {
		served = nil
		for _, g := range strings.Split(*grammarList, ",") {
			if g = strings.TrimSpace(g); g != "" {
				served = append(served, g)
			}
		}
	}
	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewJSONHandler(stderr, nil))
	}
	limits := modpeg.Limits{
		MaxInputBytes:    *maxInput,
		MaxMemoBytes:     *maxMemo,
		MaxCallDepth:     *maxDepth,
		MaxParseDuration: *timeout,
		Strict:           *strict,
	}
	reg, err := registry.New(registry.Config{
		Dir:           *registryDir,
		MaxTenants:    *maxTenants,
		DefaultLimits: limits,
		ModuleDir:     *dir,
	})
	if err != nil {
		return err
	}
	s, err := serve.New(serve.Config{
		Grammars:      served,
		Engine:        *engine,
		ModuleDir:     *dir,
		Limits:        limits,
		MaxBodyBytes:  *maxBody,
		Logger:        logger,
		EnablePprof:   *pprofFlag,
		Registry:      reg,
		SampleEvery:   *sampleEvery,
		SlowParse:     *slowParse,
		FlightRecords: *flightRecords,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return s.ListenAndServe(ctx, *addr)
}

// cmdLoadtest drives a serve endpoint with the loadbench capacity
// harness and prints the report. Without -url it spawns an in-process
// server on an ephemeral port (all bundled grammars, serve's default
// limits), so a single command is a self-contained capacity check.
// -min-rps and -max-p99 are regression gates on the gate phase (the
// last SLO-passing phase): a violation is a non-zero exit.
func cmdLoadtest(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	url := fs.String("url", "", "serve endpoint to drive (default: spawn an in-process server)")
	dir := fs.String("d", "", "module directory for the spawned server")
	mode := fs.String("mode", "closed", "load mode: closed | open | ramp")
	workers := fs.Int("workers", 8, "closed-loop workers / open-loop in-flight cap")
	rps := fs.Float64("rps", 0, "open-loop target arrival rate (requests/s)")
	duration := fs.Duration("duration", 10*time.Second, "phase duration")
	rampStart := fs.Float64("ramp-start", 50, "ramp mode: first target RPS")
	rampStep := fs.Float64("ramp-step", 50, "ramp mode: RPS increment per step")
	rampMax := fs.Float64("ramp-max", 1000, "ramp mode: highest target RPS")
	stepDur := fs.Duration("step", 0, "ramp mode: per-step duration (default: -duration)")
	sloP99 := fs.Duration("slo-p99", 50*time.Millisecond, "SLO: p99 latency ceiling (0 disables)")
	sloErr := fs.Float64("slo-errors", 0.001, "SLO: tolerated unexpected-error rate")
	seed := fs.Int64("seed", 1, "corpus shuffle seed")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "unmeasured warmup burst (0 = none)")
	plain := fs.Bool("no-adversarial", false, "drop the adversarial corpus items")
	tenants := fs.Int("tenants", 0, "mixed-tenant mode: register the corpus grammars for n tenants and spread traffic across them (needs a registry-enabled server)")
	omitValues := fs.Bool("omit-values", false, "ask the server to drop ASTs from responses (parse capacity, not transfer capacity)")
	noScrape := fs.Bool("no-scrape", false, "skip the /metrics correlation scrapes")
	jsonOut := fs.String("json", "", "write the LOADTEST.json artifact to this file")
	minRPS := fs.Float64("min-rps", 0, "gate: fail if the gate phase achieved less RPS")
	maxP99 := fs.Duration("max-p99", 0, "gate: fail if the gate phase p99 exceeds this")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil || fs.NArg() != 0 {
		return fmt.Errorf("usage: modpeg loadtest [-url http://host:port] [-d dir] [-mode closed|open|ramp] [-workers n] [-rps r] [-duration d] [-ramp-start r] [-ramp-step r] [-ramp-max r] [-step d] [-slo-p99 d] [-slo-errors f] [-seed n] [-warmup d] [-no-adversarial] [-tenants n] [-omit-values] [-no-scrape] [-json file] [-min-rps r] [-max-p99 d]")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := *url
	if base == "" {
		limits := modpeg.Limits{
			MaxInputBytes:    4 << 20,
			MaxMemoBytes:     64 << 20,
			MaxCallDepth:     100000,
			MaxParseDuration: 5 * time.Second,
		}
		reg, err := registry.New(registry.Config{DefaultLimits: limits, ModuleDir: *dir})
		if err != nil {
			return err
		}
		// The spawned server runs with tail forensics on: a lowered
		// slow-parse threshold so the report's worst_requests section
		// catches the corpus's adversarial tail, and 1-in-100 sampling
		// so those records carry hot-production rows.
		s, err := serve.New(serve.Config{
			ModuleDir:   *dir,
			Limits:      limits,
			Registry:    reg,
			SampleEvery: 100,
			SlowParse:   100 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srvCtx, srvStop := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() { s.Serve(srvCtx, ln); close(done) }()
		// The spawned server is disposable: give its graceful drain a
		// moment, but don't hold the report hostage to slow in-flight
		// parses the load generator already abandoned.
		defer func() {
			srvStop()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
			}
		}()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stderr, "loadtest: spawned in-process server at %s\n", base)
	}

	rep, err := loadbench.Run(ctx, loadbench.Config{
		BaseURL:  base,
		Corpus:   loadbench.DefaultCorpus(!*plain),
		Mode:     *mode,
		Workers:  *workers,
		RPS:      *rps,
		Duration: *duration,
		Ramp: loadbench.RampConfig{
			StartRPS: *rampStart, StepRPS: *rampStep, MaxRPS: *rampMax,
			StepDuration: *stepDur,
		},
		SLO:           loadbench.SLO{MaxP99: *sloP99, MaxErrorRate: *sloErr},
		Seed:          *seed,
		OmitValues:    *omitValues,
		Tenants:       *tenants,
		Warmup:        *warmup,
		ScrapeMetrics: !*noScrape,
	})
	if err != nil {
		return err
	}
	if err := rep.WriteText(stdout); err != nil {
		return err
	}
	if *jsonOut != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "loadtest: wrote %s\n", *jsonOut)
	}

	gp := rep.GatePhase()
	if gp == nil {
		return fmt.Errorf("loadtest: no phases completed")
	}
	var gateErrs []string
	if *minRPS > 0 && gp.AchievedRPS < *minRPS {
		gateErrs = append(gateErrs, fmt.Sprintf("achieved %.1f RPS < gate %.1f (phase %s)",
			gp.AchievedRPS, *minRPS, gp.Label))
	}
	if *maxP99 > 0 && gp.P99NS > int64(*maxP99) {
		gateErrs = append(gateErrs, fmt.Sprintf("p99 %s > gate %s (phase %s)",
			time.Duration(gp.P99NS), *maxP99, gp.Label))
	}
	// The SLO verdict is the exit code only in ramp mode, where it
	// drives the saturation search; closed/open runs are measurements,
	// gated solely by the explicit -min-rps / -max-p99 floors.
	if *mode == loadbench.ModeRamp && !rep.Pass {
		gateErrs = append(gateErrs, "SLO verdict: FAIL")
	}
	if len(gateErrs) > 0 {
		return fmt.Errorf("loadtest gates failed: %s", strings.Join(gateErrs, "; "))
	}
	return nil
}

func cmdExperiment(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	kb := fs.Int("kb", 40, "corpus size in KB for throughput experiments")
	minTime := fs.Duration("mintime", 300*time.Millisecond, "measurement window per configuration")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		return fmt.Errorf("usage: modpeg experiment [-kb n] [-mintime d] <table1..table5|table7..table9|table11|limits|fig1..fig3|hotprods|all>")
	}
	opts := experiments.Options{InputKB: *kb, MinTime: *minTime}
	if fs.Arg(0) == "all" {
		for _, t := range experiments.All(opts) {
			fmt.Fprintln(w, t.Render())
		}
		return nil
	}
	t, err := experiments.ByID(fs.Arg(0), opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.Render())
	return nil
}
