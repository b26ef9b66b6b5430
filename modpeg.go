// Package modpeg is a parser toolkit for modular parsing expression
// grammars, reproducing the system described in "Better Extensibility
// through Modular Syntax" (Grimm, PLDI 2006): grammars are composed from
// modules that can import, instantiate, and *modify* one another, and are
// executed by an optimizing packrat parser (or compiled to standalone Go
// parsers).
//
// The one-call path:
//
//	parser, err := modpeg.New("calc.full")        // a bundled grammar
//	value, err := parser.Parse("input", "1 + 2**3")
//	fmt.Println(modpeg.FormatValue(value))        // (Add (Num "1") (Pow ...))
//
// Budgets, instrumentation, and tracing ride on one call, ParseRequest,
// whose Request carries resource limits, an event hook, and a W3C trace
// ID; Parse is its zero-Request shorthand:
//
//	prof := parser.NewProfiler()
//	value, stats, err := parser.ParseRequest(ctx, "input", src, modpeg.Request{
//	    Limits: modpeg.Limits{MaxParseDuration: time.Second},
//	    Hook:   prof,
//	})
//
// Custom grammars come from module directories or in-memory sources:
//
//	parser, err := modpeg.New("my.lang",
//	    modpeg.WithModuleDir("./grammar"),
//	    modpeg.WithModules(map[string]string{"my.ext": extSource}))
//
// Engine and optimizer configurations are exposed for experimentation —
// the benchmark suite uses them to reproduce the paper's measurements:
//
//	parser, err := modpeg.New("java.core",
//	    modpeg.WithOptimizations(modpeg.BaselineOptimizations()),
//	    modpeg.WithEngine(modpeg.EngineNaivePackrat()))
package modpeg

import (
	"context"
	"fmt"
	"io"

	"modpeg/internal/analysis"
	"modpeg/internal/ast"
	"modpeg/internal/codegen"
	"modpeg/internal/core"
	"modpeg/internal/grammars"
	"modpeg/internal/peg"
	"modpeg/internal/telemetry"
	"modpeg/internal/text"
	"modpeg/internal/transform"
	"modpeg/internal/vm"
)

// Value is a semantic value produced by parsing: *Node, *Token, List, or
// nil.
type Value = ast.Value

// Node is a generic interior AST node.
type Node = ast.Node

// Token is a matched lexeme with its source span.
type Token = ast.Token

// List is an ordered sequence of values.
type List = ast.List

// FormatValue renders a value as a compact s-expression.
func FormatValue(v Value) string { return ast.Format(v) }

// IndentValue renders a value as an indented tree.
func IndentValue(v Value) string { return ast.Indent(v) }

// ValueToJSON renders a value as indented JSON for machine consumption.
func ValueToJSON(v Value) (string, error) { return ast.ToJSON(v) }

// ValueToJSONCompact renders a value as single-line JSON. Wire
// protocols must prefer this over ValueToJSON: indented rendering is
// quadratic in the value's nesting depth.
func ValueToJSONCompact(v Value) (string, error) { return ast.ToJSONCompact(v) }

// ValuesEqual reports deep structural equality, ignoring source spans.
func ValuesEqual(a, b Value) bool { return ast.Equal(a, b) }

// FindNode returns the first node with the given constructor name in
// pre-order, or nil.
func FindNode(v Value, name string) *Node { return ast.Find(v, name) }

// FindAllNodes returns every node with the given constructor name.
func FindAllNodes(v Value, name string) []*Node { return ast.FindAll(v, name) }

// TextOf concatenates the terminal text under a value.
func TextOf(v Value) string { return ast.TextOf(v) }

// Resolver maps module names to sources; see WithResolver.
type Resolver = core.Resolver

// OptimizeOptions selects grammar-level optimization passes.
type OptimizeOptions = transform.Options

// DefaultOptimizations is the full optimizing pipeline.
func DefaultOptimizations() OptimizeOptions { return transform.Defaults() }

// BaselineOptimizations is the naive-packrat baseline pipeline (left
// recursion transformed, repetitions expanded into memoized productions,
// nothing else).
func BaselineOptimizations() OptimizeOptions { return transform.Baseline() }

// EngineOptions selects the parse-engine configuration.
type EngineOptions = vm.Options

// EngineOptimized is the paper's full engine: chunked memoization,
// transient skip, first-byte dispatch.
func EngineOptimized() EngineOptions { return vm.Optimized() }

// EngineCompiled is the optimized engine lowered to specialized Go
// closures at Compile time: terminals, sequences, choices, and memo
// probes become direct code instead of interpreted instructions. No Go
// toolchain is needed at runtime (that offline path is `modpeg gen`),
// so hot-reloaded registry grammars can use it too. Sessions, limits,
// incremental reparse, and statistics behave identically to
// EngineOptimized; only the execution strategy differs.
func EngineCompiled() EngineOptions { return vm.CompiledEngine() }

// EngineByName maps a user-facing engine name ("optimized", "compiled",
// "naive-packrat", "backtracking") to its configuration — the lookup
// behind `modpeg parse -engine` and the serve/registry engine fields.
func EngineByName(name string) (EngineOptions, error) {
	switch name {
	case "", "optimized":
		return EngineOptimized(), nil
	case "compiled":
		return EngineCompiled(), nil
	case "naive-packrat":
		return EngineNaivePackrat(), nil
	case "backtracking":
		return EngineBacktracking(), nil
	}
	return EngineOptions{}, fmt.Errorf("unknown engine %q (want optimized, compiled, naive-packrat, or backtracking)", name)
}

// EngineNaivePackrat memoizes every production in a hash map.
func EngineNaivePackrat() EngineOptions { return vm.NaivePackrat() }

// EngineBacktracking is plain recursive descent without memoization.
func EngineBacktracking() EngineOptions { return vm.Backtracking() }

// PGO configures profile-guided inlining (EngineOptions.PGO): small
// productions the profile shows to be hot are expanded at their call
// sites and their memo columns dropped. The zero value inlines every
// small production (static PGO, no profile needed).
type PGO = vm.PGO

// LoadPGO decodes a profile report (the JSON from `modpeg profile
// -json` or Profile.JSON) into a PGO configuration for EngineOptions.
func LoadPGO(data []byte) (*PGO, error) { return vm.LoadPGO(data) }

// ParseStats reports per-parse engine activity.
type ParseStats = vm.Stats

// Profile is a per-production execution profile: calls, memo behaviour,
// dispatch skips, self/cumulative time, farthest position, backtracked
// bytes. Profiles aggregate with Add and render with Report or JSON.
type Profile = vm.Profile

// ProdProfile is one production's slice of a Profile.
type ProdProfile = vm.ProdProfile

// Profiler is the profiling ParseHook: install one on any number of
// parses (Parser.NewProfiler, then Request.Hook) and snapshot the
// aggregate with its Profile method.
type Profiler = vm.Profiler

// ParseHook receives parse events (production entry/exit, memo hits,
// dispatch skips) synchronously from the engine; see vm.Hook for the
// contract. The built-in trace and profiler are hook implementations.
type ParseHook = vm.Hook

// EngineMetrics is a point-in-time snapshot of the process-wide engine
// metrics registry: parses started/completed/failed, session-pool and
// arena activity, and the peak memo footprint. Encode it with JSON for
// scraping.
type EngineMetrics = vm.MetricsSnapshot

// Metrics snapshots the process-wide engine metrics registry.
func Metrics() EngineMetrics { return vm.Metrics() }

// ResetMetrics zeroes the process-wide engine metrics registry (for
// tests and windowed scraping).
func ResetMetrics() { vm.ResetMetrics() }

// HistogramSnapshot is a point-in-time copy of one of the registry's
// fixed-bucket histograms (parse latency in nanoseconds, input size in
// bytes): total count, sum, and cumulative buckets.
type HistogramSnapshot = vm.HistogramSnapshot

// HistogramBucket is one cumulative histogram bucket.
type HistogramBucket = vm.HistogramBucket

// GrammarCounters is one grammar label's slice of the metrics
// registry: parses started/completed/failed, limit stops, and input
// bytes, labeled by the parser's top module.
type GrammarCounters = vm.GrammarCounters

// SetTelemetry enables or disables per-parse telemetry recording (the
// registry histograms and per-grammar counters; on by default) and
// returns the previous setting. The recording path is allocation-free
// either way — the toggle exists for overhead ablations.
func SetTelemetry(on bool) bool { return vm.SetTelemetry(on) }

// TelemetryEnabled reports whether per-parse telemetry recording is on.
func TelemetryEnabled() bool { return vm.TelemetryEnabled() }

// WritePrometheus renders an engine metrics snapshot in Prometheus text
// exposition format v0.0.4, histograms and per-grammar counters
// included. `modpeg serve` exposes the live registry this way on
// GET /metrics.
func WritePrometheus(w io.Writer, m EngineMetrics) error {
	return telemetry.WritePrometheus(w, m)
}

// TraceExporter is a ParseHook streaming Chrome trace-event JSON — a
// timeline of production spans, memo hits, and memo sheds loadable in
// Perfetto or chrome://tracing. Create one with Parser.NewTraceJSON,
// install it as Request.Hook, and Close it when done.
type TraceExporter = telemetry.Trace

// NewTraceJSON creates a trace-event exporter for this parser's
// productions, streaming JSON to w.
func (p *Parser) NewTraceJSON(w io.Writer) *TraceExporter {
	return telemetry.NewTrace(p.prog, w)
}

// NewCallTrace returns a ParseHook that streams a human-readable
// production-call trace to w — one line per production entry, exit, and
// memo hit, indented by call depth. Install it as Request.Hook; it is
// the grammar-debugging aid behind `modpeg parse -trace`.
func (p *Parser) NewCallTrace(w io.Writer) ParseHook { return p.prog.NewCallTrace(w) }

// Limits bounds one parse: input size, memo-table footprint, call
// depth, and wall-clock time (see vm.Limits for the per-field
// contract). The zero value is unlimited. When the memo budget is hit
// the engine degrades gracefully — it sheds memoization and finishes
// the parse in bounded space — unless Strict is set, which turns the
// budget hit into a hard *LimitError.
type Limits = vm.Limits

// LimitError reports a parse stopped by a resource budget or a
// canceled context: which budget, the configured limit, the observed
// value, and the input position reached. It unwraps to
// context.Canceled / context.DeadlineExceeded when a context stopped
// the parse.
type LimitError = vm.LimitError

// LimitKind names the budget a governed parse exhausted.
type LimitKind = vm.LimitKind

// ParseError describes a failed parse with the farthest-failure
// heuristic: the position the parser got stuck at and the
// terminals/productions it tried there.
type ParseError = vm.ParseError

// The budget kinds a *LimitError reports.
const (
	LimitInput    = vm.LimitInput
	LimitMemo     = vm.LimitMemo
	LimitDepth    = vm.LimitDepth
	LimitTime     = vm.LimitTime
	LimitCanceled = vm.LimitCanceled
)

// EngineError reports an interpreter panic contained by the governance
// layer: governed parses convert engine (or hook) panics into this
// error instead of unwinding into the caller.
type EngineError = vm.EngineError

// ShedParseHook is the optional ParseHook extension notified when a
// governed parse sheds memoization on hitting its memo budget.
type ShedParseHook = vm.ShedHook

// GrammarStats summarizes a composed grammar.
type GrammarStats = peg.GrammarStats

// BundledGrammars lists the top modules bundled with the library
// (calculator, JSON, Java subset, C subset, and composition demos).
func BundledGrammars() []string { return grammars.TopModules() }

// config collects option state.
type config struct {
	resolvers core.MultiResolver
	noBundled bool
	optimize  OptimizeOptions
	engine    EngineOptions
	skipOpt   bool
	root      string
}

// Option configures New.
type Option func(*config)

// WithModuleDir resolves modules from "<dir>/<module>.mpeg" files, taking
// precedence over the bundled grammars.
func WithModuleDir(dir string) Option {
	return func(c *config) { c.resolvers = append(c.resolvers, core.DirResolver{Dir: dir}) }
}

// WithModules resolves modules from in-memory sources, taking precedence
// over the bundled grammars.
func WithModules(mods map[string]string) Option {
	return func(c *config) { c.resolvers = append(c.resolvers, core.MapResolver(mods)) }
}

// WithResolver adds a custom module resolver.
func WithResolver(r Resolver) Option {
	return func(c *config) { c.resolvers = append(c.resolvers, r) }
}

// WithoutBundledGrammars removes the bundled modules from resolution.
func WithoutBundledGrammars() Option {
	return func(c *config) { c.noBundled = true }
}

// WithOptimizations overrides the grammar-optimization pipeline.
func WithOptimizations(o OptimizeOptions) Option {
	return func(c *config) { c.optimize = o; c.skipOpt = false }
}

// WithEngine overrides the engine configuration.
func WithEngine(e EngineOptions) Option {
	return func(c *config) { c.engine = e }
}

// WithRoot overrides the composed grammar's root with the named
// production (fully qualified, e.g. "calc.core.Sum"), so the parser
// accepts that production's language instead of the module's declared
// root. The optimization pipeline then prunes relative to the new root.
// `modpeg serve` uses this for per-request entry productions.
func WithRoot(production string) Option {
	return func(c *config) { c.root = production }
}

// Parser is a composed, optimized, compiled grammar ready to parse.
type Parser struct {
	top         string
	composed    *peg.Grammar
	transformed *peg.Grammar
	report      *transform.Report
	prog        *vm.Program
}

// New composes the grammar rooted at the given top module, applies the
// optimization pipeline, and compiles it for the configured engine.
func New(top string, opts ...Option) (*Parser, error) {
	c := &config{optimize: transform.Defaults(), engine: vm.Optimized()}
	for _, o := range opts {
		o(c)
	}
	resolver := c.resolvers
	if !c.noBundled {
		resolver = append(resolver, grammars.Resolver())
	}
	if len(resolver) == 0 {
		return nil, fmt.Errorf("modpeg: no module sources configured")
	}
	composed, err := core.Compose(top, resolver)
	if err != nil {
		return nil, err
	}
	if c.root != "" {
		if _, ok := composed.Prods[c.root]; !ok {
			return nil, fmt.Errorf("modpeg: root production %q not found in grammar %q", c.root, top)
		}
		composed.Root = c.root
	}
	transformed, report, err := transform.Apply(composed, c.optimize)
	if err != nil {
		return nil, err
	}
	prog, err := vm.Compile(transformed, c.engine)
	if err != nil {
		return nil, err
	}
	prog.SetLabel(top)
	return &Parser{
		top:         top,
		composed:    composed,
		transformed: transformed,
		report:      report,
		prog:        prog,
	}, nil
}

// Request carries the per-call parameters of ParseRequest: resource
// budgets (Limits), an event hook (Hook — the call trace from
// NewCallTrace, the profiler from NewProfiler, the Chrome-trace exporter
// from NewTraceJSON, or your own), and a W3C trace ID (TraceID) recorded
// as a latency-histogram exemplar. The zero value is a plain parse.
type Request = vm.Request

// Parse parses input (name labels it in diagnostics), requiring the root
// production to consume the whole input. It is ParseRequest with a
// background context and a zero Request, minus the statistics.
//
// Parse draws a pooled parse session internally, so calling it in a hot
// loop reaches a steady state with no parser-machinery allocations. It is
// safe to call concurrently from multiple goroutines; every call works on
// its own session.
func (p *Parser) Parse(name, input string) (Value, error) {
	v, _, err := p.prog.Parse(text.NewSource(name, input))
	return v, err
}

// ParseRequest is Parse under ctx and the parameters in req, returning
// the engine statistics of the run alongside the value. The parse stops
// with a typed *LimitError when ctx is canceled, a deadline (ctx's or
// req.Limits.MaxParseDuration's, whichever is sooner) passes, or a
// budget in req.Limits is exhausted. req.Hook receives the run's parse
// events; when it also implements TraceContextParseHook it hears
// req.TraceID first. A context without deadline or cancellation and a
// zero Request keep the pooled zero-allocation steady state.
func (p *Parser) ParseRequest(ctx context.Context, name, input string, req Request) (Value, ParseStats, error) {
	return p.prog.ParseRequest(ctx, text.NewSource(name, input), req)
}

// ParseContextTraced is ParseRequest with limits and a trace ID. It
// exists only because the benchmark harness (perfbench) calls it; new
// code calls ParseRequest.
func (p *Parser) ParseContextTraced(ctx context.Context, name, input string, lim Limits, traceID string) (Value, ParseStats, error) {
	return p.ParseRequest(ctx, name, input, Request{Limits: lim, TraceID: traceID})
}

// TraceContextParseHook is the optional ParseHook extension that
// receives a traced parse's W3C trace ID before its first event.
type TraceContextParseHook = vm.TraceContextHook

// Exemplar is one traced observation pinned to a latency-histogram
// bucket: trace ID, grammar label, observed value, and record time.
type Exemplar = vm.Exemplar

// SampledProfile is one grammar label's rolling 1-in-N sampled
// profile (see Parser.SetSampling): sampled-parse count plus
// aggregated per-production rows, hottest first.
type SampledProfile = vm.SampledProfile

// SetSampling sets this parser's always-on profiling sample rate:
// every n-th pooled parse runs with a borrowed profiler and folds into
// the grammar label's rolling SampledProfile. n <= 0 (the default)
// disables sampling; the disabled path costs one atomic load per
// parse and keeps the zero-allocation steady state. Sampled parses run
// the interpreter (the hook seam), so keep n large enough that 1/n of
// traffic on the slower path is acceptable — 100 keeps the measured
// end-to-end overhead under 2%.
func (p *Parser) SetSampling(n int) { p.prog.SetSampling(n) }

// Sampling returns the parser's current sample rate (0 = off).
func (p *Parser) Sampling() int { return p.prog.Sampling() }

// SampledProfiles snapshots every grammar label's rolling sampled
// profile, sorted by label.
func SampledProfiles() []SampledProfile { return vm.SampledProfiles() }

// SampledProfileFor snapshots one grammar label's rolling sampled
// profile; ok is false when the label has never been sampled.
func SampledProfileFor(label string) (SampledProfile, bool) { return vm.SampledProfileFor(label) }

// ResetSampledProfiles drops every rolling sampled profile (windowed
// scraping; ResetMetrics leaves them alone).
func ResetSampledProfiles() { vm.ResetSampledProfiles() }

// Label returns the grammar label this parser's parses are counted
// under in the metrics registry (the top module name); SetLabel
// overrides it.
func (p *Parser) Label() string { return p.prog.Label() }

// SetLabel changes the grammar label for the metrics registry's
// per-grammar counters and the Prometheus `grammar` label.
func (p *Parser) SetLabel(label string) { p.prog.SetLabel(label) }

// Session is an explicitly managed, reusable parse context: the memo
// table's storage and the engine's scratch buffers survive from parse to
// parse, so a session parsing many inputs in sequence performs zero
// parser-machinery allocations at steady state. Results are identical to
// Parser.Parse — the recycled state is never consulted across inputs.
//
// A Session must not be used from more than one goroutine at a time;
// create one per goroutine (or use ParseBatch, which does).
type Session struct {
	s *vm.Session
}

// NewSession creates a reusable parse session for the parser's compiled
// program.
func (p *Parser) NewSession() *Session {
	return &Session{s: p.prog.NewSession()}
}

// Parse is Parser.Parse on the reusable session context.
func (s *Session) Parse(name, input string) (Value, error) {
	v, _, err := s.s.Parse(text.NewSource(name, input))
	return v, err
}

// ParseRequest is Parser.ParseRequest on the reusable session context
// (a memo-shedding run reports its bounded footprint in Stats.MemoBytes
// and the shed in Stats.MemoSheds). req.Hook is installed for this parse
// only; pass the same hook to consecutive parses to aggregate across
// them.
func (s *Session) ParseRequest(ctx context.Context, name, input string, req Request) (Value, ParseStats, error) {
	return s.s.ParseRequest(ctx, text.NewSource(name, input), req)
}

// Edit describes one textual change to a Document: the OldLen bytes at
// Off (pre-edit coordinates) are replaced by Text, whose length must
// equal NewLen. Insertions have OldLen 0, deletions NewLen 0. Edits in
// one Apply batch must not overlap.
type Edit = vm.Edit

// Document owns a source text and the memo state of its last parse, and
// reparses incrementally as the text is edited: after a small edit, memo
// entries untouched by the damage are reused (entries past the edit are
// relocated by splicing the memo chunk directory in place, not
// rewritten, and only the entries that can reach the edit are read), so
// a reparse costs in proportion to the edit rather than the document. The
// results are indistinguishable from a from-scratch parse of the current
// text — values compare equal and errors are reported identically (a
// failed incremental pass is re-reported from a full reparse) — except
// that reused subtrees keep the source spans of the revision that first
// parsed them.
//
// A Document is an editor-session object: it is not safe for concurrent
// use and holds a dedicated parse session (with its memo arenas) alive
// for its lifetime. Reuse requires the optimized chunked engine (the
// default); under other engine configurations Apply transparently
// reparses from scratch.
type Document struct {
	d *vm.Document
}

// NewDocument parses input (name labels it in diagnostics) and returns a
// Document holding the result and the parse's memo state. A document
// whose text does not currently parse is still editable — that is the
// normal state mid-edit; the initial outcome is available via Value,
// Stats, and Err.
func (p *Parser) NewDocument(name, input string) *Document {
	return &Document{d: p.prog.NewDocument(text.NewSource(name, input))}
}

// Apply applies the edits to the document text and reparses
// incrementally. It returns the new value, the reparse's statistics
// (MemoReused, MemoInvalidated, and MemoRelocated describe the memo
// reuse; MemoBytes reports the whole live table), and the parse error if
// the edited text does not parse. Invalid edits (out of bounds,
// overlapping, or NewLen ≠ len(Text)) leave the document untouched and
// return an error.
func (d *Document) Apply(edits ...Edit) (Value, ParseStats, error) {
	return d.d.Apply(edits...)
}

// Value returns the semantic value of the last (re)parse, nil if it
// failed.
func (d *Document) Value() Value { return d.d.Value() }

// Stats returns the statistics of the last (re)parse.
func (d *Document) Stats() ParseStats { return d.d.Stats() }

// Err returns the last (re)parse's error, nil if it succeeded.
func (d *Document) Err() error { return d.d.Err() }

// Text returns the document's current content.
func (d *Document) Text() string { return d.d.Text() }

// BatchResult is the outcome of one input of a ParseBatch call.
type BatchResult = vm.Result

// ParseBatch parses every input concurrently across at most workers
// goroutines (GOMAXPROCS when workers <= 0), each running its own pooled
// parse session, under ctx and per-input budgets lim. The result slice
// is order-preserving: result[i] is the outcome of inputs[i] — value,
// per-input statistics, and error — regardless of which worker parsed it
// or when it finished. Input i is labelled "name[i]" in diagnostics.
// Cancellation drains the batch promptly: in-flight parses abort on
// their next governance poll and unstarted inputs are marked with a
// *LimitError without being parsed. Every result slot is filled either
// way. For a profile aggregated across the batch, set SetSampling(1)
// and read SampledProfileFor(Label()).
func (p *Parser) ParseBatch(ctx context.Context, name string, inputs []string, workers int, lim Limits) []BatchResult {
	srcs := make([]*text.Source, len(inputs))
	for i, in := range inputs {
		srcs[i] = text.NewSource(fmt.Sprintf("%s[%d]", name, i), in)
	}
	return p.prog.ParseAll(ctx, srcs, workers, lim)
}

// BatchStats aggregates the per-input statistics of a batch.
func BatchStats(results []BatchResult) ParseStats { return vm.TotalStats(results) }

// NewProfiler returns a reusable profiling hook for this parser's
// productions: install it as Request.Hook on any number of parses (one
// goroutine at a time) and snapshot the aggregate with Profile.
func (p *Parser) NewProfiler() *Profiler { return p.prog.NewProfiler() }

// Top returns the top module name the parser was composed from.
func (p *Parser) Top() string { return p.top }

// Grammar renders the composed (pre-optimization) grammar.
func (p *Parser) Grammar() string { return peg.FormatGrammar(p.composed) }

// OptimizedGrammar renders the grammar after the optimization pipeline.
func (p *Parser) OptimizedGrammar() string { return peg.FormatGrammar(p.transformed) }

// Stats summarizes the composed grammar.
func (p *Parser) Stats() GrammarStats { return peg.StatsOfGrammar(p.composed) }

// OptimizedStats summarizes the grammar after optimization.
func (p *Parser) OptimizedStats() GrammarStats { return peg.StatsOfGrammar(p.transformed) }

// OptimizationReport describes what each optimization pass did.
func (p *Parser) OptimizationReport() string { return p.report.String() }

// Modules lists the composed module instances in dependency order.
func (p *Parser) Modules() []string {
	return append([]string(nil), p.composed.ModuleNames...)
}

// GenerateGo emits a standalone Go parser for the grammar (the
// parser-generator path). pkg is the generated package name.
func (p *Parser) GenerateGo(pkg string) ([]byte, error) {
	return codegen.Generate(p.transformed, codegen.Options{
		Package:      pkg,
		EntryComment: "grammar: " + p.top,
	})
}

// Check re-runs the static well-formedness analysis on the composed
// grammar and returns its findings (nil when clean).
func (p *Parser) Check() error {
	return analysis.Analyze(p.composed).Check()
}

// Lint reports non-fatal grammar smells (unreachable productions,
// contradictory attributes, shadowed literal alternatives, discarded
// bindings), sorted and deterministic.
func (p *Parser) Lint() []string {
	return analysis.Analyze(p.composed).Lint()
}
