package main

import (
	"context"
	"time"

	"modpeg"
	"modpeg/internal/ast"
	"modpeg/internal/registry"
)

// layerMetric is one per-layer metric; BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkFileMatches).
type layerMetric struct{ name, unit, better string }

var layerMetrics = []layerMetric{
	{"syntax.parse_us", "us", "lower"},
	{"core.compose_us", "us", "lower"},
	{"core.productions", "count", "lower"},
	{"analysis.analyze_us", "us", "lower"},
	{"transform.apply_ms", "ms", "lower"},
	{"transform.productions", "count", "lower"},
	{"vm.compile_us", "us", "lower"},
	{"vm.compile_closure_us", "us", "lower"},
	{"vm.memo_columns", "count", "lower"},
	{"registry.smoke_ms", "ms", "lower"},
	{"registry.upload_self_ms", "ms", "lower"},
	{"registry.acquire_us", "us", "lower"},
	{"vm.parse_ms", "ms", "lower"},
	{"vm.ns_per_byte", "ns/B", "lower"},
	{"vm.calls", "count", "lower"},
	{"vm.memo_hits", "count", "higher"},
	{"vm.memo_misses", "count", "lower"},
	{"vm.memo_hit_ratio", "ratio", "higher"},
	{"vm.dispatch_skips", "count", "higher"},
	{"vm.memo_bytes", "bytes", "lower"},
	{"vm.alloc_bytes", "bytes", "lower"},
	{"vm.allocs", "count", "lower"},
	{"incremental.apply_ms", "ms", "lower"},
	{"incremental.memo_reused", "count", "higher"},
	{"incremental.memo_invalidated", "count", "lower"},
	{"incremental.memo_relocated", "count", "lower"},
	{"incremental.reuse_ratio", "ratio", "higher"},
	{"incremental.full_reparses", "count", "lower"},
	{"ast.encode_ms", "ms", "lower"},
	{"ast.json_bytes", "bytes", "lower"},
	{"ast.nodes", "count", "lower"},
	{"serve.roundtrip_ms", "ms", "lower"},
	{"serve.self_ms", "ms", "lower"},
	{"serve.queue_ms", "ms", "lower"},
	{"telemetry.metrics_series", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.pool_held_mb", "MB", "lower"},
	{"loadgen.late_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// layerReport turns measured per-layer values into the full list. A
// layer the workload bypasses did no work, and reports 0.
func layerReport(vals map[string]float64) *report {
	r := newReport()
	for _, m := range layerMetrics {
		r.set(m.name, vals[m.name], m.unit)
	}
	return r
}

// spanNames are the span names a traced run records; the per-layer
// time metrics are their mean self times.
const (
	spanReplay       = "replay"
	spanAcquire      = "registry.acquire"
	spanParse        = "vm.parse"
	spanEncode       = "ast.encode"
	spanRoundtrip    = "serve.roundtrip"
	spanUpload       = "registry.upload"
	spanSyntax       = "syntax.parse"
	spanCompose      = "core.compose"
	spanAnalyze      = "analysis.analyze"
	spanTransform    = "transform.apply"
	spanCompile      = "vm.compile"
	spanCompileClose = "vm.compile_closure"
	spanSmoke        = "registry.smoke"
	spanApply        = "incremental.apply"
)

// parseLayers accumulates what the parse-side boundaries return: the
// engine's ParseStats, the allocations of the parse call, and the size
// of the encoded value.
type parseLayers struct {
	parses, bytes                    int64
	calls, hits, misses, skips, memo int64
	alloc                            memDelta
	encodes, jsonBytes, nodes        int64
}

func (p *parseLayers) addParse(st modpeg.ParseStats, inputLen int, m memDelta) {
	p.parses++
	p.bytes += int64(inputLen)
	p.calls += int64(st.Calls)
	p.hits += int64(st.MemoHits)
	p.misses += int64(st.MemoMisses)
	p.skips += int64(st.DispatchSkips)
	p.memo += int64(st.MemoBytes)
	p.alloc.bytes += m.bytes
	p.alloc.allocs += m.allocs
}

func (p *parseLayers) addEncode(v modpeg.Value, jsonLen int) {
	p.encodes++
	p.jsonBytes += int64(jsonLen)
	p.nodes += int64(ast.Count(v))
}

// fill writes the vm parse and ast metrics; parse time comes from the
// spans named spanParse and spanEncode.
func (p *parseLayers) fill(vals map[string]float64, sum map[string]time.Duration, count map[string]int) {
	if p.parses > 0 {
		n := float64(p.parses)
		vals["vm.parse_ms"] = meanSelf(sum, count, spanParse, time.Millisecond)
		vals["vm.ns_per_byte"] = float64(sum[spanParse]) / float64(max(p.bytes, 1))
		vals["vm.calls"] = float64(p.calls) / n
		vals["vm.memo_hits"] = float64(p.hits) / n
		vals["vm.memo_misses"] = float64(p.misses) / n
		vals["vm.memo_hit_ratio"] = float64(p.hits) / float64(max(p.hits+p.misses, 1))
		vals["vm.dispatch_skips"] = float64(p.skips) / n
		vals["vm.memo_bytes"] = float64(p.memo) / n
		vals["vm.alloc_bytes"] = float64(p.alloc.bytes) / n
		vals["vm.allocs"] = float64(p.alloc.allocs) / n
	}
	if p.encodes > 0 {
		n := float64(p.encodes)
		vals["ast.encode_ms"] = meanSelf(sum, count, spanEncode, time.Millisecond)
		vals["ast.json_bytes"] = float64(p.jsonBytes) / n
		vals["ast.nodes"] = float64(p.nodes) / n
	}
}

// replayTraceID stands in for the W3C trace ID the server mints for
// every request, so replayed parses take the server's traced path.
const replayTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

// replayParse repeats the parse side of one /parse request in
// process, through the public calls the server makes: a registry lease
// for tenant grammars (static grammars use parser), the governed,
// traced parse, and the compact JSON encoding. Its spans hang under
// one spanReplay span of op.
func replayParse(ctx context.Context, tr *tracer, op int64, reg *registry.Registry, parser *modpeg.Parser,
	tenant, grammar, input string, acc *parseLayers) error {
	root := tr.begin(spanReplay, -1, op)
	defer tr.end(root)
	lim := modpeg.Limits{}
	if tenant != "" {
		id := tr.begin(spanAcquire, root, op)
		lease, err := reg.Acquire(tenant, grammar, 0)
		tr.end(id)
		if err != nil {
			return err
		}
		defer lease.Release()
		parser, lim = lease.Parser, lease.Limits
	}
	m0 := memNow()
	id := tr.begin(spanParse, root, op)
	v, st, err := parser.ParseContextTraced(ctx, "request", input, lim, replayTraceID)
	tr.end(id)
	acc.addParse(st, len(input), memNow().since(m0))
	if _, pos, err := parseOutcome(v, err); err != nil || pos >= 0 {
		return err
	}
	id = tr.begin(spanEncode, root, op)
	js, err := modpeg.ValueToJSONCompact(v)
	tr.end(id)
	if err != nil {
		return err
	}
	acc.addEncode(v, len(js))
	return nil
}

// remoteSelf is, per operation, the part of a remote call (spans named
// remote) that its replay (spans named spanReplay of the same op) does
// not account for: the HTTP, server and queueing time around the
// replayed layers. It returns the mean in milliseconds over the
// operations that were replayed.
func remoteSelf(spans []span, remote string) float64 {
	self := selfTimes(spans)
	replayed := map[int64]time.Duration{}
	for i, s := range spans {
		if s.Name == spanReplay {
			replayed[s.Op] += s.End - s.Start - self[i]
		}
	}
	var total time.Duration
	n := 0
	for _, s := range spans {
		if c, ok := replayed[s.Op]; ok && s.Name == remote {
			total += s.End - s.Start - c
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e6
}
