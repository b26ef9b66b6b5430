package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"modpeg"
	"modpeg/internal/grammars"
	"modpeg/internal/loadbench"
	"modpeg/internal/registry"
	"modpeg/internal/workload"
)

// serve-mix: seeded POST /parse traffic over loopback to an in-process
// server. The mix is the repository's standard one,
// loadbench.DefaultCorpus: calc, json and java documents from 64 B to
// 32 KB, weighted toward small ones, plus a share of syntax errors. It
// goes to statically configured grammars and to tenant grammars served
// through registry leases (one of them an uploaded += extension of
// java.core). Values are returned. First an open loop at serveRate,
// timed from each request's scheduled send; then a closed loop of
// `clients` clients.

const (
	// serveRate is the open loop's fixed rate, about a seventh of the
	// closed loop's capacity (700 to 900 requests a second) on the
	// two-core machine the benchmark was tuned on.
	serveRate = 100.0
	// serveOpenShare is the part of the window the open loop runs; at
	// 30 s it gives the p99 the 1000 samples it needs.
	serveOpenShare = 0.6
	// serveClosedRate is how many closed-loop requests a run sends per
	// second of its window. A fixed count rather than the rest of the
	// window keeps the work of a run, and so what the leaking value
	// arenas (README.md) leave on the heap, the same however fast the
	// server answers; at 30 s the loop takes about four seconds.
	serveClosedRate = 100
	// serveTenant owns the registry-served grammars.
	serveTenant = "t0"
	// serveReplays caps how many open-loop requests a traced run
	// replays in process.
	serveReplays = 400
)

// extJava is the tenant's uploaded extension of java.core: its own +=
// of the ** operator, composed with two bundled extensions.
const extJava = `module acme.java;
modify java.expr;
import java.lex;
import java.decl;
import java.ext.assert;
import java.ext.foreach;
option root = CompilationUnit;
Power += <pow> l:Unary POWOP r:Power @Pow before <unary> ;
void POWOP = "**" Spacing ;
`

// serveFamily is one document family with its static and tenant route.
type serveFamily struct {
	static       string
	staticGen    func(workload.Config) string
	tenantName   string
	tenantSource string // empty: the bundled module's source
	tenantGen    func(workload.Config) string
}

var serveFamilies = []serveFamily{
	{grammars.CalcFull, workload.ExpressionExt, grammars.CalcFull, "", workload.ExpressionExt},
	{grammars.JSON, workload.JSONDoc, grammars.JSON, "", workload.JSONDoc},
	{grammars.JavaCore, workload.JavaProgram, "acme.java", extJava, workload.JavaProgramExt},
}

type serveItem struct {
	tenant, grammar, input string
	body                   []byte
	want                   expect
}

type serveInputs struct {
	items []serveItem
	// order lists item indices in request order; the loops cycle
	// through it.
	order []int
}

// generateServe builds the corpus and the request order from seed. For
// each route, every item of loadbench.DefaultCorpus(false) contributes
// as many documents as its weight, each generated from the seed at the
// item's size by the family's generator; each family adds one syntax
// error, a control byte spliced into the middle half of a 2 KB
// document.
func generateServe(seed int64) *serveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{}
	add := func(tenant, grammar, input string) {
		in.items = append(in.items, serveItem{tenant: tenant, grammar: grammar, input: input, body: parseBody(tenant, grammar, input)})
	}
	mix := loadbench.DefaultCorpus(false)
	for _, route := range []string{"", serveTenant} {
		for _, f := range serveFamilies {
			grammar, gen := f.static, f.staticGen
			if route != "" {
				grammar, gen = f.tenantName, f.tenantGen
			}
			for _, it := range mix {
				if it.Grammar != f.static {
					continue
				}
				for w := 0; w < it.Weight; w++ {
					add(route, grammar, gen(workload.Config{Seed: rng.Int63(), Size: len(it.Input)}))
				}
			}
			doc := gen(workload.Config{Seed: rng.Int63(), Size: 2 << 10})
			at := len(doc)/4 + rng.Intn(len(doc)/2)
			add(route, grammar, doc[:at]+"\x01"+doc[at:])
		}
	}
	for cycle := 0; cycle < 64; cycle++ {
		in.order = append(in.order, rng.Perm(len(in.items))...)
	}
	return in
}

// reference computes every item's reference outcome.
func (in *serveInputs) reference() error {
	refs := map[string]*modpeg.Parser{}
	for _, f := range serveFamilies {
		var err error
		if refs[f.static], err = referenceParser(f.static, nil); err != nil {
			return err
		}
		if f.tenantSource != "" {
			if refs[f.tenantName], err = referenceParser(f.tenantName, map[string]string{f.tenantName: f.tenantSource}); err != nil {
				return err
			}
		}
	}
	return parallel(len(in.items), func(i int) error {
		it := &in.items[i]
		var err error
		it.want, err = wireExpect(refs[it.grammar], it.input)
		return err
	})
}

// startServeMix is serve-mix's set-up: the server with its static
// grammars compiled, and the tenant grammars uploaded and active.
func startServeMix(ctx context.Context) (*service, error) {
	var static []string
	for _, f := range serveFamilies {
		static = append(static, f.static)
	}
	svc, err := startService(static)
	if err != nil {
		return nil, err
	}
	for _, f := range serveFamilies {
		src := f.tenantSource
		if src == "" {
			if src, err = grammars.Source(f.tenantName); err != nil {
				svc.stop()
				return nil, err
			}
		}
		if _, err := uploadVersion(ctx, svc, serveTenant, f.tenantName, registry.Upload{Source: src}, new(bytes.Buffer)); err != nil {
			svc.stop()
			return nil, err
		}
	}
	return svc, nil
}

// uploadVersion posts one module version and returns the version
// number the server reports as active.
func uploadVersion(ctx context.Context, svc *service, tenant, name string, up registry.Upload, buf *bytes.Buffer) (int, error) {
	body, err := json.Marshal(up)
	if err != nil {
		return 0, err
	}
	status, err := svc.do(ctx, http.MethodPost, grammarPath(tenant, name, 0), body, buf)
	if err != nil {
		return 0, err
	}
	if status != http.StatusCreated {
		return 0, fmt.Errorf("upload %s/%s: HTTP %d: %s", tenant, name, status, truncate(buf.Bytes()))
	}
	var resp struct {
		Version int  `json:"version"`
		Active  bool `json:"active"`
	}
	if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
		return 0, fmt.Errorf("upload %s/%s: %w", tenant, name, err)
	}
	if !resp.Active {
		return resp.Version, fmt.Errorf("upload %s/%s: version %d is not active", tenant, name, resp.Version)
	}
	return resp.Version, nil
}

// send posts one item and checks the response against the reference.
func (it *serveItem) send(ctx context.Context, svc *service, buf *bytes.Buffer) error {
	status, err := svc.do(ctx, http.MethodPost, "/parse", it.body, buf)
	if err != nil {
		return err
	}
	r, err := readReply(status, buf.Bytes())
	if err != nil {
		return fmt.Errorf("%s/%s (%d B): %w", it.tenant, it.grammar, len(it.input), err)
	}
	if err := it.want.checkWire(r); err != nil {
		return fmt.Errorf("%s/%s (%d B): %w", it.tenant, it.grammar, len(it.input), err)
	}
	return nil
}

func runServeMix(ctx context.Context, cfg config) (*outcome, error) {
	in := generateServe(cfg.seed)
	if err := in.reference(); err != nil {
		return nil, err
	}
	return serveMix(ctx, cfg, in)
}

// openSample is one open-loop request's timing.
type openSample struct {
	latency, queue, late time.Duration
}

// serveMix runs the workload on prepared inputs.
func serveMix(ctx context.Context, cfg config, in *serveInputs) (*outcome, error) {
	setup, svc, err := timeSetups(func() (*service, error) { return startServeMix(ctx) }, func(s *service) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer svc.stop()

	out := &outcome{tally: &tally{}, named: newReport(), addr: svc.base}
	if cfg.trace {
		out.spans = newTracer()
	}
	// Warm-up: every item once, so parser pools and the connection
	// pool are filled before timing.
	buf := new(bytes.Buffer)
	for i := range in.items {
		out.tally.check(in.items[i].send(ctx, svc, buf))
	}

	gc0 := gcNow()
	openWindow := time.Duration(float64(cfg.window) * serveOpenShare)
	open := openLoop(ctx, svc, in, out, int(serveRate*openWindow.Seconds()))
	closed, correct, closedWindow := closedLoop(ctx, svc, in, out, max(int(serveClosedRate*cfg.window.Seconds()), 1), int64(len(open)))
	gcw := gcNow().since(gc0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var lat, tenant, queue, late, traced, untraced []float64
	for i, s := range open {
		ms := float64(s.latency) / 1e6
		lat = append(lat, ms)
		if in.items[in.order[i%len(in.order)]].tenant != "" {
			tenant = append(tenant, ms)
		}
		queue = append(queue, float64(s.queue)/1e6)
		late = append(late, float64(s.late)/1e6)
		if i%2 == 0 {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
	}
	out.named.set("setup_s", median(setup), "s")
	out.named.pct("serve_p50_ms", lat, 50)
	out.named.pct("serve_p90_ms", lat, 90)
	out.named.pct("serve_p99_ms", lat, 99)
	out.named.pct("serve_tenant_p50_ms", tenant, 50)
	out.named.parts("serve_capacity_rps", "1/s", &correct, closedWindow, segments, perSecond(closedWindow/segments))
	out.named.pct("closed_p50_ms", closed.ms, 50)
	out.extra = map[string]any{
		"open_rate_rps":   serveRate,
		"open_requests":   len(open),
		"closed_clients":  clients,
		"closed_requests": len(closed.ms),
		"items":           len(in.items),
	}

	// One more pass over the corpus before the heap reading, so every
	// grammar's pooled parser was used after the last automatic
	// collection and the forced one keeps what each holds. One reading
	// only: a second collection would release the arenas of the
	// parsers that only the two clients' overlap put in the pools.
	for i := range in.items {
		out.tally.check(in.items[i].send(ctx, svc, buf))
	}
	if !cfg.trace {
		in.items, in.order = nil, nil // the heap figure is the server's, not the corpus's
		out.named.set("retained_heap_mb", liveHeapMB(), "MB")
		out.e2e = endToEnd(out.named, "serve_p50_ms", "serve_p90_ms", "serve_tenant_p50_ms", "serve_capacity_rps")
		return out, nil
	}

	heap := liveHeapMB()
	vals := map[string]float64{
		"runtime.pool_held_mb": heap - liveHeapMB(),
		"serve.queue_ms":       mean(queue),
		"loadgen.late_ms":      mean(late),
		"runtime.gc_cycles":    float64(gcw.cycles),
		"runtime.gc_pause_ms":  float64(gcw.pauseNS) / 1e6,
		"trace.overhead_pct":   overheadPct(traced, untraced),
	}
	if vals["telemetry.metrics_series"], err = svc.metricsSeries(ctx); err != nil {
		return nil, err
	}
	if err := replayServe(ctx, svc, in, out.spans, min(len(open), serveReplays), vals); err != nil {
		return nil, err
	}
	out.layers = layerReport(vals)
	return out, nil
}

// openLoop sends the first n requests of the order on a fixed
// schedule: the k-th is due at start + k/serveRate, and its latency
// counts from then. Up to `clients` requests are in flight; a request
// due while both are busy waits for a connection, and that wait counts
// too.
func openLoop(ctx context.Context, svc *service, in *serveInputs, out *outcome, n int) []openSample {
	samples := make([]openSample, n)
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := dueTime(start, k, serveRate)
				picked := time.Now()
				if sleepUntil(ctx, due) != nil {
					return
				}
				sent := time.Now()
				it := &in.items[in.order[k%len(in.order)]]
				err := it.send(ctx, svc, buf)
				done := time.Now()
				out.spans.alternate(int64(k)).record(spanRoundtrip, sent, done, -1, int64(k))
				out.tally.check(err)
				q, l := lateness(due, picked, sent)
				samples[k] = openSample{latency: done.Sub(due), queue: q, late: l}
			}
		}()
	}
	wg.Wait()
	return samples[:min(int(next.Load()), n)]
}

// dueTime is when the i-th request of an open loop at rate per second
// is scheduled.
func dueTime(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// lateness splits the delay between a request's due time and its send:
// queue is how long it waited for a free connection (it was picked
// after it was due), late is how far the generator overslept beyond
// the later of due and picked.
func lateness(due, picked, sent time.Time) (queue, late time.Duration) {
	if picked.After(due) {
		queue = picked.Sub(due)
		return queue, sent.Sub(picked)
	}
	return 0, sent.Sub(due)
}

// closedLoop sends n requests from `clients` clients back to back,
// continuing the order after the open loop's firstOp requests. It
// returns the latencies of all of them and of the correct ones alone,
// each at its completion offset, and how long they took.
func closedLoop(ctx context.Context, svc *service, in *serveInputs, out *outcome, n int, firstOp int64) (all, correct series, elapsed time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := new(bytes.Buffer)
			var mine, ok series
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(n) {
					break
				}
				op := firstOp + i
				it := &in.items[in.order[int(op)%len(in.order)]]
				t0 := time.Now()
				err := it.send(ctx, svc, buf)
				t1 := time.Now()
				out.spans.alternate(op).record(spanRoundtrip, t0, t1, -1, op)
				mine.add(t1.Sub(start), t1.Sub(t0), 0)
				if out.tally.check(err) {
					ok.add(t1.Sub(start), t1.Sub(t0), 0)
				}
			}
			mu.Lock()
			all.addAll(mine)
			correct.addAll(ok)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, correct, time.Since(start)
}

// replayServe replays the first n open-loop requests in process and
// derives the parse-side and serve layer metrics from the spans.
func replayServe(ctx context.Context, svc *service, in *serveInputs, tr *tracer, n int, vals map[string]float64) error {
	static := map[string]*modpeg.Parser{}
	for _, f := range serveFamilies {
		p, err := modpeg.New(f.static)
		if err != nil {
			return err
		}
		static[f.static] = p
	}
	var acc parseLayers
	for i := 0; i < n; i++ {
		it := &in.items[in.order[i%len(in.order)]]
		if err := replayParse(ctx, tr, int64(i), svc.reg, static[it.grammar], it.tenant, it.grammar, it.input, &acc); err != nil {
			return err
		}
	}
	spans := tr.snapshot()
	sum, count := layerTimes(spans)
	acc.fill(vals, sum, count)
	vals["registry.acquire_us"] = meanSelf(sum, count, spanAcquire, time.Microsecond)
	vals["serve.roundtrip_ms"] = meanSelf(sum, count, spanRoundtrip, time.Millisecond)
	vals["serve.self_ms"] = remoteSelf(spans, spanRoundtrip)
	return nil
}
