package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"modpeg"
	"modpeg/internal/analysis"
	"modpeg/internal/core"
	"modpeg/internal/grammars"
	"modpeg/internal/peg"
	"modpeg/internal/registry"
	"modpeg/internal/syntax"
	"modpeg/internal/text"
	"modpeg/internal/transform"
	"modpeg/internal/vm"
	"modpeg/internal/workload"
)

// tenant-upload: one client uploads a fixed, seeded sequence of
// extension modules (+=, -= and := against java.core, calc.full and
// json.value) through POST /grammars/{tenant}/{name}, alternating the
// engine between the default and "compiled" and deleting old versions
// to stay under the live-version cap. A second client meanwhile parses
// a small document against the grammar being hot-swapped, readRate
// times a second, and checks the value against the reference of the
// version the response echoes.

const (
	uploadTenant = "up"
	// keepLive is how many versions of a grammar stay registered; older
	// ones are deleted after each upload.
	keepLive = 2
	// uploadRounds is how many seeded permutations of the nine
	// (grammar, form) pairs make up the upload cycle.
	uploadRounds = 2
	// uploadReplays caps how many uploads a traced run replays.
	uploadReplays = 90
	// readReplays caps how many swap reads a traced run replays.
	readReplays = 400
	// readDocs is how many documents of each grammar the reader cycles
	// through, so no single document's content decides its latency.
	readDocs = 8
	// heapReadings is how many heap readings retained_heap_mb is the
	// median of.
	heapReadings = 9
	// readRate paces the swap reader, so reads add a steady load
	// beside the uploads instead of taking whatever CPU the uploader
	// leaves.
	readRate = 100.0
)

// uploadSlot is one hot-swapped grammar: its registry name, the module
// texts of the three modification forms (%d takes a seeded constructor
// suffix) and the document the reader parses.
type uploadSlot struct {
	name  string
	forms [3]string // +=, -=, :=
	read  func(workload.Config) string
	size  int
}

var uploadSlots = []uploadSlot{
	{"up.java", [3]string{`module up.java;
modify java.stmt;
import java.lex;
import java.expr;
import java.decl;
option root = CompilationUnit;
Statement += <assert> KwAssert c:Expression SEMI @Assert%d before <localvar> ;
void KwAssert = "assert" !IdPart Spacing ;
void IdPart = [a-zA-Z0-9_$] ;
`, `module up.java;
modify java.stmt;
import java.decl;
option root = CompilationUnit;
// %d
Statement -= dowhile ;
`, `module up.java;
modify java.stmt;
import java.lex;
import java.decl;
option root = CompilationUnit;
ElseClause := KwElse s:Statement @Else%d ;
`}, workload.JavaProgram, 1500},
	{"up.calc", [3]string{`module up.calc;
modify calc.core;
import calc.lex;
import calc.pow;
import calc.cmp;
option root = calc.core.Program;
Atom += <neg> MINUS a:Atom @Neg%d before <num> ;
`, `module up.calc;
modify calc.core;
import calc.pow;
import calc.cmp;
option root = calc.core.Program;
// %d
Prod -= div ;
`, `module up.calc;
modify calc.core;
import calc.lex;
import calc.pow;
import calc.cmp;
option root = calc.core.Program;
Atom := <num> n:Number @Lit%d / <paren> LPAREN e:Sum RPAREN ;
`}, workload.ExpressionExt, 400},
	{"up.json", [3]string{`module up.json;
modify json.value;
import json.lex;
option root = json.value.Json;
Object += <trailing> LBRACE m:Members COMMA RBRACE @Obj%d before <full> ;
`, `module up.json;
modify json.value;
import json.lex;
option root = json.value.Json;
Array += <nil> LBRACK RBRACK @EmptyArr%d before <full> ;
Array -= empty ;
`, `module up.json;
modify json.value;
import json.lex;
option root = json.value.Json;
Member := k:String COLON v:Value @Pair%d ;
`}, workload.JSONDoc, 800},
}

// uploadModule is one module of the cycle and the reference outcome of
// each of its slot's read documents under it.
type uploadModule struct {
	slot   int
	source string
	read   []expect
}

type uploadInputs struct {
	modules []uploadModule
	docs    [][]string // per slot: the read documents
	reads   [][][]byte // per slot: each read document's /parse body
}

// readOp is one swap read: which slot and which of its documents.
type readOp struct{ slot, doc int }

// generateUpload builds the read documents and the module cycle from
// seed.
func generateUpload(seed int64) *uploadInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &uploadInputs{}
	for _, sl := range uploadSlots {
		var docs []string
		var bodies [][]byte
		for d := 0; d < readDocs; d++ {
			doc := sl.read(workload.Config{Seed: rng.Int63(), Size: sl.size})
			docs = append(docs, doc)
			bodies = append(bodies, parseBody(uploadTenant, sl.name, doc))
		}
		in.docs = append(in.docs, docs)
		in.reads = append(in.reads, bodies)
	}
	for r := 0; r < uploadRounds; r++ {
		for _, k := range rng.Perm(len(uploadSlots) * 3) {
			slot, form := k/3, k%3
			src := fmt.Sprintf(uploadSlots[slot].forms[form], 100+rng.Intn(900))
			in.modules = append(in.modules, uploadModule{slot: slot, source: src})
		}
	}
	return in
}

// reference computes each module's reference outcome for its slot's
// read documents, which every module must accept.
func (in *uploadInputs) reference() error {
	return parallel(len(in.modules), func(i int) error {
		m := &in.modules[i]
		name := uploadSlots[m.slot].name
		ref, err := referenceParser(name, map[string]string{name: m.source})
		if err != nil {
			return err
		}
		m.read = make([]expect, readDocs)
		for d, doc := range in.docs[m.slot] {
			if m.read[d], err = wireExpect(ref, doc); err != nil {
				return err
			}
			if m.read[d].errPos >= 0 {
				return fmt.Errorf("%s: read document %d does not parse under module %d", name, d, i)
			}
		}
		return nil
	})
}

// probes are the smoke corpus every upload carries: the slot's first
// read document must parse and a control byte must be rejected.
func (in *uploadInputs) probes(slot int) []registry.Probe {
	return []registry.Probe{{Name: "read", Input: in.docs[slot][0]}, {Name: "reject", Input: "\x01", Fail: true}}
}

// swapState is one server's registry bookkeeping: which module each
// live version of each slot runs, so a read can be checked against the
// version that served it.
type swapState struct {
	svc     *service
	mu      sync.Mutex
	modules []map[int]int // per slot: version -> module index
	live    [][]int       // per slot: live versions, ascending
	next    []int         // per slot: the version the next upload gets
}

// uploadOne sends module m with engine and records its version. It
// returns the upload's latency.
func (st *swapState) uploadOne(ctx context.Context, in *uploadInputs, m int, engine string, buf *bytes.Buffer) (time.Duration, error) {
	mod := in.modules[m]
	name := uploadSlots[mod.slot].name
	st.mu.Lock()
	want := st.next[mod.slot]
	st.next[mod.slot]++
	st.modules[mod.slot][want] = m // registered before the swap can be seen
	st.mu.Unlock()
	start := time.Now()
	got, err := uploadVersion(ctx, st.svc, uploadTenant, name,
		registry.Upload{Source: mod.source, Engine: engine, Probes: in.probes(mod.slot)}, buf)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if got != want {
		return lat, fmt.Errorf("upload %s: got version %d, want %d", name, got, want)
	}
	st.mu.Lock()
	st.live[mod.slot] = append(st.live[mod.slot], got)
	var old []int
	if n := len(st.live[mod.slot]); n > keepLive {
		old = append(old, st.live[mod.slot][:n-keepLive]...)
		st.live[mod.slot] = st.live[mod.slot][n-keepLive:]
	}
	st.mu.Unlock()
	for _, v := range old {
		status, err := st.svc.do(ctx, http.MethodDelete, grammarPath(uploadTenant, name, v), nil, buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("delete %s@%d: HTTP %d: %s", name, v, status, truncate(buf.Bytes()))
		}
		if err != nil {
			return lat, err
		}
	}
	return lat, nil
}

// read parses one of slot's documents against its active version and
// checks the value against the reference of the version the response
// echoes.
func (st *swapState) read(ctx context.Context, in *uploadInputs, op readOp, buf *bytes.Buffer) error {
	slot := op.slot
	status, err := st.svc.do(ctx, http.MethodPost, "/parse", in.reads[slot][op.doc], buf)
	if err != nil {
		return err
	}
	r, err := readReply(status, buf.Bytes())
	if err != nil {
		return fmt.Errorf("read %s: %w", uploadSlots[slot].name, err)
	}
	st.mu.Lock()
	m, ok := st.modules[slot][r.version]
	st.mu.Unlock()
	if !ok {
		return fmt.Errorf("read %s: served by unknown version %d", uploadSlots[slot].name, r.version)
	}
	if err := in.modules[m].read[op.doc].checkWire(r); err != nil {
		return fmt.Errorf("read %s@%d: %w", uploadSlots[slot].name, r.version, err)
	}
	return nil
}

// startUpload is tenant-upload's set-up: the server, and every slot's
// first version uploaded and active.
func startUpload(ctx context.Context, in *uploadInputs) (*swapState, error) {
	svc, err := startService(nil)
	if err != nil {
		return nil, err
	}
	st := &swapState{svc: svc}
	for range uploadSlots {
		st.modules = append(st.modules, map[int]int{})
		st.live = append(st.live, nil)
		st.next = append(st.next, 1)
	}
	buf := new(bytes.Buffer)
	for s := range uploadSlots {
		for m, mod := range in.modules {
			if mod.slot == s {
				if _, err := st.uploadOne(ctx, in, m, "", buf); err != nil {
					svc.stop()
					return nil, err
				}
				break
			}
		}
	}
	return st, nil
}

func runTenantUpload(ctx context.Context, cfg config) (*outcome, error) {
	in := generateUpload(cfg.seed)
	if err := in.reference(); err != nil {
		return nil, err
	}
	return tenantUpload(ctx, cfg, in)
}

// uploadEngine alternates the upload's engine field.
func uploadEngine(i int) string {
	if i%2 == 1 {
		return "compiled"
	}
	return ""
}

func tenantUpload(ctx context.Context, cfg config, in *uploadInputs) (*outcome, error) {
	setup, st, err := timeSetups(func() (*swapState, error) { return startUpload(ctx, in) }, func(s *swapState) { s.svc.stop() })
	if err != nil {
		return nil, err
	}
	defer st.svc.stop()
	out := &outcome{tally: &tally{}, named: newReport(), addr: st.svc.base}
	if cfg.trace {
		out.spans = newTracer()
	}

	// Warm-up: the whole cycle once with both engines, each upload
	// followed by a read of every document of its grammar.
	buf := new(bytes.Buffer)
	for m := range in.modules {
		_, err := st.uploadOne(ctx, in, m, uploadEngine(m), buf)
		out.tally.check(err)
		for d := 0; d < readDocs; d++ {
			out.tally.check(st.read(ctx, in, readOp{in.modules[m].slot, d}, buf))
		}
	}

	var (
		uploads, reads   series
		readOps          []readOp
		queue, late      []float64    // per read, in ms: see lateness
		engines          []string     // per upload of the window
		traced, untraced []float64    // upload latencies in ms, for trace.overhead_pct
		current          atomic.Int32 // slot of the upload in flight
		stop             atomic.Bool
		wg               sync.WaitGroup
	)
	current.Store(int32(in.modules[0].slot))
	gc0 := gcNow()
	start := time.Now()
	deadline := start.Add(cfg.window)
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := new(bytes.Buffer)
		var prev time.Time
		for i := 0; !stop.Load(); i++ {
			due := dueTime(start, i, readRate)
			if sleepUntil(ctx, due) != nil {
				return
			}
			op := readOp{int(current.Load()), i % readDocs}
			t0 := time.Now()
			err := st.read(ctx, in, op, buf)
			t1 := time.Now()
			out.spans.alternate(int64(i)).record(spanRoundtrip, t0, t1, -1, readOpBase+int64(i))
			out.tally.check(err)
			// A read counts from when it could first be sent: its due
			// time, or the previous read's end if that overran it. The
			// reader's own timer lateness is not the server's.
			from := due
			if prev.After(due) {
				from = prev
			}
			q, l := lateness(due, from, t0)
			queue = append(queue, float64(q)/1e6)
			late = append(late, float64(l)/1e6)
			reads.add(t1.Sub(start), t1.Sub(from), op.slot*readDocs+op.doc)
			readOps = append(readOps, op)
			prev = t1
		}
	}()
	// The window extends until every part has the samples its p90
	// needs.
	enough := func() bool { return uploads.partsHave(time.Since(start), segments, minSamples(90)) }
	for i := 0; (time.Now().Before(deadline) || !enough()) && ctx.Err() == nil; i++ {
		m := i % len(in.modules)
		current.Store(int32(in.modules[m].slot))
		engine := uploadEngine(i)
		t0 := time.Now()
		lat, err := st.uploadOne(ctx, in, m, engine, buf)
		// Spans cover every other pair of uploads, so that traced and
		// untraced uploads use both engines alike.
		tr := out.spans.alternate(int64(i / 2))
		tr.record(spanUpload, t0, t0.Add(lat), -1, int64(i))
		engines = append(engines, engine)
		if out.tally.check(err) {
			uploads.add(time.Since(start), lat, m)
			if ms := float64(lat) / 1e6; tr != nil {
				traced = append(traced, ms)
			} else {
				untraced = append(untraced, ms)
			}
		}
	}
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	gcw := gcNow().since(gc0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out.named.set("setup_s", median(setup), "s")
	out.named.parts("upload_p50_ms", "ms", &uploads, elapsed, segments, medianOf)
	var java series // the uploads of the largest grammar, java.core's extensions
	for i, m := range uploads.group {
		if uploadSlots[in.modules[m].slot].name == "up.java" {
			java.add(uploads.at[i], time.Duration(uploads.ms[i]*1e6), m)
		}
	}
	out.named.parts("java_upload_p50_ms", "ms", &java, elapsed, segments, medianOf)
	out.named.parts("upload_p90_ms", "ms", &uploads, elapsed, segments, p90Of)
	out.named.parts("uploads_per_s", "1/s", &uploads, elapsed, segments, perSecond(elapsed/segments))
	out.named.pct("swap_read_p50_ms", reads.ms, 50)
	out.named.pct("swap_read_p99_ms", reads.ms, 99)
	out.extra = map[string]any{"uploads": len(uploads.ms), "reads": len(reads.ms), "read_rate": readRate,
		"modules": len(in.modules), "keep_live": keepLive}

	// The heap reading is the median of heapReadings, each after a read
	// of every document of every grammar (see usedHeapMB).
	readAll := func() {
		for slot := range uploadSlots {
			for d := 0; d < readDocs; d++ {
				out.tally.check(st.read(ctx, in, readOp{slot, d}, buf))
			}
		}
	}
	if !cfg.trace {
		out.named.set("retained_heap_mb", usedHeapMB(heapReadings, readAll), "MB")
		out.e2e = endToEnd(out.named, "upload_p50_ms", "upload_p90_ms", "swap_read_p50_ms", "uploads_per_s")
		return out, nil
	}

	heap := usedHeapMB(1, readAll)
	vals := map[string]float64{
		"runtime.pool_held_mb": heap - liveHeapMB(),
		"serve.queue_ms":       mean(queue),
		"loadgen.late_ms":      mean(late),
		"runtime.gc_cycles":    float64(gcw.cycles),
		"runtime.gc_pause_ms":  float64(gcw.pauseNS) / 1e6,
	}
	vals["trace.overhead_pct"] = overheadPct(traced, untraced)
	if vals["telemetry.metrics_series"], err = st.svc.metricsSeries(ctx); err != nil {
		return nil, err
	}
	if err := replayUploads(ctx, st, in, out.spans, engines, readOps, vals); err != nil {
		return nil, err
	}
	out.layers = layerReport(vals)
	return out, nil
}

// readOpBase separates swap-read operation ids from upload ids.
const readOpBase = 1 << 40

// replayUploads repeats, in process and through the layers' public
// functions, the pipeline the registry runs for the first uploads of
// the window — syntax.ParseString, core.Compose, analysis.Analyze,
// transform.Apply, vm.Compile for both engines, and the smoke parses —
// and the parse side of the first swap reads of the window.
func replayUploads(ctx context.Context, st *swapState, in *uploadInputs, tr *tracer, engines []string, reads []readOp, vals map[string]float64) error {
	var prods, tprods, cols, n float64
	for i := 0; i < min(len(engines), uploadReplays); i++ {
		m := in.modules[i%len(in.modules)]
		g, tg, prog, err := replayUpload(ctx, tr, int64(i), m, engines[i], in.probes(m.slot))
		if err != nil {
			return err
		}
		prods += float64(len(g.Prods))
		tprods += float64(len(tg.Prods))
		cols += float64(prog.MemoColumns())
		n++
	}
	var acc parseLayers
	for i, op := range reads[:min(len(reads), readReplays)] {
		if err := replayParse(ctx, tr, readOpBase+int64(i), st.svc.reg, nil, uploadTenant, uploadSlots[op.slot].name, in.docs[op.slot][op.doc], &acc); err != nil {
			return err
		}
	}
	spans := tr.snapshot()
	sum, count := layerTimes(spans)
	acc.fill(vals, sum, count)
	vals["syntax.parse_us"] = meanSelf(sum, count, spanSyntax, time.Microsecond)
	vals["core.compose_us"] = meanSelf(sum, count, spanCompose, time.Microsecond)
	vals["analysis.analyze_us"] = meanSelf(sum, count, spanAnalyze, time.Microsecond)
	vals["transform.apply_ms"] = meanSelf(sum, count, spanTransform, time.Millisecond)
	vals["vm.compile_us"] = meanSelf(sum, count, spanCompile, time.Microsecond)
	vals["vm.compile_closure_us"] = meanSelf(sum, count, spanCompileClose, time.Microsecond)
	vals["registry.smoke_ms"] = meanSelf(sum, count, spanSmoke, time.Millisecond)
	vals["registry.acquire_us"] = meanSelf(sum, count, spanAcquire, time.Microsecond)
	vals["registry.upload_self_ms"] = remoteSelf(spans, spanUpload)
	vals["serve.roundtrip_ms"] = meanSelf(sum, count, spanRoundtrip, time.Millisecond)
	vals["serve.self_ms"] = remoteSelf(spans, spanRoundtrip)
	if n > 0 {
		vals["core.productions"] = prods / n
		vals["transform.productions"] = tprods / n
		vals["vm.memo_columns"] = cols / n
	}
	return nil
}

// replayUpload runs one upload's build pipeline. The steps the
// registry runs for this upload hang under one spanReplay span, so the
// upload's remaining time is its self time; analysis.Analyze (which
// transform and compile also run internally) and the compile for the
// other engine are timed beside it.
func replayUpload(ctx context.Context, tr *tracer, op int64, m uploadModule, engine string, probes []registry.Probe) (*peg.Grammar, *peg.Grammar, *vm.Program, error) {
	name := uploadSlots[m.slot].name
	root := tr.begin(spanReplay, -1, op)
	id := tr.begin(spanSyntax, root, op)
	_, err := syntax.ParseString(name+".mpeg", m.source)
	tr.end(id)
	if err != nil {
		tr.end(root)
		return nil, nil, nil, err
	}
	id = tr.begin(spanCompose, root, op)
	g, err := core.Compose(name, core.MultiResolver{core.MapResolver{name: m.source}, grammars.Resolver()})
	tr.end(id)
	if err != nil {
		tr.end(root)
		return nil, nil, nil, err
	}
	id = tr.begin(spanTransform, root, op)
	tg, _, err := transform.Apply(g, transform.Defaults())
	tr.end(id)
	if err != nil {
		tr.end(root)
		return nil, nil, nil, err
	}
	compile := func(name string, opts vm.Options, parent int) (*vm.Program, error) {
		id := tr.begin(name, parent, op)
		defer tr.end(id)
		return vm.Compile(tg, opts)
	}
	used, other := vm.Optimized(), vm.CompiledEngine()
	usedSpan, otherSpan := spanCompile, spanCompileClose
	if engine == "compiled" {
		used, other = other, used
		usedSpan, otherSpan = otherSpan, usedSpan
	}
	prog, err := compile(usedSpan, used, root)
	if err != nil {
		tr.end(root)
		return nil, nil, nil, err
	}
	id = tr.begin(spanSmoke, root, op)
	err = smoke(ctx, prog, probes)
	tr.end(id)
	tr.end(root)
	if err != nil {
		return nil, nil, nil, err
	}

	id = tr.begin(spanAnalyze, -1, op)
	analysis.Analyze(g)
	tr.end(id)
	if _, err := compile(otherSpan, other, -1); err != nil {
		return nil, nil, nil, err
	}
	return g, tg, prog, nil
}

// smoke parses the probes as the registry does before activation.
func smoke(ctx context.Context, prog *vm.Program, probes []registry.Probe) error {
	for _, p := range probes {
		_, _, err := prog.ParseContext(ctx, text.NewSource(p.Name, p.Input), modpeg.Limits{MaxParseDuration: 2 * time.Second})
		var pe *modpeg.ParseError
		if p.Fail != (err != nil) || (err != nil && !errors.As(err, &pe)) {
			return fmt.Errorf("probe %q: unexpected outcome %v", p.Name, err)
		}
	}
	return nil
}
