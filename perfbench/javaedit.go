package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"modpeg"
	"modpeg/internal/vm"
	"modpeg/internal/workload"
)

// java-edit: in-process library use, no HTTP. Seeded 64 KB java.core
// documents are opened with Parser.NewDocument at the default engine,
// then edited by a fixed, seeded script of byte, line and 10%-blob
// edits, each an insert followed by its inverse, with Document.Apply.

const (
	editDocs = 2
	// editsPerDoc is large so that each run's share of edits that
	// leave a syntax error (a full reparse, about ten times a normal
	// Apply) varies little from seed to seed.
	editsPerDoc = 24
	editDocSize = 64 << 10
)

// editStep is one edit pair of the script and the reference outcome of
// the text after its insert (its delete restores the document).
type editStep struct {
	pair workload.EditPair
	want expect
}

type editDoc struct {
	text  string
	want  expect
	steps []editStep
}

type editInputs struct{ docs []editDoc }

// editPair builds the k-th edit of a script: byte, line and blob edits
// in turn, each at the statement or literal nearest the middle of a
// seeded prefix of the document, so positions spread over its last
// seven eighths. A blob is 10% of the whole document.
func editPair(rng *rand.Rand, text string, k int) workload.EditPair {
	cut := len(text)/8 + rng.Intn(len(text)*7/8)
	prefix := text[:cut]
	switch k % 3 {
	case 0:
		return workload.JavaEditByte(prefix)
	case 1:
		return workload.JavaEditLine(prefix)
	default:
		return workload.JavaEditBlob(prefix, 0.10*float64(len(text))/float64(len(prefix)))
	}
}

// generateEdit builds the documents and their edit scripts from seed.
func generateEdit(seed int64) *editInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &editInputs{}
	for d := 0; d < editDocs; d++ {
		doc := editDoc{text: workload.JavaProgram(workload.Config{Seed: rng.Int63(), Size: editDocSize})}
		for k := 0; k < editsPerDoc; k++ {
			doc.steps = append(doc.steps, editStep{pair: editPair(rng, doc.text, k)})
		}
		in.docs = append(in.docs, doc)
	}
	return in
}

// reference computes the reference outcome of every document and of
// every text its script's inserts produce.
func (in *editInputs) reference() error {
	ref, err := referenceParser("java.core", nil)
	if err != nil {
		return err
	}
	type task struct {
		want *expect
		text string
	}
	var tasks []task
	for d := range in.docs {
		doc := &in.docs[d]
		tasks = append(tasks, task{&doc.want, doc.text})
		for k := range doc.steps {
			ins := doc.steps[k].pair.Insert
			tasks = append(tasks, task{&doc.steps[k].want, doc.text[:ins.Off] + ins.Text + doc.text[ins.Off:]})
		}
	}
	return parallel(len(tasks), func(i int) error {
		var err error
		*tasks[i].want, err = treeExpect(ref.Parse("doc", tasks[i].text))
		return err
	})
}

func runJavaEdit(ctx context.Context, cfg config) (*outcome, error) {
	in := generateEdit(cfg.seed)
	if err := in.reference(); err != nil {
		return nil, err
	}
	return javaEdit(ctx, cfg, in)
}

// editLayers accumulates the incremental reparse counts Apply returns.
type editLayers struct {
	applies                        int64
	reused, invalidated, relocated int64
}

func javaEdit(ctx context.Context, cfg config, in *editInputs) (*outcome, error) {
	setup, p, err := timeSetups(func() (*modpeg.Parser, error) { return modpeg.New("java.core") }, func(*modpeg.Parser) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{tally: &tally{}, named: newReport()}
	if cfg.trace {
		out.spans = newTracer()
	}
	check := func(want expect, v modpeg.Value, err error, what string) {
		if err := want.checkTree(v, err); err != nil {
			out.tally.check(fmt.Errorf("%s: %w", what, err))
			return
		}
		out.tally.check(nil)
	}

	// Warm-up: open the first document and run its script once.
	d0 := &in.docs[0]
	warm := p.NewDocument("doc", d0.text)
	check(d0.want, warm.Value(), warm.Err(), "warm-up open")
	for k, s := range d0.steps {
		v, _, err := warm.Apply(s.pair.Insert)
		check(s.want, v, err, fmt.Sprintf("warm-up edit %d", k))
		v, _, err = warm.Apply(s.pair.Delete)
		check(d0.want, v, err, fmt.Sprintf("warm-up undo %d", k))
	}

	var (
		parses, applies  series
		traced, untraced []float64 // Apply latencies in ms, for trace.overhead_pct
		acc              parseLayers
		inc              editLayers
		doc              *modpeg.Document
		start            time.Time
	)
	// apply times one Apply; the spans of a traced run cover every other
	// edit pair (see tracer.alternate).
	apply := func(e modpeg.Edit, op int64) (modpeg.Value, error) {
		t0 := time.Now()
		v, st, err := doc.Apply(e)
		t1 := time.Now()
		tr := out.spans.alternate(op)
		tr.record(spanApply, t0, t1, -1, op)
		applies.add(t1.Sub(start), t1.Sub(t0), 0)
		if ms := float64(t1.Sub(t0)) / 1e6; tr != nil {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
		inc.applies++
		inc.reused += int64(st.MemoReused)
		inc.invalidated += int64(st.MemoInvalidated)
		inc.relocated += int64(st.MemoRelocated)
		return v, err
	}
	// The window extends until the whole-window p99 and every part's
	// p90 and median have the samples they need.
	enough := func() bool {
		w := time.Since(start)
		return len(applies.ms) >= minSamples(99) && applies.partsHave(w, segments, minSamples(90)) && parses.partsHave(w, segments, 1)
	}
	full0 := vm.Metrics().IncrementalFullReparses
	gc0 := gcNow()
	start = time.Now()
	deadline := start.Add(cfg.window)
	for d := 0; (time.Now().Before(deadline) || !enough()) && ctx.Err() == nil; d++ {
		ed := &in.docs[d%len(in.docs)]
		op := int64(d) * int64(len(ed.steps)+1)
		t0 := time.Now()
		doc = p.NewDocument("doc", ed.text)
		t1 := time.Now()
		out.spans.record(spanParse, t0, t1, -1, op)
		parses.add(t1.Sub(start), t1.Sub(t0), 0)
		acc.addParse(doc.Stats(), len(ed.text), memDelta{})
		check(ed.want, doc.Value(), doc.Err(), fmt.Sprintf("open doc %d", d%len(in.docs)))
		for k, s := range ed.steps {
			v, err := apply(s.pair.Insert, op+1+int64(k))
			check(s.want, v, err, fmt.Sprintf("doc %d edit %d", d%len(in.docs), k))
			v, err = apply(s.pair.Delete, op+1+int64(k))
			check(ed.want, v, err, fmt.Sprintf("doc %d undo %d", d%len(in.docs), k))
		}
	}
	elapsed := time.Since(start)
	gcw := gcNow().since(gc0)
	fullReparses := vm.Metrics().IncrementalFullReparses - full0
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out.named.set("setup_s", median(setup), "s")
	out.named.parts("doc_parse_ms", "ms", &parses, elapsed, segments, medianOf)
	out.named.parts("edit_p50_ms", "ms", &applies, elapsed, segments, medianOf)
	out.named.parts("edit_p90_ms", "ms", &applies, elapsed, segments, p90Of)
	out.named.pct("edit_p99_ms", applies.ms, 99)
	out.named.parts("edits_per_s", "1/s", &applies, elapsed, 1, perBusySecond)
	out.extra = map[string]any{"documents": len(parses.ms), "applies": len(applies.ms), "doc_bytes": editDocSize, "edits_per_doc": editsPerDoc}

	if !cfg.trace {
		in.docs = nil // the heap figure is the open document's, not the inputs'
		out.named.set("retained_heap_mb", liveHeapMB(), "MB")
		runtime.KeepAlive(doc)
		out.e2e = endToEnd(out.named, "edit_p50_ms", "edit_p90_ms", "doc_parse_ms", "edits_per_s")
		return out, nil
	}

	heap := liveHeapMB()
	held := heap - liveHeapMB()
	runtime.KeepAlive(doc)
	spans := out.spans.snapshot()
	sum, count := layerTimes(spans)
	vals := map[string]float64{
		"runtime.pool_held_mb":      held,
		"runtime.gc_cycles":         float64(gcw.cycles),
		"runtime.gc_pause_ms":       float64(gcw.pauseNS) / 1e6,
		"incremental.apply_ms":      meanSelf(sum, count, spanApply, time.Millisecond),
		"incremental.full_reparses": float64(fullReparses),
		"trace.overhead_pct":        overheadPct(traced, untraced),
	}
	acc.fill(vals, sum, count)
	if inc.applies > 0 {
		n := float64(inc.applies)
		vals["incremental.memo_reused"] = float64(inc.reused) / n
		vals["incremental.memo_invalidated"] = float64(inc.invalidated) / n
		vals["incremental.memo_relocated"] = float64(inc.relocated) / n
		vals["incremental.reuse_ratio"] = float64(inc.reused) / float64(max(inc.reused+inc.invalidated, 1))
	}
	// Allocations of a full valued parse, measured outside the window
	// because reading them stops the world.
	var alloc memDelta
	for _, ed := range in.docs {
		m0 := memNow()
		p.NewDocument("doc", ed.text)
		d := memNow().since(m0)
		alloc.bytes += d.bytes
		alloc.allocs += d.allocs
	}
	vals["vm.alloc_bytes"] = float64(alloc.bytes) / float64(len(in.docs))
	vals["vm.allocs"] = float64(alloc.allocs) / float64(len(in.docs))
	out.layers = layerReport(vals)
	return out, nil
}
