package main

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[len(s)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	if v, err := percentile(s, 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(s, 91); err == nil {
		t.Fatal("p91 of 100 samples has 9 above it and must be refused")
	}
	if _, err := percentile(s[:99], 50); err != nil {
		t.Fatalf("p50 of 99 samples: %v", err)
	}
	if got := minSamples(99); got != 1000 {
		t.Fatalf("minSamples(99) = %d, want 1000", got)
	}
	if got := minSamples(90); got != 100 {
		t.Fatalf("minSamples(90) = %d, want 100", got)
	}
	big := make([]float64, 999)
	if _, err := percentile(big, 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 above it and must be refused")
	}
	if _, err := percentile(append(big, 0), 99); err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
}

func TestPartMedianIgnoresOneDisturbedPart(t *testing.T) {
	var s series
	// Five one-second parts of 2ms operations, 200 each; in the fourth,
	// outside load makes every operation take 10ms, and in the second a
	// tenth of them take 5ms.
	for seg := 0; seg < segments; seg++ {
		for i := 0; i < 200; i++ {
			d := ms(2)
			switch {
			case seg == 3:
				d = ms(10)
			case seg == 1 && i%10 == 0:
				d = ms(5)
			}
			s.add(time.Duration(seg)*time.Second+time.Duration(i)*ms(5), d, i%4)
		}
	}
	window := segments * time.Second
	check := func(name string, stat func(series) (float64, error), want float64) {
		t.Helper()
		got, err := s.overParts(window, segments, stat)
		if err != nil || math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, %v; want %v", name, got, err, want)
		}
	}
	check("median", medianOf, 2)
	check("p90", p90Of, 2)
	check("wall rate", perSecond(time.Second), 200)
	check("busy rate", perBusySecond, 500)
	if _, err := s.overParts(window, 50, p90Of); err == nil {
		t.Error("p90 of 20 samples per part must be refused")
	}
	if !s.partsHave(window, segments, 200) || s.partsHave(window, segments, 201) {
		t.Error("partsHave must accept 200 samples in each part and refuse 201")
	}
	// A run whose second half is slower: the median part sees it.
	var drift series
	for seg := 0; seg < segments; seg++ {
		for i := 0; i < 100; i++ {
			d := ms(2)
			if seg >= 2 {
				d = ms(3)
			}
			drift.add(time.Duration(seg)*time.Second+time.Duration(i)*ms(10), d, 0)
		}
	}
	if got, _ := drift.overParts(window, segments, medianOf); got != 3 {
		t.Errorf("median over parts of a run that slowed down after two parts = %v, want 3", got)
	}
	// Parts are cut by completion time: a window with its samples in
	// the first half leaves the later parts short.
	var early series
	for i := 0; i < 500; i++ {
		early.add(time.Duration(i)*ms(5), ms(1), 0)
	}
	if early.partsHave(window, segments, 1) {
		t.Error("partsHave must refuse a window whose last parts are empty")
	}
}

func TestOverheadComparesTracedWithUntraced(t *testing.T) {
	var tr *tracer
	if tr.alternate(0) != nil {
		t.Fatal("a nil tracer must stay nil")
	}
	tr = newTracer()
	if tr.alternate(4) != tr || tr.alternate(5) != nil {
		t.Fatal("alternate must trace even operations only")
	}
	if got := overheadPct([]float64{1.1, 1.1, 5}, []float64{1, 1, 1}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("overheadPct = %v, want 10", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},      // overlaps a
		{Name: "c", Start: ms(35), End: ms(45), Parent: 0},      // inside a and b
		{Name: "d", Start: ms(90), End: ms(120), Parent: 0},     // runs past the parent
		{Name: "e", Start: ms(12), End: ms(20), Parent: 1},      // a's child
		{Name: "open", Start: ms(50), End: -1, Parent: 0},       // never ended
		{Name: "other", Start: ms(0), End: ms(100), Parent: -1}, // no children
	}
	got := selfTimes(spans)
	// parent: covered [10,60) and [90,100) = 60ms, self 40ms.
	want := []time.Duration{ms(40), ms(22), ms(30), ms(10), ms(30), ms(8), 0, ms(100)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	sum, count := layerTimes(spans)
	if sum["parent"] != ms(40) || count["a"] != 1 {
		t.Fatalf("layerTimes: sum %v count %v", sum, count)
	}
	if m := meanSelf(sum, count, "parent", time.Millisecond); m != 40 {
		t.Fatalf("meanSelf = %v, want 40", m)
	}
}

func TestRemoteSelfSubtractsReplayedLayers(t *testing.T) {
	spans := []span{
		{Name: spanRoundtrip, Start: ms(0), End: ms(100), Parent: -1, Op: 1},
		{Name: spanRoundtrip, Start: ms(100), End: ms(150), Parent: -1, Op: 2}, // not replayed
		{Name: spanReplay, Start: ms(200), End: ms(270), Parent: -1, Op: 1},
		{Name: spanParse, Start: ms(200), End: ms(230), Parent: 2, Op: 1},
		{Name: spanEncode, Start: ms(240), End: ms(250), Parent: 2, Op: 1},
	}
	// Op 1's replay covers 40ms of layers, so 60ms of its round trip
	// is HTTP and server time; op 2 was not replayed and is left out.
	if got := remoteSelf(spans, spanRoundtrip); got != 60 {
		t.Fatalf("remoteSelf = %v ms, want 60", got)
	}
}

func TestOpenLoopScheduleAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	for i, want := range []time.Duration{0, ms(10), ms(20), ms(1000)} {
		n := []int{0, 1, 2, 100}[i]
		if got := dueTime(start, n, 100).Sub(start); got != want {
			t.Errorf("request %d at 100/s due after %v, want %v", n, got, want)
		}
	}
	due := start.Add(ms(50))
	// Picked early, sent 2ms after due: the generator was late.
	if q, l := lateness(due, due.Add(-ms(5)), due.Add(ms(2))); q != 0 || l != ms(2) {
		t.Errorf("idle worker: queue %v late %v, want 0 and 2ms", q, l)
	}
	// Picked 7ms after due because both connections were busy, sent
	// 1ms later: 7ms of queueing, 1ms of lateness.
	if q, l := lateness(due, due.Add(ms(7)), due.Add(ms(8))); q != ms(7) || l != ms(1) {
		t.Errorf("busy worker: queue %v late %v, want 7ms and 1ms", q, l)
	}
}

// inputsFingerprint flattens every generated input of the three
// workloads, so seed determinism can be compared byte for byte.
func inputsFingerprint(seed int64) []byte {
	var b []byte
	s := generateServe(seed)
	for _, it := range s.items {
		b = append(b, it.body...)
	}
	for _, o := range s.order {
		b = append(b, byte(o), byte(o>>8))
	}
	u := generateUpload(seed)
	for _, m := range u.modules {
		b = append(b, byte(m.slot))
		b = append(b, m.source...)
	}
	for _, slot := range u.reads {
		for _, r := range slot {
			b = append(b, r...)
		}
	}
	e := generateEdit(seed)
	for _, d := range e.docs {
		b = append(b, d.text...)
		for _, st := range d.steps {
			raw, _ := json.Marshal(st.pair)
			b = append(b, raw...)
		}
	}
	return b
}

func TestSeedDeterminism(t *testing.T) {
	a, b := inputsFingerprint(7), inputsFingerprint(7)
	if string(a) != string(b) {
		t.Fatal("the same seed produced different inputs")
	}
	if c := inputsFingerprint(8); string(a) == string(c) {
		t.Fatal("different seeds produced identical inputs")
	}
}

// smallServe is a serve-mix corpus cut down to documents of at most
// 1 KB, so a test run and its reference are quick.
func smallServe(t *testing.T, seed int64) *serveInputs {
	t.Helper()
	in := generateServe(seed)
	var items []serveItem
	for _, it := range in.items {
		if len(it.input) <= 1<<10 {
			items = append(items, it)
		}
	}
	in.items, in.order = items, nil
	for i := 0; i < 50*len(items); i++ {
		in.order = append(in.order, i%len(items))
	}
	if err := in.reference(); err != nil {
		t.Fatal(err)
	}
	return in
}

// waitGoroutines waits until the goroutine count falls back to n.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, want %d:\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func assertClosed(t *testing.T, addr string) {
	t.Helper()
	if addr == "" {
		t.Fatal("the run reported no server address")
	}
	host := addr[len("http://"):]
	if c, err := net.DialTimeout("tcp", host, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after the run", host)
	}
}

func TestServeMixLeavesNothingRunning(t *testing.T) {
	in := smallServe(t, 3)
	before := runtime.NumGoroutine()
	out, err := serveMix(context.Background(), config{window: 500 * time.Millisecond}, in)
	if err != nil {
		t.Fatal(err)
	}
	if n := out.tally.failed.Load(); n != 0 || out.tally.attempted.Load() == 0 {
		t.Fatalf("%d of %d checks failed: %v", n, out.tally.attempted.Load(), out.tally.messages())
	}
	assertClosed(t, out.addr)
	waitGoroutines(t, before)
}

func TestCanceledRunLeavesNothingRunning(t *testing.T) {
	in := generateUpload(4)
	if err := in.reference(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(2*time.Second, cancel) // mid-window, as SIGINT would
	out, err := tenantUpload(ctx, config{window: time.Minute}, in)
	if err == nil {
		t.Fatalf("canceled run returned no error (outcome %+v)", out)
	}
	waitGoroutines(t, before)
}

func TestCorruptedReferenceIsCaught(t *testing.T) {
	in := smallServe(t, 5)
	in.items[0].want.value ^= 1
	if in.items[0].want.errPos >= 0 {
		in.items[0].want.errPos++
	}
	out, err := serveMix(context.Background(), config{window: 300 * time.Millisecond}, in)
	if err != nil {
		t.Fatal(err)
	}
	if out.tally.failed.Load() == 0 {
		t.Fatal("a corrupted reference value went unnoticed")
	}
}

func TestCorruptedEditReferenceIsCaught(t *testing.T) {
	p := generateEdit(6)
	p.docs = p.docs[:1]
	p.docs[0].steps = p.docs[0].steps[:3]
	if err := p.reference(); err != nil {
		t.Fatal(err)
	}
	p.docs[0].steps[1].want.value ^= 1
	out, err := javaEdit(context.Background(), config{window: time.Millisecond}, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.tally.failed.Load() == 0 {
		t.Fatal("a corrupted reference value went unnoticed")
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the code in step:
// the workloads, the end-to-end metrics every workload fills, and the
// per-layer list with units and directions.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for n := range workloads {
		code = append(code, n)
	}
	sort.Strings(names)
	sort.Strings(code)
	if !reflect.DeepEqual(names, code) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, code)
	}
	named := newReport()
	named.set("setup_s", 1, "s")
	named.set("p50", 1, "ms")
	named.set("tail", 1, "ms")
	named.set("aux", 1, "ms")
	named.set("ops", 1, "1/s")
	named.set("retained_heap_mb", 1, "MB")
	e2e := endToEnd(named, "p50", "tail", "aux", "ops")
	if len(e2e.vals) != len(b.EndToEnd) {
		t.Errorf("end-to-end: BENCHMARK.json lists %d, code fills %d", len(b.EndToEnd), len(e2e.vals))
	}
	for _, m := range b.EndToEnd {
		if q, ok := e2e.vals[m.Name]; !ok || q.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): code has %+v", m.Name, m.Unit, q)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("per-layer: BENCHMARK.json lists %d, code %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if c := layerMetrics[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, c)
		}
	}
}
