package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer: its name (the
// layer metric it feeds), when it started and ended relative to the
// tracer's origin, the span that caused it (-1 for a root) and the
// operation it belongs to. Spans of one operation share op.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int64         `json:"op"`
}

// tracer keeps spans in memory; it is written out once, when the run
// ends. A nil *tracer records nothing, which is how untraced runs call
// the same code at the cost of a nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, start, end time.Time, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile stores the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval covered by its children. Children that overlap
// one another are counted once, and a child's part outside its
// parent's interval is ignored. Unfinished spans have self time 0.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		out[i] = s.End - s.Start - covered(s.Start, s.End, children[i])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of kids'
// intervals.
func covered(lo, hi time.Duration, kids []span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total time.Duration
	cur := lo // everything before cur is already counted
	for _, k := range kids {
		start, end := max(k.Start, cur), min(k.End, hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// layerTimes sums self time by span name and counts the spans of each
// name.
func layerTimes(spans []span) (sum map[string]time.Duration, count map[string]int) {
	self := selfTimes(spans)
	sum, count = map[string]time.Duration{}, map[string]int{}
	for i, s := range spans {
		sum[s.Name] += self[i]
		count[s.Name]++
	}
	return sum, count
}

// meanSelf is the mean self time of the spans named name, in unit
// (e.g. time.Millisecond); 0 when there are none.
func meanSelf(sum map[string]time.Duration, count map[string]int, name string, unit time.Duration) float64 {
	if count[name] == 0 {
		return 0
	}
	return float64(sum[name]) / float64(count[name]) / float64(unit)
}

// alternate returns t for even operations and nil for odd ones: a
// traced run records spans for every other operation of its window, so
// that trace.overhead_pct can compare the traced operations with the
// untraced ones of the same run.
func (t *tracer) alternate(op int64) *tracer {
	if op%2 != 0 {
		return nil
	}
	return t
}

// overheadPct is how much slower, in percent, the median traced
// operation ran than the median untraced one.
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(untraced) - 1)
}
