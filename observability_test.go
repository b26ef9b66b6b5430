package modpeg

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestParseWithProfileFacade checks the public profiling hook on a
// bundled grammar: the profile's call total must equal the engine's own
// Stats.Calls, and the parse result must not drift from Parse.
func TestParseWithProfileFacade(t *testing.T) {
	p, err := New("java.core")
	if err != nil {
		t.Fatal(err)
	}
	input := "class A { int f(int x) { return x * (x + 1); } }"
	pr := p.NewProfiler()
	v, stats, err := p.ParseRequest(context.Background(), "in", input, Request{Hook: pr})
	prof := pr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Parse("in", input)
	if err != nil {
		t.Fatal(err)
	}
	if !ValuesEqual(v, want) {
		t.Fatalf("profiled value drift: %s vs %s", FormatValue(v), FormatValue(want))
	}
	if got := prof.TotalCalls(); got != int64(stats.Calls) {
		t.Errorf("profile calls %d, stats calls %d", got, stats.Calls)
	}
	report := prof.Report(10)
	if !strings.Contains(report, "production") || !strings.Contains(report, "total") {
		t.Fatalf("malformed report:\n%s", report)
	}
	// Session facade agrees.
	sPr := p.NewProfiler()
	_, sStats, err := p.NewSession().ParseRequest(context.Background(), "in", input, Request{Hook: sPr})
	if err != nil {
		t.Fatal(err)
	}
	sProf := sPr.Profile()
	if sProf.TotalCalls() != int64(sStats.Calls) || sStats != stats {
		t.Errorf("session profile drift: %d calls vs stats %v", sProf.TotalCalls(), sStats)
	}
}

// TestProfilerHookFacade aggregates one Profiler across parses driven
// through the public hook seam.
func TestProfilerHookFacade(t *testing.T) {
	p, err := New("calc.full")
	if err != nil {
		t.Fatal(err)
	}
	pr := p.NewProfiler()
	var want int64
	for _, in := range []string{"1+2**3", "4*5", "(1+2)*(3-4)"} {
		_, st, err := p.ParseRequest(context.Background(), "in", in, Request{Hook: pr})
		if err != nil {
			t.Fatal(err)
		}
		want += int64(st.Calls)
	}
	if got := pr.Profile().TotalCalls(); got != want {
		t.Errorf("aggregated calls %d, want %d", got, want)
	}
}

// TestParseBatchProfiledFacade profiles a batch through sampling at
// 1-in-1: the label's rolling profile must account for every call of the
// batch, and the results must equal the unprofiled batch.
func TestParseBatchProfiledFacade(t *testing.T) {
	p, err := New("json.value")
	if err != nil {
		t.Fatal(err)
	}
	p.SetLabel("test/batch-profile@v1")
	t.Cleanup(ResetSampledProfiles)
	var inputs []string
	for i := 0; i < 20; i++ {
		inputs = append(inputs, fmt.Sprintf(`{"k%d": [%d, true, "v"]}`, i, i))
	}
	inputs = append(inputs, "not json")
	ctx := context.Background()
	plain := p.ParseBatch(ctx, "doc", inputs, 4, Limits{})
	p.SetSampling(1)
	results := p.ParseBatch(ctx, "doc", inputs, 4, Limits{})
	p.SetSampling(0)
	if len(results) != len(inputs) {
		t.Fatalf("results = %d", len(results))
	}
	if results[len(results)-1].Err == nil {
		t.Fatal("invalid input must fail in place")
	}
	sp, ok := SampledProfileFor(p.Label())
	if !ok {
		t.Fatal("no sampled profile for the batch")
	}
	var calls int64
	for _, row := range sp.Productions {
		calls += row.Calls
	}
	if want := int64(BatchStats(results).Calls); calls != want {
		t.Errorf("batch profile calls %d, stats calls %d", calls, want)
	}
	for i := range plain {
		if (plain[i].Err == nil) != (results[i].Err == nil) || !ValuesEqual(plain[i].Value, results[i].Value) {
			t.Fatalf("input %d: profiled batch drifted from the unprofiled one", i)
		}
	}
}

// TestMetricsFacade exercises the registry snapshot through the public
// API.
func TestMetricsFacade(t *testing.T) {
	p, err := New("calc.core")
	if err != nil {
		t.Fatal(err)
	}
	ResetMetrics()
	if _, err := p.Parse("in", "1+2*3"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Parse("in", "1+"); err == nil {
		t.Fatal("expected syntax error")
	}
	m := Metrics()
	if m.ParsesStarted != 2 || m.ParsesCompleted != 1 || m.ParsesFailed != 1 {
		t.Errorf("metrics = %+v, want 2 started / 1 completed / 1 failed", m)
	}
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["parses_started"] != float64(2) {
		t.Errorf("JSON parses_started = %v", decoded["parses_started"])
	}
	if _, present := decoded["parse_duration_ns"]; !present {
		t.Error("JSON snapshot missing parse_duration_ns histogram")
	}
	ResetMetrics()
}
