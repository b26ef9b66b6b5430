package vm

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/text"
	"modpeg/internal/transform"
)

// buildWith is build with explicit transform options, for tests that
// need the grammar structure preserved (no inlining).
func buildWith(t *testing.T, body string, topts transform.Options, opts Options) *Program {
	t.Helper()
	g := grammarOf(t, body)
	out, _, err := transform.Apply(g, topts)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	prog, err := Compile(out, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// parseProfiled parses src with a fresh Profiler installed and returns
// the profile of that one parse.
func parseProfiled(p *Program, src *text.Source) (ast.Value, Stats, *Profile, error) {
	pr := p.NewProfiler()
	val, stats, err := p.ParseRequest(context.Background(), src, Request{Hook: pr})
	return val, stats, pr.Profile(), err
}

// TestProfileMatchesStats cross-checks the profiler against the
// engine's own counters on every engine configuration: per-production
// calls must sum to Stats.Calls, memo hits to Stats.MemoHits, memo
// misses to Stats.MemoMisses, and whole-production dispatch skips can
// not exceed Stats.DispatchSkips (which additionally counts
// choice-alternative skips inside production bodies).
func TestProfileMatchesStats(t *testing.T) {
	src := text.NewSource("in", "(1+2)*3 - 4*(5-6)")
	for _, cfg := range engineConfigs {
		prog := build(t, calcGrammar, cfg)
		val, stats, prof, err := parseProfiled(prog, src)
		if err != nil {
			t.Fatalf("cfg %v: %v", cfg, err)
		}
		if val == nil {
			t.Fatalf("cfg %v: no value", cfg)
		}
		var hits, misses, skips int64
		for _, pp := range prof.Prods {
			hits += pp.MemoHits
			misses += pp.MemoMisses
			skips += pp.DispatchSkips
		}
		if got := prof.TotalCalls(); got != int64(stats.Calls) {
			t.Errorf("cfg %v: profile calls %d, stats calls %d", cfg, got, stats.Calls)
		}
		if hits != int64(stats.MemoHits) {
			t.Errorf("cfg %v: profile hits %d, stats hits %d", cfg, hits, stats.MemoHits)
		}
		if misses != int64(stats.MemoMisses) {
			t.Errorf("cfg %v: profile misses %d, stats misses %d", cfg, misses, stats.MemoMisses)
		}
		if skips > int64(stats.DispatchSkips) {
			t.Errorf("cfg %v: profile skips %d > stats skips %d", cfg, skips, stats.DispatchSkips)
		}
		// The profiled value must match the unprofiled parse.
		want, wantStats, err := prog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if ast.Format(val) != ast.Format(want) {
			t.Errorf("cfg %v: profiled value drift", cfg)
		}
		if stats != wantStats {
			t.Errorf("cfg %v: profiled stats drift: %v vs %v", cfg, stats, wantStats)
		}
	}
}

// TestProfileTimesAndFarthest sanity-checks the derived fields: self
// time sums into cumulative time, the root's cumulative time dominates,
// and farthest positions are within the input.
func TestProfileTimesAndFarthest(t *testing.T) {
	src := text.NewSource("in", "1+2*3")
	prog := build(t, calcGrammar, Optimized())
	_, _, prof, err := parseProfiled(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	var totalSelf, maxCum int64
	for _, pp := range prof.Prods {
		if pp.SelfNanos < 0 || pp.CumNanos < 0 {
			t.Fatalf("%s: negative time self=%d cum=%d", pp.Name, pp.SelfNanos, pp.CumNanos)
		}
		if pp.Calls > 0 && pp.SelfNanos > pp.CumNanos {
			t.Errorf("%s: self %d > cum %d", pp.Name, pp.SelfNanos, pp.CumNanos)
		}
		if pp.FarthestPos > src.Len() {
			t.Errorf("%s: farthest %d beyond input %d", pp.Name, pp.FarthestPos, src.Len())
		}
		totalSelf += pp.SelfNanos
		if pp.CumNanos > maxCum {
			maxCum = pp.CumNanos
		}
	}
	// Self time partitions the root's cumulative time (both cover the
	// whole parse once, modulo clock granularity on either side).
	if totalSelf == 0 || maxCum == 0 {
		t.Fatalf("no time recorded: self=%d maxCum=%d", totalSelf, maxCum)
	}
}

// TestProfileBacktrackedBytes drives a production that consumes input
// via a sub-production and then fails, and expects the consumed bytes
// charged to it.
func TestProfileBacktrackedBytes(t *testing.T) {
	prog := buildWith(t, `
option root = S;
public S = B !. / A "y" !. ;
B = A "x" ;
A = $("aaa") ;
`, transform.Baseline(), Options{Memoize: true})
	_, _, prof, err := parseProfiled(prog, text.NewSource("in", "aaay"))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ProdProfile{}
	for _, pp := range prof.Prods {
		byName[pp.Name] = pp
	}
	// B entered A (which matched 3 bytes) and then failed on "x".
	if got := byName["m.B"].BacktrackedBytes; got != 3 {
		t.Errorf("B backtracked %d bytes, want 3", got)
	}
	// A succeeded on its only evaluation; the second use was a memo hit.
	if a := byName["m.A"]; a.Calls != 1 || a.MemoHits != 1 || a.BacktrackedBytes != 0 {
		t.Errorf("A profile = %+v, want 1 call, 1 memo hit, 0 backtracked", a)
	}
}

// TestProfilerAggregatesAcrossParses installs one Profiler on a session
// for several parses and checks the aggregate equals the sum of
// per-parse stats.
func TestProfilerAggregatesAcrossParses(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	s := prog.NewSession()
	pr := prog.NewProfiler()
	var want int64
	for _, in := range []string{"1+2", "3*4*5", "(1+2)*(3+4)", "7"} {
		_, stats, err := s.ParseRequest(context.Background(), text.NewSource("in", in), Request{Hook: pr})
		if err != nil {
			t.Fatal(err)
		}
		want += int64(stats.Calls)
	}
	if got := pr.Profile().TotalCalls(); got != want {
		t.Errorf("aggregated calls %d, want %d", got, want)
	}
	// Profile() snapshots without resetting: a later snapshot includes
	// earlier parses.
	if _, _, err := s.ParseRequest(context.Background(), text.NewSource("in", "8+9"), Request{Hook: pr}); err != nil {
		t.Fatal(err)
	}
	if got := pr.Profile().TotalCalls(); got <= want {
		t.Errorf("snapshot after another parse %d, want > %d", got, want)
	}
}

// TestParseAllProfiledAggregation fans a batch across workers with
// sampling at 1-in-1 and checks the label's rolling profile against the
// aggregated per-input stats — run under -race by scripts/verify.sh,
// this also proves the workers' sampled profilers never share state.
func TestParseAllProfiledAggregation(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	t.Cleanup(ResetSampledProfiles)
	ctx := context.Background()
	var srcs []*text.Source
	for i := 0; i < 48; i++ {
		in := fmt.Sprintf("%d+%d*%d", i, i+1, i+2)
		if i%9 == 4 { // sprinkle failures through the batch
			in += "+"
		}
		srcs = append(srcs, text.NewSource(fmt.Sprintf("in%d", i), in))
	}
	for _, workers := range []int{0, 1, 4, 64} {
		plain := prog.ParseAll(ctx, srcs, workers, Limits{})
		label := fmt.Sprintf("test/batch-profile-w%d@v1", workers)
		prog.SetLabel(label)
		prog.SetSampling(1)
		results := prog.ParseAll(ctx, srcs, workers, Limits{})
		prog.SetSampling(0)
		if len(results) != len(srcs) {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		sp, ok := SampledProfileFor(label)
		if !ok {
			t.Fatalf("workers=%d: no sampled profile", workers)
		}
		if sp.Parses != int64(len(srcs)) {
			t.Errorf("workers=%d: sampled parses %d, want %d", workers, sp.Parses, len(srcs))
		}
		total := TotalStats(results)
		var calls, hits int64
		for _, pp := range sp.Productions {
			calls += pp.Calls
			hits += pp.MemoHits
		}
		if calls != int64(total.Calls) {
			t.Errorf("workers=%d: profile calls %d, stats calls %d", workers, calls, total.Calls)
		}
		if hits != int64(total.MemoHits) {
			t.Errorf("workers=%d: profile hits %d, stats hits %d", workers, hits, total.MemoHits)
		}
		// Results must match the unprofiled batch.
		for i := range plain {
			if (plain[i].Err == nil) != (results[i].Err == nil) {
				t.Fatalf("workers=%d input %d: err drift", workers, i)
			}
			if !ast.Equal(plain[i].Value, results[i].Value) {
				t.Fatalf("workers=%d input %d: value drift", workers, i)
			}
		}
	}
}

// TestProfileAddAndTop covers merging and the hottest-first ordering.
func TestProfileAddAndTop(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	src := text.NewSource("in", "1+2*3")
	_, _, a, err := parseProfiled(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	_, _, b, err := parseProfiled(prog, src)
	if err != nil {
		t.Fatal(err)
	}
	sum := prog.NewProfile()
	sum.Add(a)
	sum.Add(b)
	if got, want := sum.TotalCalls(), a.TotalCalls()+b.TotalCalls(); got != want {
		t.Errorf("merged calls %d, want %d", got, want)
	}
	top := sum.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d rows", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].SelfNanos > top[i-1].SelfNanos {
			t.Errorf("Top not sorted: %d ns after %d ns", top[i].SelfNanos, top[i-1].SelfNanos)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Add of mismatched profiles must panic")
		}
	}()
	sum.Add(&Profile{Prods: make([]ProdProfile, 1)})
}

// TestProfileReportAndJSON checks the rendered table (total row sums
// every production even when top-N truncates) and the JSON encoding.
func TestProfileReportAndJSON(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	_, stats, prof, err := parseProfiled(prog, text.NewSource("in", "(1+2)*3-4"))
	if err != nil {
		t.Fatal(err)
	}
	report := prof.Report(2)
	if !strings.Contains(report, "production") || !strings.Contains(report, "self-ms") {
		t.Fatalf("report missing header:\n%s", report)
	}
	if !strings.Contains(report, fmt.Sprintf("total  %d", stats.Calls)) &&
		!strings.Contains(report, "total") {
		t.Fatalf("report missing total row:\n%s", report)
	}
	// The total row's calls cell must equal Stats.Calls even though the
	// table shows only 2 productions.
	lines := strings.Split(strings.TrimSpace(report), "\n")
	last := strings.Fields(lines[len(lines)-1])
	if last[0] != "total" || last[1] != fmt.Sprint(stats.Calls) {
		t.Fatalf("total row = %v, want calls %d", last, stats.Calls)
	}

	data, err := prof.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TotalCalls  int64         `json:"total_calls"`
		Productions []ProdProfile `json:"productions"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if decoded.TotalCalls != int64(stats.Calls) {
		t.Errorf("JSON total_calls %d, want %d", decoded.TotalCalls, stats.Calls)
	}
	if len(decoded.Productions) == 0 || decoded.Productions[0].Name == "" {
		t.Errorf("JSON productions malformed: %+v", decoded.Productions)
	}
}

// TestStatsStringIncludesChunkRows locks in the Stats.String fix: the
// formatted output must include every counter Add accumulates,
// ChunkRows included.
func TestStatsStringIncludesChunkRows(t *testing.T) {
	s := Stats{Calls: 1, MemoHits: 2, MemoMisses: 3, MemoStores: 4,
		DispatchSkips: 5, ChunksAllocated: 6, ChunkRows: 7, MemoBytes: 8, MaxPos: 9}
	got := s.String()
	if !strings.Contains(got, "chunkRows=7") {
		t.Fatalf("Stats.String() = %q, missing chunkRows", got)
	}
	// And a real chunked parse reports a nonzero row count.
	prog := build(t, calcGrammar, Optimized())
	_, stats, err := prog.Parse(text.NewSource("in", "1+2*3"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunkRows == 0 {
		t.Fatal("chunked parse recorded no chunk rows")
	}
	if !strings.Contains(stats.String(), fmt.Sprintf("chunkRows=%d", stats.ChunkRows)) {
		t.Fatalf("Stats.String() = %q, wrong chunkRows", stats.String())
	}
}
