package vm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// pathologicalGrammar triggers exponential backtracking without
// memoization: every level of nesting retries the expensive prefix.
const pathologicalGrammar = `
option root = S;
public S = E !. ;
E = "(" E ")" "x" / "(" E ")" "y" / "a" ;
`

// pathological returns the matching worst-case input of the given depth
// (every level takes the second alternative).
func pathological(depth int) string {
	return strings.Repeat("(", depth) + "a" + strings.Repeat(")y", depth)
}

// nested returns a depth-deep parenthesized expression for calcGrammar.
func nested(depth int) string {
	return strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth)
}

func limitErr(t *testing.T, err error, kind LimitKind) *LimitError {
	t.Helper()
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v (%T), want *LimitError", err, err)
	}
	if le.Kind != kind {
		t.Fatalf("limit kind = %v, want %v (%v)", le.Kind, kind, le)
	}
	return le
}

func TestLimitInputBytes(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	src := text.NewSource("in", strings.Repeat("1+", 600)+"1")
	_, _, err := prog.ParseContext(context.Background(), src, Limits{MaxInputBytes: 1000})
	le := limitErr(t, err, LimitInput)
	if le.Limit != 1000 || le.Actual != int64(src.Len()) {
		t.Fatalf("limit error = %+v", le)
	}
	// Under the limit, the parse must behave exactly like Parse.
	v, _, err := prog.ParseContext(context.Background(), src, Limits{MaxInputBytes: src.Len()})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := prog.Parse(src)
	if err != nil || !valuesEqual(v, want) {
		t.Fatalf("governed parse drifted: %v", err)
	}
}

func TestLimitCallDepth(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	deep := text.NewSource("in", nested(10000))
	_, _, err := prog.ParseContext(context.Background(), deep, Limits{MaxCallDepth: 500})
	le := limitErr(t, err, LimitDepth)
	if le.Limit != 500 {
		t.Fatalf("limit error = %+v", le)
	}
	// A shallow input parses fine under the same budget.
	if _, _, err := prog.ParseContext(context.Background(),
		text.NewSource("in", nested(20)), Limits{MaxCallDepth: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLimitDeadlineAdversarial(t *testing.T) {
	prog := build(t, pathologicalGrammar, Backtracking())
	// Depth 40 is ~2^40 production calls unbounded — days of work. The
	// 1 ms deadline must stop it within the acceptance bound of 50 ms.
	src := text.NewSource("in", pathological(40))
	start := time.Now()
	_, _, err := prog.ParseContext(context.Background(), src, Limits{MaxParseDuration: time.Millisecond})
	elapsed := time.Since(start)
	le := limitErr(t, err, LimitTime)
	if !errors.Is(le, context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want DeadlineExceeded", le.Cause)
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("1ms deadline took %v to fire, want <50ms", elapsed)
	}
}

func TestLimitContextDeadline(t *testing.T) {
	prog := build(t, pathologicalGrammar, Backtracking())
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	src := text.NewSource("in", pathological(40))
	start := time.Now()
	_, _, err := prog.ParseContext(ctx, src, Limits{})
	if time.Since(start) > 50*time.Millisecond {
		t.Fatalf("context deadline took %v to fire", time.Since(start))
	}
	// A context deadline surfaces through ctx.Err() as either kind
	// depending on which poll sees it first; both unwrap to the context.
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v (%T)", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v does not unwrap to DeadlineExceeded", err)
	}
}

func TestLimitCancel(t *testing.T) {
	prog := build(t, pathologicalGrammar, Backtracking())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := prog.ParseContext(ctx, text.NewSource("in", pathological(40)), Limits{})
	if time.Since(start) > 100*time.Millisecond {
		t.Fatalf("cancellation took %v to be honored", time.Since(start))
	}
	le := limitErr(t, err, LimitCanceled)
	if !errors.Is(le, context.Canceled) {
		t.Fatalf("cause = %v", le.Cause)
	}
}

func TestLimitPreCanceledContext(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := prog.ParseContext(ctx, text.NewSource("in", "1+2"), Limits{})
	limitErr(t, err, LimitCanceled)
}

// TestMemoShedding is the graceful-degradation contract: when the memo
// budget is hit the parse completes with the same value as an unlimited
// run, the modeled footprint stays within the budget, and the shed is
// recorded in stats, metrics, and the hook seam.
func TestMemoShedding(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	input := strings.Repeat("(1+2)*3-4+", 400) + "6"
	src := text.NewSource("in", input)
	want, full, err := prog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if full.MemoBytes == 0 {
		t.Fatal("workload too small: no memo footprint to bound")
	}
	budget := full.MemoBytes / 4
	ResetMetrics()
	shedHook := &recordingShedHook{}
	ps := prog.NewSession().ps
	ps.begin(src)
	ps.hook = shedHook // installed post-begin so the shed event is observable
	v, err := ps.runContext(context.Background(), Limits{MaxMemoBytes: budget})
	stats := ps.stats
	if err != nil {
		t.Fatalf("degraded parse failed: %v", err)
	}
	if !valuesEqual(v, want) {
		t.Fatal("degraded parse changed the semantic value")
	}
	if stats.MemoSheds != 1 {
		t.Fatalf("stats.MemoSheds = %d, want 1", stats.MemoSheds)
	}
	if stats.MemoBytes > budget {
		t.Fatalf("memo footprint %d exceeds budget %d after shedding", stats.MemoBytes, budget)
	}
	if m := Metrics(); m.MemoSheds != 1 || m.LimitStops != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if shedHook.sheds != 1 || shedHook.arenaBytes <= 0 {
		t.Fatalf("shed hook saw %d sheds, %d arena bytes", shedHook.sheds, shedHook.arenaBytes)
	}
}

// recordingShedHook counts shed events through the optional seam.
type recordingShedHook struct {
	sheds      int
	arenaBytes int
}

func (h *recordingShedHook) OnEnter(prod, pos int)              {}
func (h *recordingShedHook) OnExit(prod, pos, end int, ok bool) {}
func (h *recordingShedHook) OnMemoHit(prod, pos, end int, ok bool) {
}
func (h *recordingShedHook) OnFail(prod, pos int) {}
func (h *recordingShedHook) OnMemoShed(pos, arenaBytes int) {
	h.sheds++
	h.arenaBytes = arenaBytes
}

func TestMemoSheddingMapMemo(t *testing.T) {
	prog := build(t, calcGrammar, NaivePackrat())
	input := strings.Repeat("(1+2)*3-4+", 400) + "6"
	src := text.NewSource("in", input)
	want, full, err := prog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.MemoBytes / 4
	v, stats, err := prog.ParseContext(context.Background(), src, Limits{MaxMemoBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !valuesEqual(v, want) {
		t.Fatal("degraded map-memo parse changed the semantic value")
	}
	if stats.MemoSheds != 1 || stats.MemoBytes > budget {
		t.Fatalf("stats = %+v, budget %d", stats, budget)
	}
}

// TestMemoBudgetLeavesNoEmptyRow pins the row/chunk charging edge: a
// budget that can pay for a position's directory row but not for its
// first chunk must shed without installing the row, so every row in
// the table holds an entry (the invariant Document's row accounting
// relies on).
func TestMemoBudgetLeavesNoEmptyRow(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	chunkCount := (prog.memoCols + chunkSize - 1) / chunkSize
	budget := chunkCount*8 + chunkSize*memoEntrySize - 1
	_, stats, err := prog.ParseContext(context.Background(),
		text.NewSource("in", "(1+2)*3-4"), Limits{MaxMemoBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemoSheds != 1 || stats.ChunkRows != 0 || stats.ChunksAllocated != 0 {
		t.Fatalf("budget %d: stats = %+v, want one shed and no row or chunk", budget, stats)
	}
}

func TestStrictMemoLimit(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	input := strings.Repeat("(1+2)*3-4+", 400) + "6"
	src := text.NewSource("in", input)
	_, full, err := prog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ResetMetrics()
	_, _, err = prog.ParseContext(context.Background(), src,
		Limits{MaxMemoBytes: full.MemoBytes / 4, Strict: true})
	le := limitErr(t, err, LimitMemo)
	if le.Actual <= le.Limit {
		t.Fatalf("limit error = %+v", le)
	}
	if m := Metrics(); m.LimitStops != 1 || m.MemoSheds != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// panicHook panics from inside the parse, standing in for an engine bug.
type panicHook struct{ after int }

func (h *panicHook) OnEnter(prod, pos int) {
	h.after--
	if h.after <= 0 {
		panic("hook exploded")
	}
}
func (h *panicHook) OnExit(prod, pos, end int, ok bool)    {}
func (h *panicHook) OnMemoHit(prod, pos, end int, ok bool) {}
func (h *panicHook) OnFail(prod, pos int)                  {}

func TestPanicContainment(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	ResetMetrics()
	_, _, err := prog.ParseWithHook(text.NewSource("in", "1+2*3"), &panicHook{after: 5})
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v (%T), want *EngineError", err, err)
	}
	if ee.Panic != "hook exploded" || ee.Stack == "" {
		t.Fatalf("engine error = %+v", ee)
	}
	if !strings.Contains(ee.Error(), "hook exploded") {
		t.Fatalf("message = %q", ee.Error())
	}
	if m := Metrics(); m.PanicsContained != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	// The pooled parser must be reusable after containment.
	if _, _, err := prog.Parse(text.NewSource("in", "1+2*3")); err != nil {
		t.Fatalf("parse after contained panic: %v", err)
	}
}

// TestLimitErrorsAfterReuse checks that a pooled parser that hit a
// limit is fully rewound: the next ungoverned parse sees no budgets.
func TestLimitsDoNotLeakAcrossParses(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	s := prog.NewSession()
	deep := text.NewSource("in", nested(3000))
	if _, _, err := s.ParseContext(context.Background(), deep, Limits{MaxCallDepth: 100}); err == nil {
		t.Fatal("expected depth limit")
	}
	// Same session, no limits: must parse the same input fine.
	if _, _, err := s.Parse(deep); err != nil {
		t.Fatalf("session still governed after limit stop: %v", err)
	}
	// And a fresh governed parse with generous budgets succeeds.
	if _, _, err := s.ParseContext(context.Background(), deep, Limits{MaxCallDepth: 100000}); err != nil {
		t.Fatalf("generous budgets failed: %v", err)
	}
}

func TestParseAllContextCancelDrains(t *testing.T) {
	prog := build(t, pathologicalGrammar, Backtracking())
	// 16 inputs, each individually hours of work without a deadline.
	var srcs []*text.Source
	for i := 0; i < 16; i++ {
		srcs = append(srcs, text.NewSource("in", pathological(40)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results := prog.ParseAllContext(ctx, srcs, 4, Limits{})
	elapsed := time.Since(start)
	if elapsed > 250*time.Millisecond {
		t.Fatalf("cancellation drained the pool in %v, want <250ms", elapsed)
	}
	if len(results) != len(srcs) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		le := limitErr(t, r.Err, LimitCanceled)
		if !errors.Is(le, context.Canceled) {
			t.Fatalf("result %d cause = %v", i, le.Cause)
		}
	}
}

// TestConcurrentCancellation hammers one shared canceled context from
// many goroutines — the -race companion of the drain test.
func TestConcurrentCancellation(t *testing.T) {
	prog := build(t, pathologicalGrammar, Backtracking())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			_, _, err := prog.ParseContext(ctx, text.NewSource("in", pathological(40)), Limits{})
			done <- err
		}()
	}
	time.Sleep(2 * time.Millisecond)
	cancel()
	deadline := time.After(2 * time.Second)
	for g := 0; g < 8; g++ {
		select {
		case err := <-done:
			limitErr(t, err, LimitCanceled)
		case <-deadline:
			t.Fatal("goroutines still parsing 2s after cancellation")
		}
	}
}

// TestParseAllContextPerInputLimits applies one budget to every input
// of a batch: oversized inputs fail in place, the rest parse.
func TestParseAllContextPerInputLimits(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	srcs := []*text.Source{
		text.NewSource("small", "1+2"),
		text.NewSource("big", strings.Repeat("1+", 200)+"1"),
		text.NewSource("small2", "3*4"),
	}
	results := prog.ParseAllContext(context.Background(), srcs, 2, Limits{MaxInputBytes: 64})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("small inputs failed: %v / %v", results[0].Err, results[2].Err)
	}
	limitErr(t, results[1].Err, LimitInput)
}

// TestGovernedZeroAllocs pins the acceptance bound: the nil-Limits,
// background-context governed path must keep the zero-allocation
// steady state of the session layer.
func TestGovernedZeroAllocs(t *testing.T) {
	input := strings.Repeat("(1+2)*3-4+", 200) + "6"
	src := text.NewSource("in", input)
	prog := build(t, voidCalcGrammar, Optimized())
	s := prog.NewSession()
	ctx := context.Background()
	if _, _, err := s.ParseContext(ctx, src, Limits{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := s.ParseContext(ctx, src, Limits{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("nil-Limits ParseContext allocates %.1f/op, want 0", allocs)
	}
	// Budget-only limits (no deadline) stay allocation-free too: arming
	// writes scalars and never reads the clock.
	lim := Limits{MaxInputBytes: 1 << 20, MaxMemoBytes: 1 << 30, MaxCallDepth: 1 << 20}
	if _, _, err := s.ParseContext(ctx, src, lim); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, _, err := s.ParseContext(ctx, src, lim); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("budget-governed ParseContext allocates %.1f/op, want 0", allocs)
	}
}

// TestLimitErrorStrings pins the error taxonomy's rendering.
func TestLimitErrorStrings(t *testing.T) {
	cases := []struct {
		err  *LimitError
		want string
	}{
		{&LimitError{Kind: LimitInput, Limit: 10, Actual: 20}, "exceeds limit of 10"},
		{&LimitError{Kind: LimitMemo, Limit: 10, Actual: 20, Pos: 3}, "strict limit"},
		{&LimitError{Kind: LimitDepth, Limit: 10, Actual: 11, Pos: 3}, "call depth"},
		{&LimitError{Kind: LimitTime, Limit: int64(time.Millisecond), Pos: 3}, "deadline"},
		{&LimitError{Kind: LimitCanceled, Cause: context.Canceled}, "canceled"},
	}
	for _, c := range cases {
		if !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%v: %q does not mention %q", c.err.Kind, c.err.Error(), c.want)
		}
	}
	for _, k := range []LimitKind{LimitInput, LimitMemo, LimitDepth, LimitTime, LimitCanceled} {
		if strings.Contains(k.String(), "LimitKind") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestPrefixGoverned covers the runPrefix containment path.
func TestPrefixGoverned(t *testing.T) {
	prog := build(t, calcGrammar, Optimized())
	ps := prog.NewSession().ps
	ps.begin(text.NewSource("in", nested(10000)))
	if le := ps.arm(context.Background(), Limits{MaxCallDepth: 100}); le != nil {
		t.Fatal(le)
	}
	_, _, err := ps.runPrefix()
	limitErr(t, err, LimitDepth)
}

// valuesEqual compares semantic values structurally.
func valuesEqual(a, b ast.Value) bool { return ast.Equal(a, b) }

// TestTighten covers the budget-layering algebra the serve/registry
// stack relies on: server defaults ⊇ tenant budgets ⊇ request
// overrides, where 0 means unlimited and a tightening can only shrink.
func TestTighten(t *testing.T) {
	base := Limits{
		MaxInputBytes:    1000,
		MaxMemoBytes:     0, // unlimited
		MaxCallDepth:     50,
		MaxParseDuration: time.Second,
	}
	got := base.Tighten(Limits{
		MaxInputBytes:    500,             // shrinks
		MaxMemoBytes:     4096,            // bounds the unlimited
		MaxCallDepth:     100,             // looser: ignored
		MaxParseDuration: 2 * time.Second, // looser: ignored
	})
	want := Limits{
		MaxInputBytes:    500,
		MaxMemoBytes:     4096,
		MaxCallDepth:     50,
		MaxParseDuration: time.Second,
	}
	if got != want {
		t.Errorf("Tighten = %+v, want %+v", got, want)
	}

	// Zero on the override side keeps the base bound (0 never loosens).
	if got := base.Tighten(Limits{}); got != base {
		t.Errorf("Tighten(zero) = %+v, want base %+v", got, base)
	}
	// Strict is sticky in either direction.
	if !base.Tighten(Limits{Strict: true}).Strict {
		t.Error("Tighten must propagate Strict from the override")
	}
	strictBase := base
	strictBase.Strict = true
	if !strictBase.Tighten(Limits{}).Strict {
		t.Error("Tighten must keep the base's Strict")
	}
	// Tighten is idempotent and order-insensitive for its min semantics.
	a := Limits{MaxInputBytes: 10, MaxParseDuration: time.Minute}
	b := Limits{MaxInputBytes: 20, MaxParseDuration: time.Millisecond}
	if x, y := a.Tighten(b), b.Tighten(a); x != y {
		t.Errorf("Tighten not commutative: %+v vs %+v", x, y)
	}
}
