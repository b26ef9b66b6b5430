package modpeg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"modpeg/internal/workload"
)

// These tests exercise the resource-governance layer through the public
// facade, against the adversarial corpus: every attack input must be
// stopped by the matching limit kind with a typed *LimitError, and the
// memo-shedding degradation must keep parsing the full corpus in
// bounded space.

// pathologicalParser builds a backtracking (unmemoized) parser for the
// exponential-blowup grammar — the worst case the time limits defend
// against.
func pathologicalParser(t testing.TB) *Parser {
	t.Helper()
	p, err := New("path",
		WithModules(map[string]string{"path": workload.PathologicalGrammar}),
		WithEngine(EngineBacktracking()))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAdversarialDeadline is the headline acceptance bound: an input
// that would take days unbounded returns a typed *LimitError within
// 50ms of a 1ms deadline.
func TestAdversarialDeadline(t *testing.T) {
	p := pathologicalParser(t)
	input := workload.Pathological(40)
	start := time.Now()
	_, _, err := p.ParseRequest(context.Background(), "adversarial", input,
		Request{Limits: Limits{MaxParseDuration: time.Millisecond}})
	elapsed := time.Since(start)
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != LimitTime {
		t.Fatalf("err = %v, want *LimitError{Kind: LimitTime}", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err does not unwrap to DeadlineExceeded: %v", err)
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("1ms deadline took %v to stop the parse, want <50ms", elapsed)
	}
}

// TestAdversarialCorpusUnderLimits runs every corpus input under the
// limit kind it attacks and checks the typed outcome.
func TestAdversarialCorpusUnderLimits(t *testing.T) {
	corpus := workload.AdversarialCorpus(20000, 1<<20)
	parsers := map[string]*Parser{"path": pathologicalParser(t)}
	for _, mod := range []string{"calc.full", "json.value"} {
		p, err := New(mod)
		if err != nil {
			t.Fatal(err)
		}
		parsers[mod] = p
	}
	ctx := context.Background()
	for _, a := range corpus {
		t.Run(a.Name, func(t *testing.T) {
			p := parsers[a.Module]
			var lim Limits
			var want LimitKind
			switch a.Attacks {
			case "depth":
				lim, want = Limits{MaxCallDepth: 256}, LimitDepth
			case "time":
				lim, want = Limits{MaxParseDuration: time.Millisecond}, LimitTime
			case "memory":
				// Strict mode: the memory attack must hard-fail instead
				// of degrading (shedding is covered below).
				lim, want = Limits{MaxMemoBytes: 64 << 10, Strict: true}, LimitMemo
			}
			_, _, err := p.ParseRequest(ctx, a.Name, a.Input, Request{Limits: lim})
			var le *LimitError
			if !errors.As(err, &le) || le.Kind != want {
				t.Fatalf("%s under %s limit: err = %v, want kind %v", a.Name, a.Attacks, err, want)
			}
			// The same input parses clean with generous budgets — the
			// corpus attacks resources, not the grammars. (Except the
			// exponential-backtracking input, which no budget makes
			// feasible on an unmemoized engine — that is its point.)
			if a.Attacks == "time" {
				return
			}
			if _, _, err := p.ParseRequest(ctx, a.Name, a.Input, Request{Limits: Limits{
				MaxCallDepth:     1 << 20,
				MaxMemoBytes:     1 << 30,
				MaxParseDuration: 2 * time.Minute,
			}}); err != nil {
				t.Fatalf("%s rejected under generous budgets: %v", a.Name, err)
			}
		})
	}
}

// TestMemoSheddingBoundsFootprint parses the memory attacks of the
// corpus under a tight memo budget WITHOUT Strict: every parse must
// succeed (graceful degradation) with its reported memo footprint
// within the budget.
func TestMemoSheddingBoundsFootprint(t *testing.T) {
	const budget = 64 << 10
	for _, mod := range []string{"calc.full", "json.value"} {
		p, err := New(mod)
		if err != nil {
			t.Fatal(err)
		}
		s := p.NewSession()
		for _, a := range workload.AdversarialCorpus(2000, 1<<20) {
			if a.Module != mod || a.Attacks != "memory" {
				continue
			}
			want, full, err := s.ParseRequest(context.Background(), a.Name, a.Input, Request{})
			if err != nil {
				t.Fatal(err)
			}
			if full.MemoBytes <= budget {
				t.Fatalf("%s: input too small to need shedding (%d memo bytes)", a.Name, full.MemoBytes)
			}
			v, stats, err := s.ParseRequest(context.Background(), a.Name, a.Input,
				Request{Limits: Limits{MaxMemoBytes: budget}})
			if err != nil {
				t.Fatalf("%s: degraded parse failed: %v", a.Name, err)
			}
			if stats.MemoSheds != 1 {
				t.Fatalf("%s: MemoSheds = %d, want 1", a.Name, stats.MemoSheds)
			}
			if stats.MemoBytes > budget {
				t.Fatalf("%s: footprint %d exceeds budget %d after shedding", a.Name, stats.MemoBytes, budget)
			}
			if !ValuesEqual(v, want) {
				t.Fatalf("%s: shedding changed the semantic value", a.Name)
			}
		}
	}
}

func TestInputSizeLimit(t *testing.T) {
	p, err := New("calc.full")
	if err != nil {
		t.Fatal(err)
	}
	big := workload.Expression(workload.Config{Seed: 3, Size: 1 << 16})
	_, _, err = p.ParseRequest(context.Background(), "big", big, Request{Limits: Limits{MaxInputBytes: 1 << 10}})
	var le *LimitError
	if !errors.As(err, &le) || le.Kind != LimitInput {
		t.Fatalf("err = %v, want input-bytes limit", err)
	}
}

// TestParseBatchContextCancellation checks the pool-drain contract on
// the public batch API: cancelling mid-batch returns promptly with
// every result slot holding a cancellation error.
func TestParseBatchContextCancellation(t *testing.T) {
	p := pathologicalParser(t)
	inputs := make([]string, 12)
	for i := range inputs {
		inputs[i] = workload.Pathological(40)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results := p.ParseBatch(ctx, "batch", inputs, 4, Limits{})
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("cancellation drained the batch in %v, want <250ms", elapsed)
	}
	for i, r := range results {
		var le *LimitError
		if !errors.As(r.Err, &le) || le.Kind != LimitCanceled {
			t.Fatalf("result %d: err = %v, want cancellation", i, r.Err)
		}
	}
}

// TestConcurrentCancellationPublic cancels one context shared by many
// governed parses — run under -race this doubles as the data-race check
// on the governance state.
func TestConcurrentCancellationPublic(t *testing.T) {
	p := pathologicalParser(t)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, _, errs[g] = p.ParseRequest(ctx, fmt.Sprintf("g%d", g),
				workload.Pathological(40), Request{})
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	cancel()
	wg.Wait()
	for g, err := range errs {
		var le *LimitError
		if !errors.As(err, &le) || le.Kind != LimitCanceled {
			t.Fatalf("goroutine %d: err = %v, want cancellation", g, err)
		}
	}
}

// TestGovernedFacadeMatchesParse pins that a governed ParseRequest whose
// budgets are never reached is behaviourally identical to Parse on a
// real grammar.
func TestGovernedFacadeMatchesParse(t *testing.T) {
	p, err := New("json.value")
	if err != nil {
		t.Fatal(err)
	}
	doc := workload.JSONDoc(workload.Config{Seed: 9, Size: 4096})
	want, err := p.Parse("doc", doc)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := p.ParseRequest(context.Background(), "doc", doc, Request{Limits: Limits{
		MaxCallDepth:     1 << 20,
		MaxMemoBytes:     1 << 30,
		MaxParseDuration: time.Minute,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !ValuesEqual(got, want) {
		t.Fatal("ParseRequest under unreached budgets drifted from Parse")
	}
}
