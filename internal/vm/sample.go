package vm

import (
	"encoding/json"
	"sort"
)

// This file is the always-on sampled profiler: a process-cheap sampler
// that attaches the per-production Profiler (profile.go) to 1-in-N
// pooled parses and folds the results into per-grammar-label rolling
// profiles. Where a Profiler installed as Request.Hook answers "what
// did this parse do, production by production" for one explicitly
// profiled call, the sampled profiles answer "what has this grammar
// been doing in production" without any caller opting in — the
// tail-forensics companion to the latency histograms: once a
// grammar@version shows a fat p999, its rolling profile names the
// productions burning the time.
//
// Cost model: the sampling decision is one atomic load in acquire when
// sampling is off (the default), preserving the zero-allocation steady
// state; when on, one atomic add selects every N-th checkout, which
// borrows a pooled Profiler and pays the usual profiling cost (two
// clock reads per production call) for that parse only. Sampled parses
// run the interpreter — the closure-compiled engine has no hook seam —
// so N should stay large enough that 1/N of traffic on the slower
// engine is acceptable (the bench gate holds 1-in-100 to <= 2%
// end-to-end). Merging into the rolling profile happens at release
// time under the label registry's mutex; at 1-in-N traffic the lock is
// uncontended.
//
// A label's rolling profile lives on its per-grammar counter set
// (grammarStats, metrics.go), which the Program already points at, so
// the label registry is the one index of both: ForgetLabel drops a
// deleted version's profile with its counters, and a sampled parser
// released after that folds into the orphaned set, never back into the
// export.
//
// Sessions (NewSession) bypass the pool and are never sampled: a
// resident session is an explicitly managed parser whose owner can
// install a Profiler directly.

// SampledProfile is the rolling profile of one grammar label,
// aggregated across every sampled parse since process start (or the
// last ResetSampledProfiles or ForgetLabel). Productions are keyed by
// name, not production index, so profiles survive hot-swapped
// recompiles of the same label and aggregate across Programs that share
// one.
type SampledProfile struct {
	// Label is the grammar label (Program.SetLabel; "tenant/name@vN"
	// under the registry).
	Label string `json:"grammar"`
	// Parses counts the sampled parses folded into this profile.
	Parses int64 `json:"sampled_parses"`
	// Productions holds the aggregated per-production rows, hottest
	// first (descending self time, like Profile.Top).
	Productions []ProdProfile `json:"productions"`
}

// sampledEntry is one label's live accumulator.
type sampledEntry struct {
	parses int64
	prods  map[string]*ProdProfile
}

// SetSampling sets this program's sampling rate: every n-th pooled
// parse (Parse, ParseRequest, ParseAll — not explicit Sessions) runs
// with a borrowed Profiler and is folded into the label's rolling
// SampledProfile. n <= 0 disables sampling (the default); n == 1
// profiles every pooled parse. Safe to call concurrently with parses —
// in-flight checkouts keep the decision made at acquire time.
func (p *Program) SetSampling(n int) {
	if n < 0 {
		n = 0
	}
	p.sampleEvery.Store(int64(n))
}

// Sampling returns the program's current sampling rate (0 = off).
func (p *Program) Sampling() int { return int(p.sampleEvery.Load()) }

// sampledProfiler borrows a profiler from the program's pool, building
// one on a cold start. Only sampled checkouts (1-in-N) reach here.
func (p *Program) sampledProfiler() *Profiler {
	if pr, ok := p.profPool.Get().(*Profiler); ok {
		return pr
	}
	return p.NewProfiler()
}

// finishSample folds a sampled checkout's profiler into the rolling
// profile of the program's label and returns the profiler to the pool.
// Called from release, so a checkout that served several begins (batch
// workers) merges once with its whole aggregate.
func (p *Program) finishSample(pr *Profiler, parses int64) {
	g := p.gstats.Load() // never nil: Compile labels every Program
	grammarsMu.Lock()
	e := g.sampled
	if e == nil {
		e = &sampledEntry{prods: make(map[string]*ProdProfile)}
		g.sampled = e
	}
	e.parses += parses
	for i := range pr.p.Prods {
		pp := &pr.p.Prods[i]
		if pp.Calls == 0 && pp.MemoHits == 0 && pp.DispatchSkips == 0 {
			continue
		}
		agg := e.prods[pp.Name]
		if agg == nil {
			agg = &ProdProfile{Name: pp.Name}
			e.prods[pp.Name] = agg
		}
		row := *pp
		if pr.memoized[i] {
			row.MemoMisses = row.Calls
		}
		agg.add(row)
	}
	grammarsMu.Unlock()
	pr.reset()
	p.profPool.Put(pr)
}

// snapshotSampled copies one entry into its public form, hottest
// production first. Caller holds grammarsMu.
func snapshotSampledLocked(label string, e *sampledEntry) SampledProfile {
	rows := make([]ProdProfile, 0, len(e.prods))
	for _, pp := range e.prods {
		rows = append(rows, *pp)
	}
	prof := Profile{Prods: rows}
	return SampledProfile{Label: label, Parses: e.parses, Productions: prof.Top(0)}
}

// SampledProfiles snapshots every label's rolling sampled profile,
// sorted by label — the payload of the /debug/profiles endpoint and
// the source of the Prometheus hot-production counters. Labels whose
// sampled parses recorded no production activity are included (Parses
// counts, Productions empty) so a sampled-but-idle grammar is visible.
func SampledProfiles() []SampledProfile {
	grammarsMu.Lock()
	defer grammarsMu.Unlock()
	out := []SampledProfile{}
	for label, g := range grammarsReg {
		if g.sampled != nil {
			out = append(out, snapshotSampledLocked(label, g.sampled))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// SampledProfileFor snapshots one label's rolling profile. ok is false
// when the label has never been sampled or has been forgotten
// (ForgetLabel).
func SampledProfileFor(label string) (SampledProfile, bool) {
	grammarsMu.Lock()
	defer grammarsMu.Unlock()
	g := grammarsReg[label]
	if g == nil || g.sampled == nil {
		return SampledProfile{}, false
	}
	return snapshotSampledLocked(label, g.sampled), true
}

// ResetSampledProfiles drops every rolling sampled profile — the
// windowed-scrape companion to ResetMetrics (which deliberately leaves
// the sampled profiles alone: histogram windows and profile windows
// reset independently).
func ResetSampledProfiles() {
	grammarsMu.Lock()
	defer grammarsMu.Unlock()
	for _, g := range grammarsReg {
		g.sampled = nil
	}
}

// SampledProfilesJSON renders the full sampled-profile snapshot, the
// /debug/profiles payload.
func SampledProfilesJSON() ([]byte, error) {
	return json.MarshalIndent(SampledProfiles(), "", "  ")
}
