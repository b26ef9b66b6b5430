package vm

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file is the per-production profiler: a Hook implementation that
// turns the engine's parse events into a Profile — per production:
// calls, memo behaviour, dispatch skips, self and cumulative time,
// farthest position matched, and bytes backtracked over. Profiles are
// plain data, aggregatable with Add across repeated parses, resident
// sessions, and ParseAll workers, and render as a top-N "hot
// productions" table or as JSON.
//
// Cost model: profiling reads the clock twice per production call
// (entry and exit) and maintains a call-stack frame; the disabled path
// is the engine's nil-hook fast path and costs nothing. Backtracked
// bytes are an approximation computed from production-call events: the
// farthest position any sub-production reached inside a failed call,
// minus the call's start position. Terminal matches consumed directly
// by a production's own body between calls are not visible as events,
// so the count is a lower bound.

// ProdProfile is the profile of one production.
type ProdProfile struct {
	// Name is the fully qualified production name.
	Name string `json:"name"`
	// Calls counts body evaluations (OnEnter events): invocations that
	// survived dispatch and missed the memo table.
	Calls int64 `json:"calls"`
	// MemoHits counts memo-table answers (stored success or failure).
	MemoHits int64 `json:"memo_hits"`
	// MemoMisses counts memo probes that found nothing. For a memoized
	// production every miss becomes a call, so misses equal calls;
	// transient productions never probe and report zero.
	MemoMisses int64 `json:"memo_misses"`
	// DispatchSkips counts first-byte dispatch rejections of the whole
	// production (choice-alternative skips inside a body are charged to
	// the enclosing production's Stats, not here).
	DispatchSkips int64 `json:"dispatch_skips"`
	// SelfNanos is time spent in the production's own body, excluding
	// sub-production calls; CumNanos includes them.
	SelfNanos int64 `json:"self_ns"`
	CumNanos  int64 `json:"cum_ns"`
	// FarthestPos is the rightmost end position of a successful match.
	FarthestPos int `json:"farthest_pos"`
	// BacktrackedBytes estimates input bytes matched inside this
	// production's failed attempts and then abandoned (see the cost
	// model above).
	BacktrackedBytes int64 `json:"backtracked_bytes"`
}

// add accumulates o into p.
func (p *ProdProfile) add(o ProdProfile) {
	p.Calls += o.Calls
	p.MemoHits += o.MemoHits
	p.MemoMisses += o.MemoMisses
	p.DispatchSkips += o.DispatchSkips
	p.SelfNanos += o.SelfNanos
	p.CumNanos += o.CumNanos
	if o.FarthestPos > p.FarthestPos {
		p.FarthestPos = o.FarthestPos
	}
	p.BacktrackedBytes += o.BacktrackedBytes
}

// Profile is a per-production execution profile. Prods is indexed by
// production index (Program.ProductionName order), one entry per
// production whether or not it ran.
type Profile struct {
	Prods []ProdProfile
}

// NewProfile returns an empty profile shaped for p's productions — the
// accumulator to Add worker or per-parse profiles into.
func (p *Program) NewProfile() *Profile {
	prof := &Profile{Prods: make([]ProdProfile, len(p.prods))}
	for i := range p.prods {
		prof.Prods[i].Name = p.prods[i].name
	}
	return prof
}

// Add accumulates o into p. Both profiles must come from the same
// Program (same production vector); Add panics on a length mismatch.
func (p *Profile) Add(o *Profile) {
	if len(p.Prods) != len(o.Prods) {
		panic(fmt.Sprintf("vm: Profile.Add: %d productions vs %d — profiles of different programs",
			len(p.Prods), len(o.Prods)))
	}
	for i := range o.Prods {
		p.Prods[i].add(o.Prods[i])
	}
}

// TotalCalls sums Calls over all productions; it equals Stats.Calls of
// the profiled parse (or the Stats.Add aggregate of a profiled batch).
func (p *Profile) TotalCalls() int64 {
	var n int64
	for i := range p.Prods {
		n += p.Prods[i].Calls
	}
	return n
}

// Top returns the productions that ran, hottest first: descending self
// time, ties broken by calls then name. n limits the result (n <= 0
// means all active productions).
func (p *Profile) Top(n int) []ProdProfile {
	active := make([]ProdProfile, 0, len(p.Prods))
	for i := range p.Prods {
		pp := p.Prods[i]
		if pp.Calls != 0 || pp.MemoHits != 0 || pp.DispatchSkips != 0 {
			active = append(active, pp)
		}
	}
	sort.Slice(active, func(i, j int) bool {
		a, b := active[i], active[j]
		if a.SelfNanos != b.SelfNanos {
			return a.SelfNanos > b.SelfNanos
		}
		if a.Calls != b.Calls {
			return a.Calls > b.Calls
		}
		return a.Name < b.Name
	})
	if n > 0 && len(active) > n {
		active = active[:n]
	}
	return active
}

// Report renders the hot-production table: one row per active
// production (limited to the top n when n > 0), a separator, and a
// total row whose calls column sums every production — including rows
// the limit cut — so the total always equals Stats.Calls.
func (p *Profile) Report(n int) string {
	rows := p.Top(n)
	var totalSelf int64
	for i := range p.Prods {
		totalSelf += p.Prods[i].SelfNanos
	}
	header := []string{"production", "calls", "memo-hits", "disp-skips", "self-ms", "cum-ms", "self%", "far", "backtracked"}
	cells := make([][]string, 0, len(rows)+2)
	cells = append(cells, header)
	ms := func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }
	pct := func(ns int64) string {
		if totalSelf == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", 100*float64(ns)/float64(totalSelf))
	}
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name,
			fmt.Sprint(r.Calls), fmt.Sprint(r.MemoHits), fmt.Sprint(r.DispatchSkips),
			ms(r.SelfNanos), ms(r.CumNanos), pct(r.SelfNanos),
			fmt.Sprint(r.FarthestPos), fmt.Sprint(r.BacktrackedBytes),
		})
	}
	var t ProdProfile
	for i := range p.Prods {
		t.add(p.Prods[i])
	}
	cells = append(cells, []string{
		"total",
		fmt.Sprint(t.Calls), fmt.Sprint(t.MemoHits), fmt.Sprint(t.DispatchSkips),
		ms(t.SelfNanos), ms(t.CumNanos), pct(t.SelfNanos),
		fmt.Sprint(t.FarthestPos), fmt.Sprint(t.BacktrackedBytes),
	})

	widths := make([]int, len(header))
	for _, row := range cells {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c) // names left, numbers right
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(cells[0])
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells[1 : len(cells)-1] {
		writeRow(row)
	}
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	writeRow(cells[len(cells)-1])
	return b.String()
}

// String renders the full report (all active productions).
func (p *Profile) String() string { return p.Report(0) }

// profileJSON is the scraping-friendly encoding: active productions
// only, hottest first, plus the totals.
type profileJSON struct {
	TotalCalls  int64         `json:"total_calls"`
	TotalSelfNS int64         `json:"total_self_ns"`
	Productions []ProdProfile `json:"productions"`
}

// JSON encodes the profile: active productions hottest-first with
// per-production counters, plus total_calls/total_self_ns.
func (p *Profile) JSON() ([]byte, error) {
	var totalSelf int64
	for i := range p.Prods {
		totalSelf += p.Prods[i].SelfNanos
	}
	return json.MarshalIndent(profileJSON{
		TotalCalls:  p.TotalCalls(),
		TotalSelfNS: totalSelf,
		Productions: p.Top(0),
	}, "", "  ")
}

// pgoHot selects the productions a profile marks as inline candidates
// and their observed demand. Two filters beyond raw heat:
//
//   - demand = calls + memo hits, because inlining removes the memo
//     column and every probe that used to hit becomes a re-evaluation;
//   - productions whose memo column actually pays — more than about a
//     quarter of their demand answered from the table — are withheld,
//     since trading a table probe for a body re-evaluation is a loss
//     there. The profitable inline targets are the hot, rarely-hitting
//     productions (lexical glue, expression precedence towers).
func pgoHot(name string, calls, hits int64) (int64, bool) {
	demand := calls + hits
	if demand <= 0 || hits*3 > calls {
		return 0, false
	}
	return demand, true
}

// PGO turns the profile into a hot-production report for profile-guided
// compilation (Options.PGO).
func (p *Profile) PGO() *PGO {
	calls := make(map[string]int64, len(p.Prods))
	for i := range p.Prods {
		pp := &p.Prods[i]
		if demand, ok := pgoHot(pp.Name, pp.Calls, pp.MemoHits); ok {
			calls[pp.Name] = demand
		}
	}
	return &PGO{Calls: calls}
}

// LoadPGO decodes a profile report (the Profile.JSON / `modpeg profile
// -json` encoding) into a hot-production report for Options.PGO.
func LoadPGO(data []byte) (*PGO, error) {
	var report profileJSON
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("vm: decoding profile report: %w", err)
	}
	calls := make(map[string]int64, len(report.Productions))
	for _, pp := range report.Productions {
		if demand, ok := pgoHot(pp.Name, pp.Calls, pp.MemoHits); ok {
			calls[pp.Name] = demand
		}
	}
	return &PGO{Calls: calls}, nil
}

// ------------------------------------------------------------- profiler

// profFrame is one entry of the profiler's shadow call stack.
type profFrame struct {
	start time.Time
	child int64 // nanoseconds spent in sub-production calls
	pos   int   // entry position
	far   int   // farthest position reached within this call
	prod  int32
}

// Profiler is the Hook that accumulates a Profile. One Profiler serves
// one goroutine at a time but any number of consecutive parses — a
// resident Session can keep a single Profiler installed and read the
// aggregate whenever it likes. For concurrent aggregation give each
// worker its own Profiler and merge with Profile.Add, or let sampling
// (SetSampling) fold every pooled parse into the label's rolling profile.
type Profiler struct {
	p        Profile
	memoized []bool
	stack    []profFrame
}

// NewProfiler returns a profiler for p's productions.
func (p *Program) NewProfiler() *Profiler {
	pr := &Profiler{p: *p.NewProfile()}
	pr.memoized = make([]bool, len(p.prods))
	for i := range p.prods {
		pr.memoized[i] = p.prods[i].memoCol >= 0
	}
	return pr
}

// OnEnter implements Hook.
func (pr *Profiler) OnEnter(prod, pos int) {
	pr.p.Prods[prod].Calls++
	pr.stack = append(pr.stack, profFrame{
		start: time.Now(),
		pos:   pos,
		far:   pos,
		prod:  int32(prod),
	})
}

// OnExit implements Hook.
func (pr *Profiler) OnExit(prod, pos, end int, ok bool) {
	top := len(pr.stack) - 1
	f := pr.stack[top]
	pr.stack = pr.stack[:top]
	elapsed := time.Since(f.start).Nanoseconds()
	pp := &pr.p.Prods[prod]
	pp.CumNanos += elapsed
	pp.SelfNanos += elapsed - f.child
	far := f.far
	if ok {
		if end > far {
			far = end
		}
		if end > pp.FarthestPos {
			pp.FarthestPos = end
		}
	} else if bt := int64(far - f.pos); bt > 0 {
		pp.BacktrackedBytes += bt
	}
	if top > 0 {
		parent := &pr.stack[top-1]
		parent.child += elapsed
		if far > parent.far {
			parent.far = far
		}
	}
}

// OnMemoHit implements Hook.
func (pr *Profiler) OnMemoHit(prod, pos, end int, ok bool) {
	pp := &pr.p.Prods[prod]
	pp.MemoHits++
	if ok {
		if end > pp.FarthestPos {
			pp.FarthestPos = end
		}
		if top := len(pr.stack) - 1; top >= 0 && end > pr.stack[top].far {
			pr.stack[top].far = end
		}
	}
}

// OnFail implements Hook.
func (pr *Profiler) OnFail(prod, pos int) {
	pr.p.Prods[prod].DispatchSkips++
}

// reset rewinds the profiler for reuse by the sampling pool
// (sample.go): counters zeroed in place keeping the production names,
// the shadow stack truncated (a limit-stopped parse can leave frames
// behind).
func (pr *Profiler) reset() {
	for i := range pr.p.Prods {
		pr.p.Prods[i] = ProdProfile{Name: pr.p.Prods[i].Name}
	}
	pr.stack = pr.stack[:0]
}

// Profile returns a copy of the accumulated profile, with MemoMisses
// derived (a memoized production's every call follows a miss). The
// profiler keeps accumulating; call Profile again for a later snapshot.
func (pr *Profiler) Profile() *Profile {
	out := &Profile{Prods: append([]ProdProfile(nil), pr.p.Prods...)}
	for i := range out.Prods {
		if pr.memoized[i] {
			out.Prods[i].MemoMisses = out.Prods[i].Calls
		}
	}
	return out
}
