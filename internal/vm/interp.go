package vm

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"

	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// Stats reports what one parse did — the raw material of the paper's
// time/space tables.
type Stats struct {
	// Calls counts production invocations (after dispatch fast-fails).
	Calls int
	// DispatchSkips counts calls and alternatives skipped by first-byte
	// dispatch.
	DispatchSkips int
	// MemoHits/MemoMisses/MemoStores count memo table activity.
	MemoHits   int
	MemoMisses int
	MemoStores int
	// ChunksAllocated counts lazily allocated memo chunks (chunked layout).
	ChunksAllocated int
	// ChunkRows counts positions that allocated a chunk directory.
	ChunkRows int
	// MemoBytes estimates the memo table's heap footprint in bytes.
	MemoBytes int
	// MemoSheds counts memo-budget hits that shed memoization (0 or 1
	// per parse; see Limits.MaxMemoBytes).
	MemoSheds int
	// MaxPos is the rightmost input position reached.
	MaxPos int

	// Incremental-reparse accounting (Document.Apply; see incremental.go).
	// MemoReused counts memo hits answered by entries recycled from an
	// earlier parse of the document; MemoInvalidated counts entries killed
	// because their examined span overlapped an edit's damage region (after
	// lookahead widening); MemoRelocated counts surviving entries shifted
	// past an edit by splicing the chunk directory. All three are zero for
	// ordinary from-scratch parses.
	MemoReused      int
	MemoInvalidated int
	MemoRelocated   int
}

func (s Stats) String() string {
	out := fmt.Sprintf("calls=%d hits=%d misses=%d stores=%d skips=%d chunks=%d chunkRows=%d memoBytes=%d maxPos=%d",
		s.Calls, s.MemoHits, s.MemoMisses, s.MemoStores, s.DispatchSkips,
		s.ChunksAllocated, s.ChunkRows, s.MemoBytes, s.MaxPos)
	if s.MemoSheds > 0 {
		out += fmt.Sprintf(" sheds=%d", s.MemoSheds)
	}
	if s.MemoReused+s.MemoInvalidated+s.MemoRelocated > 0 {
		out += fmt.Sprintf(" reused=%d invalidated=%d relocated=%d",
			s.MemoReused, s.MemoInvalidated, s.MemoRelocated)
	}
	return out
}

// Add accumulates o into s, summing the counters and taking the maximum
// of MaxPos — the aggregation used for batch-parse reporting.
func (s *Stats) Add(o Stats) {
	s.Calls += o.Calls
	s.DispatchSkips += o.DispatchSkips
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.MemoStores += o.MemoStores
	s.ChunksAllocated += o.ChunksAllocated
	s.ChunkRows += o.ChunkRows
	s.MemoBytes += o.MemoBytes
	s.MemoSheds += o.MemoSheds
	s.MemoReused += o.MemoReused
	s.MemoInvalidated += o.MemoInvalidated
	s.MemoRelocated += o.MemoRelocated
	if o.MaxPos > s.MaxPos {
		s.MaxPos = o.MaxPos
	}
}

// ParseError describes a failed parse with the farthest failure heuristic:
// the position the parser got stuck at and the terminals/productions it
// tried there.
type ParseError struct {
	Src      *text.Source
	Pos      text.Pos
	Expected []string
}

func (e *ParseError) Error() string {
	loc := e.Src.Location(e.Pos)
	found := "end of input"
	if int(e.Pos) < e.Src.Len() {
		found = fmt.Sprintf("%q", e.Src.Content()[e.Pos])
	}
	msg := fmt.Sprintf("%s: syntax error: unexpected %s", loc, found)
	if len(e.Expected) > 0 {
		msg += ", expected " + strings.Join(e.Expected, " or ")
	}
	return msg
}

// Detail renders the error with a quoted source line.
func (e *ParseError) Detail() string {
	return e.Error() + "\n" + e.Src.Quote(text.NewSpan(e.Pos, e.Pos+1))
}

// memoEntry is one memoized outcome. state distinguishes empty slots from
// stored failures and successes. len is the number of bytes the stored
// success consumed — a length rather than an absolute end position, so an
// entry stays valid when incremental reparsing relocates it to a shifted
// position by splicing the chunk directory (incremental.go): the row
// pointers move, the rows never need rewriting. gen tags the entry with
// the document generation that stored it; a memo hit on an entry from an
// earlier generation is a reuse of recycled state (Stats.MemoReused).
// Both fields pack into the padding the old absolute-end layout already
// paid for, keeping the entry at the modeled memoEntrySize.
type memoEntry struct {
	state uint8  // 0 empty, 1 fail, 2 success
	gen   uint16 // storing generation (0 outside incremental documents)
	len   int32  // bytes consumed on success (end = pos + len)
	val   ast.Value
}

const (
	memoEmpty uint8 = iota
	memoFail
	memoOK
)

// Memo footprint model (Stats.MemoBytes). Both layouts are charged for
// the same 24-byte entry payload (state+gen+len packed into one word plus
// a two-word interface value) so their estimates are directly comparable:
//
//   - chunked: every allocated chunk is chunkSize entries of
//     memoEntrySize bytes, plus one 8-byte chunk pointer per directory
//     slot of every position that allocated a directory row;
//   - map: every entry stores an 8-byte (pos, column) key next to the
//     memoEntrySize value (32 payload bytes per entry), plus one
//     control/tophash byte per slot — but slots are only ~65% occupied
//     on average, because the runtime map doubles its capacity and fills
//     from half the maximum ~7/8 load factor back up. Charged per live
//     entry that is (8 + 24 + 1) / 0.65 ≈ 51 bytes, rounded up to
//     payload + 24 = 56 to cover table headers and overflow storage.
const (
	memoEntrySize = 24
	mapEntryBytes = 8 + memoEntrySize + 24
)

// chunkSize is the number of memo columns grouped into one lazily
// allocated chunk — the Rats! chunk optimization: positions pay only for
// the column groups actually probed there, not the whole production set.
const chunkSize = 8

// memoChunk is one group of memo entries.
type memoChunk [chunkSize]memoEntry

// Parser executes one Program over one input at a time. A Parser is
// reusable — begin rewinds it for the next input, recycling the memo
// arenas — but never safe for concurrent use. Program.Parse maintains a
// pool of Parsers; Program.NewSession hands one to the caller directly.
type Parser struct {
	prog  *Program
	src   *text.Source
	in    string
	stats Stats

	// chunked memo: per position, a lazily allocated directory of lazily
	// allocated chunks of chunkSize columns each. The directory slice is
	// kept across parses and grown monotonically; begin clears the window
	// the previous parse used so stale rows can never be read. Rows and
	// chunks live in the session arenas.
	chunks     [][]*memoChunk
	chunkCount int // chunks per position: ceil(memoCols / chunkSize)
	// rowMax and rowLive parallel the chunk directory for a Document's
	// parser: per position, the longest entry stored in the row and the
	// number of live entries (0 exactly when the row is nil). They let an
	// incremental remap skip rows that cannot reach an edit without
	// reading them (incremental.go). Nil for pooled parsers and sessions,
	// which pay one nil check in memoStore.
	rowMax  []int32
	rowLive []int32
	// map memo keyed by position*memoCols + column (cleared, not
	// reallocated, between parses).
	memoMap map[int64]memoEntry

	// session allocators (see arena.go).
	chunkArena chunkArena
	rowArena   rowArena
	values     valueArena

	// scratch is the shared stack where sequences and repetitions
	// accumulate item values before copying them out at their final size.
	// Callers push at len(scratch) and truncate back to their base mark;
	// recursion preserves the stack discipline because nested expressions
	// finish (and truncate) before the enclosing one pushes again.
	scratch []ast.Value

	// examined is the exclusive end of the input region the production
	// invocation currently evaluating has read — matched or merely peeked
	// at by dispatch, literals, classes, and predicates. parseProd frames
	// it per invocation and folds the result into prodLook; EOF probes
	// count the position past the end, so entries whose outcome depended
	// on where the input stopped are widened too.
	examined int
	// prodLook is the per-memo-column farthest-lookahead watermark: the
	// most bytes any invocation of that production examined beyond its
	// match end (beyond its start, for failures). Incremental reparsing
	// widens edit damage by it so entries that peeked across an edit are
	// invalidated (incremental.go); memo hits propagate it so a caller's
	// examined region covers everything the memoized work once read.
	prodLook []int32
	// gen is the memo generation tag incremental documents bump per
	// Apply; stored entries carry it so hits on recycled entries can be
	// counted (Stats.MemoReused). Always 0 outside documents.
	gen uint16

	// farthest-failure tracking: a small dedup slice (not a map) because
	// fail() runs on every mismatched terminal — the hottest path in the
	// parser.
	failPos      int
	failExpected []string
	// pruned holds the choice alternatives first-set tables skipped at
	// failPos, where a plain evaluation would have tried them and failed
	// (prune). They are kept as (table, mask) pairs and named only by
	// syntaxError: successful parses run at the failure frontier, so
	// recording strings per skip would tax every parse.
	pruned []prunedAlts
	// suppress failure recording inside predicates (their failures are
	// expected behaviour).
	quiet int

	// hook, when non-nil, receives parse events (see hooks.go): the
	// seam the trace and the profiler plug into. Costs one predictable
	// nil check per event site when disabled.
	hook Hook

	// Resource governance (limits.go), armed by parse and reset
	// to the open defaults by begin. On the ungoverned path these cost
	// one predictable comparison per governed edge and nothing on the
	// per-terminal hot path.
	ctx        context.Context // non-nil only when cancellation is possible
	deadline   time.Time       // zero when no deadline applies
	timeBudget time.Duration   // configured MaxParseDuration (diagnostics)
	timed      bool            // poll the clock/context on governance edges
	maxDepth   int             // call-depth budget (noLimit when unlimited)
	memoBudget int             // memo-bytes budget (noLimit when unlimited)
	strict     bool            // hard-fail instead of shedding memoization
	depth      int             // current production-call nesting
	memoUsed   int             // modeled memo bytes charged so far
	shed       bool            // memoization shed after a budget hit
	poll       int             // countdown to the next clock/context poll

	// used marks a parser that has begun at least one parse, so begin
	// can count warm rewinds (metrics.sessionResets) separately from
	// cold first parses.
	used bool

	// telemetry records whether this parse was captured by the registry
	// histograms (latched from the process toggle at begin so a parse
	// straddling a SetTelemetry flip stays internally consistent);
	// started is its wall-clock start for the latency histogram.
	telemetry bool
	started   time.Time

	// sampler is the profiler a sampled checkout borrowed (sample.go):
	// acquire installs it 1-in-N, begin wires it in as the hook, and
	// release folds it into the label's rolling profile. sampledParses
	// counts the begins it observed within this checkout.
	sampler       *Profiler
	sampledParses int64
	// traceID is the W3C trace ID of a traced parse
	// (Request.TraceID); finishStats records it as a latency-bucket
	// exemplar. Empty (reset by begin) for untraced parses.
	traceID string
}

// maxExpected caps the recorded expectation set.
const maxExpected = 16

// prunedAlts is one deferred failure record: the alternatives in mask of
// a choice table, skipped at the farthest failure position.
type prunedAlts struct {
	tbl  *choiceTable
	mask uint64
}

// Request carries the per-call parameters of a parse. The zero value is
// an ungoverned, unhooked, untraced parse; Parse is exactly that.
type Request struct {
	// Limits bounds the parse (see Limits); the zero value is unlimited.
	Limits Limits
	// Hook, when non-nil, receives the parse's events (see Hook): the
	// call trace (NewCallTrace), the profiler (NewProfiler), or any
	// other implementation. A nil Hook leaves a sampled checkout's
	// profiler in place (see SetSampling). Never store a typed nil
	// pointer here: a non-nil interface sends the parse to the
	// interpreter, which calls it.
	Hook Hook
	// TraceID is the W3C trace ID of a traced parse: the hook hears it
	// when it implements TraceContextHook, and the latency histogram
	// records it as an exemplar. Empty for untraced parses.
	TraceID string
}

// Parse runs the program over src, requiring the root production to match
// and to consume the whole input. It returns the semantic value and the
// parse statistics. It is ParseRequest with a background context and a
// zero Request.
//
// Parse draws its Parser from an internal pool, so a hot loop of parses
// reaches a steady state with no parser-machinery allocations; see
// NewSession for the explicitly managed variant. Parse is safe to call
// from multiple goroutines: the Program itself is read-only after Compile
// and every call works on its own pooled Parser.
func (p *Program) Parse(src *text.Source) (ast.Value, Stats, error) {
	return p.ParseRequest(context.Background(), src, Request{})
}

// ParseRequest is Parse under ctx and the parameters in req: the parse
// aborts with a typed *LimitError when ctx is canceled, a deadline (ctx's
// or req.Limits.MaxParseDuration's) passes, or a budget in req.Limits
// blows, and degrades gracefully (shedding memoization) when the memo
// budget is hit without Strict. A context without deadline or
// cancellation and a zero Request keep the zero-allocation steady state.
func (p *Program) ParseRequest(ctx context.Context, src *text.Source, req Request) (ast.Value, Stats, error) {
	ps := p.acquire()
	defer p.release(ps)
	val, err := ps.parse(ctx, src, req)
	return val, ps.stats, err
}

// ParsePrefix runs the program over src, requiring the root production to
// match at position 0 but not to consume the whole input. It returns the
// value, the number of bytes consumed, and the statistics.
func (p *Program) ParsePrefix(src *text.Source) (ast.Value, int, Stats, error) {
	ps := p.acquire()
	defer p.release(ps)
	ps.begin(src)
	val, end, err := ps.run(true)
	return val, end, ps.stats, err
}

// parse is the one per-parse path behind every entry point: rewind for
// src, install req.Hook (a nil Hook keeps a sampled checkout's
// profiler), set the trace ID, arm the limits, and run. An arming
// failure becomes the error return.
func (ps *Parser) parse(ctx context.Context, src *text.Source, req Request) (ast.Value, error) {
	ps.begin(src)
	if req.Hook != nil {
		ps.hook = req.Hook
	}
	ps.setTraceContext(req.TraceID)
	if le := ps.arm(ctx, req.Limits); le != nil {
		ps.finishStats()
		metrics.limitStops.Add(1)
		if g := ps.grammarTally(); g != nil {
			g.limitStops.Add(1)
		}
		return nil, le
	}
	val, _, err := ps.run(false)
	return val, err
}

// acquire returns a pooled Parser for p, making a fresh one when the pool
// is empty.
func (p *Program) acquire() *Parser {
	metrics.poolGets.Add(1)
	ps, ok := p.pool.Get().(*Parser)
	if !ok {
		metrics.poolNews.Add(1)
		ps = &Parser{prog: p}
	}
	// Sampled-profiling decision (sample.go): one atomic load when
	// sampling is off; when on, every n-th checkout borrows a profiler
	// that begin installs as the parse hook.
	if n := p.sampleEvery.Load(); n > 0 && p.sampleTick.Add(1)%n == 0 {
		ps.sampler = p.sampledProfiler()
	}
	return ps
}

// release returns ps to the pool. The parser keeps its arenas (and,
// until its next begin, references to the last parse's memoized values);
// the pool drops idle parsers on GC, bounding that retention.
func (p *Program) release(ps *Parser) {
	ps.hook = nil
	if ps.sampler != nil {
		p.finishSample(ps.sampler, ps.sampledParses)
		ps.sampler = nil
		ps.sampledParses = 0
	}
	p.pool.Put(ps)
}

// begin rewinds the parser for a new input: statistics and failure state
// are reset, the memo arenas are recycled, the value arena starts fresh
// slabs, and the chunk-directory window used by the previous parse is
// cleared so no stale entry survives.
func (ps *Parser) begin(src *text.Source) {
	metrics.parsesStarted.Add(1)
	if ps.used {
		metrics.sessionResets.Add(1)
	}
	ps.used = true
	ps.src = src
	ps.in = src.Content()
	ps.stats = Stats{}
	ps.failPos = -1
	ps.failExpected = ps.failExpected[:0]
	ps.pruned = ps.pruned[:0]
	ps.quiet = 0
	ps.hook = nil
	if ps.sampler != nil {
		// A sampled checkout profiles every parse it serves; callers
		// that install their own hook after begin override this for
		// that parse (the rolling profile just sees less).
		ps.hook = ps.sampler
		ps.sampledParses++
	}
	ps.traceID = ""
	ps.examined = 0
	ps.gen = 0
	ps.beginTelemetry()
	ps.disarm()
	// Drop value references parked in the scratch stack's capacity.
	scratch := ps.scratch[:cap(ps.scratch)]
	clear(scratch)
	ps.scratch = ps.scratch[:0]
	// Fresh value slabs: the previous parse's tree must not share one
	// with this parse's (valueArena). Incremental reparses keep the
	// arena, since a document's values live as long as the document.
	ps.values.reset()
	if !ps.prog.opts.Memoize {
		return
	}
	// Lookahead watermarks start fresh with the memo table; incremental
	// reparses keep both (beginIncremental in incremental.go).
	if n := ps.prog.memoCols; n > 0 {
		if cap(ps.prodLook) >= n {
			ps.prodLook = ps.prodLook[:n]
			clear(ps.prodLook)
		} else {
			ps.prodLook = make([]int32, n)
		}
	}
	if ps.prog.opts.ChunkedMemo {
		ps.chunkCount = (ps.prog.memoCols + chunkSize - 1) / chunkSize
		ps.chunkArena.reset()
		ps.rowArena.reset()
		// len(ps.chunks) is exactly the previous parse's window; clearing
		// it removes every row pointer that parse installed.
		n := len(ps.in) + 1
		ps.chunks = resetWindow(ps.chunks, n)
		if ps.rowLive != nil {
			ps.rowMax = resetWindow(ps.rowMax, n)
			ps.rowLive = resetWindow(ps.rowLive, n)
		}
	} else {
		if ps.memoMap == nil {
			ps.memoMap = make(map[int64]memoEntry)
		}
		clear(ps.memoMap)
	}
}

// resetWindow zeroes s and returns it resized to n. Everything past a
// window's length is zero already (whoever shrinks a window clears what
// it gives up), so reslicing into spare capacity exposes no stale value.
func resetWindow[T any](s []T, n int) []T {
	clear(s)
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// enterRoot starts the root production, selecting the execution
// engine: the closure-threaded compiled form when the program carries
// one and no event hook is installed, the node-tree interpreter
// otherwise (hooks need the per-production enter/exit seam only the
// interpreter has). Both lowerings of a program are observationally
// identical, so the choice is invisible to callers.
func (ps *Parser) enterRoot(pos int) (int, ast.Value, bool) {
	if code := ps.prog.code; code != nil && ps.hook == nil {
		return code.root(ps, pos)
	}
	return ps.parseProd(ps.prog.root, pos)
}

// run parses the input from position 0 and returns the root's value and
// the end of its match. Unless prefix is set, the match must consume the
// whole input.
func (ps *Parser) run(prefix bool) (val ast.Value, end int, err error) {
	defer ps.contain(&val, &err)
	end, val, ok := ps.enterRoot(0)
	if !ok {
		return nil, 0, ps.syntaxError()
	}
	if !prefix && end != len(ps.in) {
		if end > ps.failPos {
			ps.failPos = end
			ps.failExpected = append(ps.failExpected[:0], "end of input")
			ps.pruned = ps.pruned[:0]
		}
		return nil, 0, ps.syntaxError()
	}
	ps.finishStats()
	metrics.parsesCompleted.Add(1)
	if g := ps.grammarTally(); g != nil {
		g.completed.Add(1)
	}
	return val, end, nil
}

// beginTelemetry latches the process telemetry toggle for this parse
// and records its start: the input-size histogram and the per-grammar
// started/input-bytes counters fire here, the latency histogram and the
// outcome counters at the parse's single exit funnel (finishStats and
// the outcome sites around it). Atomic adds only — no allocation.
func (ps *Parser) beginTelemetry() {
	ps.telemetry = telemetryEnabled.Load()
	if !ps.telemetry {
		return
	}
	ps.started = time.Now()
	metrics.inputSize.observe(int64(len(ps.in)))
	if g := ps.prog.gstats.Load(); g != nil {
		g.started.Add(1)
		g.inputBytes.Add(int64(len(ps.in)))
	}
}

// grammarTally returns the per-grammar counter set when telemetry
// captured this parse, nil otherwise.
func (ps *Parser) grammarTally() *grammarStats {
	if !ps.telemetry {
		return nil
	}
	return ps.prog.gstats.Load()
}

// finishStats is the single per-parse exit funnel: every parse — run
// successes, syntax errors, limit stops, and contained
// panics — crosses it exactly once, so the latency histogram is
// observed here.
func (ps *Parser) finishStats() {
	// See the memo footprint model above memoEntrySize/mapEntryBytes.
	ps.stats.MemoBytes = ps.stats.ChunksAllocated*chunkSize*memoEntrySize +
		ps.stats.ChunkRows*ps.chunkCount*8 +
		len(ps.memoMap)*mapEntryBytes
	metrics.observePeakMemo(int64(ps.stats.MemoBytes))
	if ps.telemetry {
		d := int64(time.Since(ps.started))
		metrics.parseDuration.observe(d)
		if ps.traceID != "" {
			metrics.parseDuration.exemplar(d, ps.traceID, ps.prog.Label())
		}
	}
}

func (ps *Parser) syntaxError() error {
	ps.finishStats()
	metrics.parsesFailed.Add(1)
	if g := ps.grammarTally(); g != nil {
		g.failed.Add(1)
	}
	pos := ps.failPos
	if pos < 0 {
		pos = 0
	}
	expected := append([]string(nil), ps.failExpected...)
	for _, p := range ps.pruned {
		for m := p.mask; m != 0 && len(expected) < maxExpected; m &= m - 1 {
			if what := p.tbl.expect[bits.TrailingZeros64(m)]; !slices.Contains(expected, what) {
				expected = append(expected, what)
			}
		}
	}
	sort.Strings(expected)
	if len(expected) > 8 {
		expected = expected[:8]
	}
	return &ParseError{Src: ps.src, Pos: text.Pos(pos), Expected: expected}
}

// note records that the current evaluation examined input up to (but not
// including) end — matched or merely peeked. Probes that run into the end
// of input pass an end one past the input length, so outcomes that
// depended on where the input stopped are examined-region facts too
// (appending text then correctly invalidates them). The mark is monotone
// within a parseProd frame; the frame turns it into prodLook watermarks.
func (ps *Parser) note(end int) {
	if end > ps.examined {
		ps.examined = end
	}
}

// fail records a failure at pos expecting the given description.
func (ps *Parser) fail(pos int, what string) {
	// The backtrack edge: every failed literal, class, predicate, or
	// production crosses this function, and adversarial exponential
	// inputs spend nearly all their time failing matches — so a timed
	// parse polls the clock and context here (see pollEdge). The poll
	// runs before the quiet/farthest-position early returns: suppressed
	// failures are still work.
	if ps.timed {
		ps.pollEdge(pos)
	}
	if ps.quiet > 0 || pos < ps.failPos {
		return
	}
	if pos > ps.failPos {
		ps.failPos = pos
		ps.failExpected = ps.failExpected[:0]
		ps.pruned = ps.pruned[:0]
	}
	if len(ps.failExpected) >= maxExpected {
		return
	}
	for _, e := range ps.failExpected {
		if e == what {
			return
		}
	}
	ps.failExpected = append(ps.failExpected, what)
}

// prune charges the failures of the alternatives in mask, which tbl's
// choice skipped at pos, to the farthest-failure record, as a plain
// evaluation trying and failing them there would. Callers pass only the
// alternatives ordered before the one that matched (all skipped ones when
// none did). Like fail, it records nothing inside predicates or behind
// the farthest failure; that check is all most calls cost.
func (ps *Parser) prune(pos int, tbl *choiceTable, mask uint64) {
	if mask != 0 && pos >= ps.failPos && ps.quiet == 0 {
		ps.recordPruned(pos, tbl, mask)
	}
}

// recordPruned is prune's slow path, kept out of line so the frontier
// check inlines into every choice.
//
//go:noinline
func (ps *Parser) recordPruned(pos int, tbl *choiceTable, mask uint64) {
	if pos > ps.failPos {
		ps.failPos = pos
		ps.failExpected = ps.failExpected[:0]
		ps.pruned = ps.pruned[:0]
	}
	for i := range ps.pruned {
		if ps.pruned[i].tbl == tbl {
			ps.pruned[i].mask |= mask
			return
		}
	}
	if len(ps.pruned) < maxExpected {
		ps.pruned = append(ps.pruned, prunedAlts{tbl, mask})
	}
}

// parseProd invokes production prod at pos, consulting the memo table.
func (ps *Parser) parseProd(prod, pos int) (int, ast.Value, bool) {
	info := &ps.prog.prods[prod]

	// First-byte dispatch: fail fast without touching the memo table.
	// Accepted or not, the decision read the byte at pos (or the end of
	// input), so the caller's examined region covers it.
	if ps.prog.opts.Dispatch && info.firstOK {
		ps.note(pos + 1)
		if pos >= len(ps.in) || !info.first.Has(ps.in[pos]) {
			ps.stats.DispatchSkips++
			if ps.hook != nil {
				ps.hook.OnFail(prod, pos)
			}
			ps.fail(pos, info.display)
			return 0, nil, false
		}
	}

	col := info.memoCol
	if col >= 0 {
		if e, ok := ps.memoLoad(pos, col); ok {
			ps.stats.MemoHits++
			if e.gen != ps.gen {
				ps.stats.MemoReused++
			}
			end := pos + int(e.len)
			// The memoized evaluation examined at most its match extent
			// plus the production's lookahead watermark; propagate that to
			// the caller's examined region.
			ps.note(end + int(ps.prodLook[col]))
			if ps.hook != nil {
				ps.hook.OnMemoHit(prod, pos, end, e.state == memoOK)
			}
			if e.state == memoFail {
				ps.fail(pos, info.display)
				return 0, nil, false
			}
			return end, e.val, true
		}
		ps.stats.MemoMisses++
	}

	ps.stats.Calls++
	ps.depth++
	if ps.depth > ps.maxDepth {
		panic(&LimitError{Kind: LimitDepth, Limit: int64(ps.maxDepth),
			Actual: int64(ps.depth), Pos: pos})
	}
	if ps.hook != nil {
		ps.hook.OnEnter(prod, pos)
	}
	// Frame the examined high-water mark so this invocation's extent can
	// be read off after eval; the caller's own mark is restored (merged)
	// below. Backtracking callers may re-enter at an earlier pos, so the
	// saved mark can exceed the frame's.
	saveExamined := ps.examined
	ps.examined = pos
	end, val, ok := ps.eval(info.body, pos)
	examined := ps.examined
	if saveExamined > examined {
		ps.examined = saveExamined
	}
	ps.depth--
	if ps.hook != nil {
		ps.hook.OnExit(prod, pos, end, ok)
	}
	if ok {
		switch info.kind {
		case valText:
			val = ps.values.newToken(ps.in[pos:end], text.NewSpan(text.Pos(pos), text.Pos(end)))
		case valVoid:
			val = nil
		default:
			if n, isNode := val.(*ast.Node); isNode && n != nil && !n.Span.IsValid() {
				n.Span = text.NewSpan(text.Pos(pos), text.Pos(end))
			}
		}
	}

	if col >= 0 {
		// Record how far past its match (past its start, when failing)
		// this invocation read — the production's lookahead watermark.
		matchEnd := pos
		if ok {
			matchEnd = end
		}
		if extra := examined - matchEnd; extra > int(ps.prodLook[col]) {
			ps.prodLook[col] = int32(extra)
		}
		if !ps.shed {
			e := memoEntry{state: memoFail, gen: ps.gen}
			if ok {
				e = memoEntry{state: memoOK, gen: ps.gen, len: int32(end - pos), val: val}
			}
			if ps.memoStore(pos, col, e) {
				ps.stats.MemoStores++
			}
		}
	}
	if !ok {
		ps.fail(pos, info.display)
		return 0, nil, false
	}
	if end > ps.stats.MaxPos {
		ps.stats.MaxPos = end
	}
	return end, val, true
}

func (ps *Parser) memoLoad(pos, col int) (memoEntry, bool) {
	if ps.chunks != nil {
		row := ps.chunks[pos]
		if row == nil {
			return memoEntry{}, false
		}
		chunk := row[col/chunkSize]
		if chunk == nil {
			return memoEntry{}, false
		}
		e := chunk[col%chunkSize]
		return e, e.state != memoEmpty
	}
	e, ok := ps.memoMap[int64(pos)*int64(ps.prog.memoCols)+int64(col)]
	return e, ok
}

// memoStore records e for (pos, col) and reports whether it was stored.
// The chunk-allocation edges — a new chunk, with its directory row when
// the position has none yet, and every map insert — are where the memo
// table grows, so they charge the memo budget and carry the governance
// poll; a budget hit sheds memoization and drops the entry. A row and its
// first chunk are charged together, so a refused chunk never leaves an
// empty row behind.
func (ps *Parser) memoStore(pos, col int, e memoEntry) bool {
	if ps.chunks != nil {
		row := ps.chunks[pos]
		var chunk *memoChunk
		if row != nil {
			chunk = row[col/chunkSize]
		}
		if chunk == nil {
			bytes := chunkSize * memoEntrySize
			if row == nil {
				bytes += ps.chunkCount * 8
			}
			if !ps.chargeMemo(bytes, pos) {
				return false
			}
			if row == nil {
				row = ps.rowArena.alloc(ps.chunkCount)
				ps.chunks[pos] = row
				ps.stats.ChunkRows++
			}
			chunk = ps.chunkArena.alloc()
			row[col/chunkSize] = chunk
			ps.stats.ChunksAllocated++
		}
		slot := &chunk[col%chunkSize]
		if ps.rowLive != nil {
			if slot.state == memoEmpty {
				ps.rowLive[pos]++
			}
			ps.rowMax[pos] = max(ps.rowMax[pos], e.len)
		}
		*slot = e
		return true
	}
	if !ps.chargeMemo(mapEntryBytes, pos) {
		return false
	}
	ps.memoMap[int64(pos)*int64(ps.prog.memoCols)+int64(col)] = e
	return true
}

// eval interprets a compiled node at pos, returning the end position, the
// semantic value, and success.
func (ps *Parser) eval(n node, pos int) (int, ast.Value, bool) {
	switch n := n.(type) {
	case nEmpty:
		return pos, nil, true

	case nLit:
		end := pos + len(n.text)
		ps.note(end)
		if end > len(ps.in) || ps.in[pos:end] != n.text {
			ps.fail(pos, n.display)
			return 0, nil, false
		}
		return end, nil, true

	case *nClass:
		ps.note(pos + 1)
		if pos >= len(ps.in) || !n.set.Has(ps.in[pos]) {
			ps.fail(pos, "character class")
			return 0, nil, false
		}
		if n.void {
			return pos + 1, nil, true
		}
		return pos + 1, ps.values.newToken(ps.in[pos:pos+1], text.NewSpan(text.Pos(pos), text.Pos(pos+1))), true

	case *nScanClass:
		// One frame for the whole run. The byte that stops the scan (or
		// the end-of-input probe) is examined input, and it records the
		// same failure the last per-byte class attempt would have — so
		// watermarks, error text, and farthest-failure positions are
		// identical to the unfused repetition.
		cur := pos
		if n.stopOK {
			if i := strings.IndexByte(ps.in[cur:], n.stop); i >= 0 {
				cur += i
			} else {
				cur = len(ps.in)
			}
		} else {
			for cur < len(ps.in) && n.set.Has(ps.in[cur]) {
				cur++
			}
		}
		ps.note(cur + 1)
		ps.fail(cur, "character class")
		if cur-pos < n.min {
			return 0, nil, false
		}
		return cur, nil, true

	case *nScanLit:
		cur := pos
		count := 0
		for {
			end := cur + len(n.text)
			ps.note(end)
			if end > len(ps.in) || ps.in[cur:end] != n.text {
				ps.fail(cur, n.display)
				break
			}
			cur = end
			count++
		}
		if count < n.min {
			return 0, nil, false
		}
		return cur, nil, true

	case nAny:
		ps.note(pos + 1)
		if pos >= len(ps.in) {
			ps.fail(pos, "any character")
			return 0, nil, false
		}
		if n.void {
			return pos + 1, nil, true
		}
		return pos + 1, ps.values.newToken(ps.in[pos:pos+1], text.NewSpan(text.Pos(pos), text.Pos(pos+1))), true

	case nCall:
		return ps.parseProd(n.prod, pos)

	case *nCapture:
		end, _, ok := ps.eval(n.body, pos)
		if !ok {
			return 0, nil, false
		}
		return end, ps.values.newToken(ps.in[pos:end], text.NewSpan(text.Pos(pos), text.Pos(end))), true

	case *nAnd:
		ps.quiet++
		_, _, ok := ps.eval(n.body, pos)
		ps.quiet--
		if !ok {
			ps.fail(pos, "lookahead")
			return 0, nil, false
		}
		return pos, nil, true

	case *nNot:
		ps.quiet++
		_, _, ok := ps.eval(n.body, pos)
		ps.quiet--
		if ok {
			ps.fail(pos, "negative lookahead")
			return 0, nil, false
		}
		return pos, nil, true

	case *nOpt:
		end, val, ok := ps.eval(n.body, pos)
		if !ok {
			return pos, nil, true
		}
		if n.void {
			return end, nil, true
		}
		return end, val, true

	case *nRepeat:
		cur := pos
		count := 0
		if n.void {
			for {
				end, _, ok := ps.eval(n.body, cur)
				if !ok {
					break
				}
				cur = end
				count++
			}
			if count < n.min {
				return 0, nil, false
			}
			return cur, nil, true
		}
		base := len(ps.scratch)
		for {
			end, val, ok := ps.eval(n.body, cur)
			if !ok {
				break
			}
			cur = end
			count++
			if val != nil {
				ps.scratch = append(ps.scratch, val)
			}
		}
		if count < n.min {
			ps.scratch = ps.scratch[:base]
			return 0, nil, false
		}
		list := ast.List(ps.values.copyVals(ps.scratch[base:]))
		ps.scratch = ps.scratch[:base]
		if list == nil {
			list = ast.List{}
		}
		return cur, list, true

	case *nSeq:
		return ps.evalSeq(n, pos)

	case *nChoice:
		if n.tbl != nil {
			// First-set pruning: one probe selects the alternatives worth
			// trying for the next byte; the rest are skipped without a
			// frame. Reading the byte (or probing the end of input) is an
			// examined-region fact either way.
			ps.note(pos + 1)
			mask := n.tbl.eof
			if pos < len(ps.in) {
				mask = n.tbl.masks[ps.in[pos]]
			}
			skipped := mask ^ n.tbl.all
			if skipped != 0 {
				ps.stats.DispatchSkips += bits.OnesCount64(skipped)
			}
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				if end, val, ok := ps.eval(n.alts[i].n, pos); ok {
					ps.prune(pos, n.tbl, skipped&(1<<i-1))
					return end, val, true
				}
			}
			ps.prune(pos, n.tbl, skipped)
			return 0, nil, false
		}
		var b byte
		haveByte := pos < len(ps.in)
		if haveByte {
			b = ps.in[pos]
		}
		for i := range n.alts {
			alt := &n.alts[i]
			if alt.dispatchOK {
				ps.note(pos + 1)
				if !haveByte || !alt.first.Has(b) {
					ps.stats.DispatchSkips++
					ps.fail(pos, alt.expect)
					continue
				}
			}
			if end, val, ok := ps.eval(alt.n, pos); ok {
				return end, val, true
			}
		}
		return 0, nil, false

	case *nInline:
		// A PGO-inlined production call: parseProd minus the memo table,
		// the hooks, and the depth accounting. The dispatch fast-fail and
		// the failure record naming the production are preserved so error
		// reports match the memoized engine's.
		if ps.prog.opts.Dispatch && n.firstOK {
			ps.note(pos + 1)
			if pos >= len(ps.in) || !n.first.Has(ps.in[pos]) {
				ps.stats.DispatchSkips++
				ps.fail(pos, n.display)
				return 0, nil, false
			}
		}
		end, val, ok := ps.eval(n.body, pos)
		if !ok {
			ps.fail(pos, n.display)
			return 0, nil, false
		}
		switch n.kind {
		case valText:
			val = ps.values.newToken(ps.in[pos:end], text.NewSpan(text.Pos(pos), text.Pos(end)))
		case valVoid:
			val = nil
		default:
			if nd, isNode := val.(*ast.Node); isNode && nd != nil && !nd.Span.IsValid() {
				nd.Span = text.NewSpan(text.Pos(pos), text.Pos(end))
			}
		}
		return end, val, true

	case *nLeftRec:
		end, acc, ok := ps.eval(n.seed, pos)
		if !ok {
			return 0, nil, false
		}
	grow:
		for {
			for i := range n.suffixes {
				s := &n.suffixes[i]
				nend, base, ok := ps.evalSeqItems(s, end)
				if !ok {
					continue
				}
				acc = ps.foldLeft(acc, s.ctor, base, pos, nend)
				ps.scratch = ps.scratch[:base]
				end = nend
				continue grow
			}
			break
		}
		if n.void {
			return end, nil, true
		}
		return end, acc, true

	default:
		panic(fmt.Sprintf("vm: unknown node %T", n))
	}
}

// evalSeq evaluates a sequence and builds its value per the sequence rules.
func (ps *Parser) evalSeq(n *nSeq, pos int) (int, ast.Value, bool) {
	end, base, ok := ps.evalSeqItems(n, pos)
	if !ok {
		return 0, nil, false
	}
	if n.void {
		return end, nil, true
	}
	v := ps.seqValue(n, base, pos, end)
	ps.scratch = ps.scratch[:base]
	return end, v, true
}

// evalSeqItems matches the items of a sequence, pushing the values that
// participate in the sequence's result (bound values verbatim under a
// binding constructor, non-nil values otherwise; splice sequences build a
// flat list) onto the scratch stack. It returns the end position and the
// stack base mark; the caller reads ps.scratch[base:] and must truncate
// back to base. On failure the stack is already truncated.
func (ps *Parser) evalSeqItems(n *nSeq, pos int) (int, int, bool) {
	base := len(ps.scratch)
	cur := pos
	for i := range n.items {
		it := &n.items[i]
		end, val, ok := ps.eval(it.n, cur)
		if !ok {
			ps.scratch = ps.scratch[:base]
			return 0, base, false
		}
		cur = end
		if n.void {
			continue
		}
		if n.splice {
			switch it.role {
			case roleHead:
				if val != nil {
					ps.scratch = append(ps.scratch, val)
				}
			case roleTail:
				if l, isList := val.(ast.List); isList {
					ps.scratch = append(ps.scratch, l...)
				}
			}
			continue
		}
		if n.ctor != "" && n.hasBind {
			if it.bound {
				ps.scratch = append(ps.scratch, val)
			}
		} else if val != nil {
			ps.scratch = append(ps.scratch, val)
		}
	}
	return cur, base, true
}

// seqValue assembles a sequence's semantic value from the item values at
// ps.scratch[base:], copying them out of the scratch stack at their final
// size. The caller truncates the stack.
func (ps *Parser) seqValue(n *nSeq, base, start, end int) ast.Value {
	vals := ps.scratch[base:]
	if n.splice {
		out := ps.values.copyVals(vals)
		if out == nil {
			out = []ast.Value{}
		}
		return ast.List(out)
	}
	if n.ctor != "" {
		return ps.values.newNode(n.ctor, ps.values.copyVals(vals),
			text.NewSpan(text.Pos(start), text.Pos(end)))
	}
	switch len(vals) {
	case 0:
		return nil
	case 1:
		return vals[0]
	default:
		return ast.List(ps.values.copyVals(vals))
	}
}

// foldLeft folds one left-recursion suffix match (its values at
// ps.scratch[base:]) into the accumulated value. The caller truncates the
// stack.
func (ps *Parser) foldLeft(acc ast.Value, ctor string, base, start, end int) ast.Value {
	vals := ps.scratch[base:]
	if ctor != "" {
		children := ps.values.carve(len(vals) + 1)
		children[0] = acc
		copy(children[1:], vals)
		return ps.values.newNode(ctor, children,
			text.NewSpan(text.Pos(start), text.Pos(end)))
	}
	if len(vals) == 0 {
		return acc
	}
	out := ps.values.carve(len(vals) + 1)
	out[0] = acc
	copy(out[1:], vals)
	return ast.List(out)
}
