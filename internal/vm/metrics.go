package vm

import (
	"encoding/json"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the process-wide engine metrics registry: atomic
// counters every Program in the process feeds, cheap enough to update
// unconditionally (a handful of uncontended atomic adds per parse, none
// per production), exported as a JSON snapshot for scraping. Where the
// per-parse Stats answer "what did this parse do", the registry answers
// "what has this process's engine been doing": how hard the session
// pool is working, how much memo storage the arenas have carved and how
// much of it recycling is saving, and the high-water memo footprint.
//
// Byte counters use the same footprint model as Stats.MemoBytes
// (memoEntrySize et al.), so registry numbers and per-parse numbers are
// directly comparable.
//
// On top of the scalar counters the registry keeps two fixed-bucket
// histograms (parse latency and input size) and per-grammar labeled
// counters, all lock-free on the hot path: recording is a handful of
// atomic adds per parse (never per production) and allocates nothing,
// so the nil-hook/ungoverned 0 allocs/op guarantee holds with telemetry
// enabled. SetTelemetry(false) disables the per-parse recording
// entirely for ablation measurements (Table 9).

// telemetryEnabled gates the per-parse histogram and per-grammar
// recording. Enabled by default; see SetTelemetry.
var telemetryEnabled atomic.Bool

func init() {
	telemetryEnabled.Store(true)
	metrics.parseDuration.bounds = parseDurationBounds
	metrics.inputSize.bounds = inputSizeBounds
}

// SetTelemetry enables or disables per-parse telemetry recording (the
// latency and input-size histograms and the per-grammar counters) and
// returns the previous setting. The scalar registry counters are always
// on. Telemetry is enabled by default; disabling exists for overhead
// ablations, not as a production configuration — the recording path is
// allocation-free either way.
func SetTelemetry(on bool) bool { return telemetryEnabled.Swap(on) }

// TelemetryEnabled reports whether per-parse telemetry recording is on.
func TelemetryEnabled() bool { return telemetryEnabled.Load() }

// ------------------------------------------------------------ histograms

// Histogram bucket ladders. Fixed at process start so observation is a
// bounded scan over a static array — no sizing heuristics, no locks.
// Upper bounds are inclusive (Prometheus `le` semantics); observations
// beyond the last bound land only in the implicit +Inf bucket.
var (
	// parseDurationBounds is a 1–2.5–5 ladder in nanoseconds from 1µs to
	// 10s: wide enough for a void-grammar microparse and a governed
	// multi-second worst case in the same scrape.
	parseDurationBounds = []int64{
		1_000, 2_500, 5_000, // 1µs 2.5µs 5µs
		10_000, 25_000, 50_000, // 10µs 25µs 50µs
		100_000, 250_000, 500_000, // 100µs 250µs 500µs
		1_000_000, 2_500_000, 5_000_000, // 1ms 2.5ms 5ms
		10_000_000, 25_000_000, 50_000_000, // 10ms 25ms 50ms
		100_000_000, 250_000_000, 500_000_000, // 100ms 250ms 500ms
		1_000_000_000, 2_500_000_000, 5_000_000_000, // 1s 2.5s 5s
		10_000_000_000, // 10s
	}
	// inputSizeBounds covers inputs from a REPL line to the multi-MB
	// adversarial corpus, in bytes.
	inputSizeBounds = []int64{
		64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
		256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20,
	}
)

// histMaxBuckets sizes the static bucket arrays: the longest ladder.
const histMaxBuckets = 22

// Exemplar is one traced observation pinned to a histogram bucket: the
// trace ID of the request that landed there, the grammar label it
// parsed under, the observed value (the histogram's native unit), and
// the wall-clock time it was recorded. Each bucket keeps its most
// recent exemplar, so a scrape of the tail buckets carries concrete
// trace IDs to chase — the OpenMetrics exemplar model.
type Exemplar struct {
	TraceID    string `json:"trace_id"`
	Grammar    string `json:"grammar,omitempty"`
	Value      int64  `json:"value"`
	TimeUnixNS int64  `json:"time_unix_ns"`
}

// histogram is a lock-free fixed-bucket histogram. Per-bucket counts
// are stored non-cumulative (one atomic add per observation) and summed
// into Prometheus-style cumulative buckets at snapshot time. Each
// bucket additionally holds the latest traced observation that landed
// in it (one atomic pointer; the extra slot is the implicit +Inf
// bucket) — written only by traced parses, so the untraced hot path
// never touches it.
type histogram struct {
	bounds    []int64 // ascending inclusive upper bounds; +Inf implicit
	count     atomic.Int64
	sum       atomic.Int64
	buckets   [histMaxBuckets]atomic.Int64
	exemplars [histMaxBuckets + 1]atomic.Pointer[Exemplar]
}

// observe records one value: three atomic adds and a bounded scan, no
// allocation.
func (h *histogram) observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	// Beyond the last bound: counted only by the implicit +Inf bucket,
	// which snapshot derives from count.
}

// exemplar pins (traceID, label, v) to the bucket v lands in — the
// same bucket selection as observe, plus the +Inf slot for values
// beyond the last bound. One small allocation per traced parse, off
// the untraced path entirely.
func (h *histogram) exemplar(v int64, traceID, label string) {
	e := &Exemplar{TraceID: traceID, Grammar: label, Value: v, TimeUnixNS: time.Now().UnixNano()}
	slot := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			slot = i
			break
		}
	}
	h.exemplars[slot].Store(e)
}

func (h *histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	for i := range h.exemplars {
		h.exemplars[i].Store(nil)
	}
}

// HistogramBucket is one cumulative histogram bucket: the number of
// observations with value <= UpperBound, plus the latest traced
// observation that landed in it (nil when the bucket has never seen a
// traced parse).
type HistogramBucket struct {
	UpperBound int64     `json:"le"`
	Count      int64     `json:"count"`
	Exemplar   *Exemplar `json:"exemplar,omitempty"`
}

// HistogramSnapshot is a point-in-time copy of a registry histogram.
// Buckets are cumulative over the finite upper bounds, in ascending
// order; the +Inf bucket is implicit and equals Count. Sum and the
// bounds are in the histogram's native unit (nanoseconds for the
// latency histogram, bytes for the input-size histogram).
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets []HistogramBucket `json:"buckets"`
	// InfExemplar is the latest traced observation beyond the last
	// finite bound (the implicit +Inf bucket).
	InfExemplar *Exemplar `json:"inf_exemplar,omitempty"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]HistogramBucket, len(h.bounds)),
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		s.Buckets[i] = HistogramBucket{UpperBound: b, Count: cum, Exemplar: h.exemplars[i].Load()}
	}
	// Count was loaded before the buckets were summed, so observations
	// racing in between can make the cumulative sum exceed it — which
	// would render a +Inf bucket smaller than the last finite one.
	// Clamp Count up to the sum so the snapshot is always internally
	// monotone (the next scrape sees the full count anyway).
	if cum > s.Count {
		s.Count = cum
	}
	s.InfExemplar = h.exemplars[len(h.bounds)].Load()
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution by linear interpolation inside the winning bucket, in
// the histogram's native unit. The first bucket interpolates from zero;
// observations that landed beyond the last finite bound (the implicit
// +Inf bucket) clamp to the last finite bound, so tail quantiles are a
// lower bound once the ladder overflows. Returns 0 for an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var lo int64    // lower edge of the current bucket
	var below int64 // cumulative count below it
	for _, b := range s.Buckets {
		if float64(b.Count) >= rank {
			in := b.Count - below
			if in <= 0 {
				return b.UpperBound
			}
			frac := (rank - float64(below)) / float64(in)
			return lo + int64(frac*float64(b.UpperBound-lo))
		}
		below = b.Count
		lo = b.UpperBound
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}

// Histogram is the registry's lock-free fixed-bucket histogram exported
// for reuse outside the registry — the loadbench client records its
// request latencies through the exact machinery the server-side
// parse-duration histogram uses, so client and server distributions are
// directly comparable.
type Histogram struct{ h histogram }

// NewHistogram builds a histogram over the given ascending inclusive
// upper bounds (at most histMaxBuckets of them; the +Inf bucket is
// implicit). The bounds slice is copied.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) > histMaxBuckets {
		panic("vm: NewHistogram: too many buckets")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("vm: NewHistogram: bounds not strictly ascending")
		}
	}
	h := &Histogram{}
	h.h.bounds = append([]int64(nil), bounds...)
	return h
}

// Observe records one value: three atomic adds and a bounded scan,
// allocation-free and safe for concurrent use.
func (h *Histogram) Observe(v int64) { h.h.observe(v) }

// Snapshot returns a point-in-time copy with cumulative buckets.
func (h *Histogram) Snapshot() HistogramSnapshot { return h.h.snapshot() }

// Reset zeroes the histogram (not atomic against concurrent Observe).
func (h *Histogram) Reset() { h.h.reset() }

// LatencyBounds returns a copy of the registry's parse-latency bucket
// ladder (nanoseconds, 1µs–10s) — the default ladder for client-side
// latency histograms.
func LatencyBounds() []int64 { return append([]int64(nil), parseDurationBounds...) }

// --------------------------------------------------- per-grammar counters

// grammarStats is one grammar label's counter set. Programs hold a
// resolved pointer (see Program.SetLabel), so hot-path recording is
// plain atomic adds — the label registry's mutex is only taken at
// compile/SetLabel/snapshot/reset time and when a sampled checkout is
// released.
type grammarStats struct {
	label      string
	started    atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	limitStops atomic.Int64
	inputBytes atomic.Int64
	// sampled is the label's rolling sampled profile (sample.go), nil
	// until a sampled parse folds into it. Guarded by grammarsMu.
	sampled *sampledEntry
}

var (
	grammarsMu  sync.Mutex
	grammarsReg = make(map[string]*grammarStats)
)

// grammarStatsFor returns the (process-wide) counter set for label,
// registering it on first use. Counter sets stay registered until
// ForgetLabel: Programs keep pointers to them, and ResetMetrics zeroes
// them in place so a reset never orphans a live Program's counters.
func grammarStatsFor(label string) *grammarStats {
	grammarsMu.Lock()
	defer grammarsMu.Unlock()
	g := grammarsReg[label]
	if g == nil {
		g = &grammarStats{label: label}
		grammarsReg[label] = g
	}
	return g
}

// ForgetLabel unregisters label's counter set and its rolling sampled
// profile, so neither is exported. A Program still labeled with it
// keeps counting, unexported; a later SetLabel of the same label starts
// a fresh set. The grammar registry forgets a version's label when it
// deletes the version, so a long-running server under upload churn
// holds counters only for the versions it still has.
func ForgetLabel(label string) {
	grammarsMu.Lock()
	defer grammarsMu.Unlock()
	delete(grammarsReg, label)
}

// GrammarCounters is a point-in-time copy of one grammar label's
// counters. ParsesStarted counts begun parses; each lands in
// ParsesCompleted, ParsesFailed, or LimitStops. InputBytes sums the
// input sizes of begun parses.
type GrammarCounters struct {
	ParsesStarted   int64 `json:"parses_started"`
	ParsesCompleted int64 `json:"parses_completed"`
	ParsesFailed    int64 `json:"parses_failed"`
	LimitStops      int64 `json:"limit_stops"`
	InputBytes      int64 `json:"input_bytes"`
}

// snapshotGrammars copies the per-grammar counters, skipping labels
// that have not recorded a parse since the last reset (registration
// alone — compiling a Program — does not make a label scrapeable).
func snapshotGrammars() map[string]GrammarCounters {
	grammarsMu.Lock()
	defer grammarsMu.Unlock()
	var out map[string]GrammarCounters
	for label, g := range grammarsReg {
		started := g.started.Load()
		if started == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]GrammarCounters)
		}
		out[label] = GrammarCounters{
			ParsesStarted:   started,
			ParsesCompleted: g.completed.Load(),
			ParsesFailed:    g.failed.Load(),
			LimitStops:      g.limitStops.Load(),
			InputBytes:      g.inputBytes.Load(),
		}
	}
	return out
}

// GrammarLabels returns the labels with recorded parses, sorted — the
// iteration order exporters use for deterministic rendering.
func (s MetricsSnapshot) GrammarLabels() []string {
	labels := make([]string, 0, len(s.Grammars))
	for label := range s.Grammars {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return labels
}

// --------------------------------------------------------------- registry

// metricsRegistry holds the process-wide counters.
type metricsRegistry struct {
	parsesStarted   atomic.Int64
	parsesCompleted atomic.Int64
	parsesFailed    atomic.Int64
	poolGets        atomic.Int64
	poolNews        atomic.Int64
	sessionResets   atomic.Int64
	arenaCarved     atomic.Int64
	arenaRecycled   atomic.Int64
	peakMemoBytes   atomic.Int64
	limitStops      atomic.Int64
	memoSheds       atomic.Int64
	panicsContained atomic.Int64

	// Incremental-document counters (incremental.go).
	incrementalApplies      atomic.Int64
	incrementalFullReparses atomic.Int64
	memoEntriesReused       atomic.Int64
	memoEntriesInvalidated  atomic.Int64
	memoEntriesRelocated    atomic.Int64

	// Telemetry histograms (gated by SetTelemetry).
	parseDuration histogram // per-parse wall time, nanoseconds
	inputSize     histogram // per-parse input size, bytes

	// inflight is the live in-flight-requests gauge the serve layer
	// brackets each parse request with (AddInflight).
	inflight atomic.Int64
}

// processStart anchors the uptime gauge.
var processStart = time.Now()

// AddInflight adjusts the in-flight-requests gauge by d and returns the
// new value. The serve layer calls AddInflight(1) when a parse request
// begins and AddInflight(-1) when it completes; scraping it between the
// two shows how many requests the process is holding right now.
func AddInflight(d int64) int64 { return metrics.inflight.Add(d) }

// metrics is the registry instance. Process-wide by design: a fleet of
// Programs shares one scrape target, like runtime.MemStats.
var metrics metricsRegistry

// observePeakMemo raises the peak-memo high-water mark to b (CAS loop;
// lock-free and monotone under concurrent parses).
func (m *metricsRegistry) observePeakMemo(b int64) {
	for {
		cur := m.peakMemoBytes.Load()
		if b <= cur || m.peakMemoBytes.CompareAndSwap(cur, b) {
			return
		}
	}
}

// MetricsSnapshot is a point-in-time copy of the engine metrics
// registry. Counters are monotone since process start (or the last
// ResetMetrics); deltas between scrapes are rates.
type MetricsSnapshot struct {
	// ParsesStarted counts begun parses; every one lands in
	// ParsesCompleted, ParsesFailed (failed = syntax error; the input
	// did not match), or LimitStops (stopped by a resource budget).
	ParsesStarted   int64 `json:"parses_started"`
	ParsesCompleted int64 `json:"parses_completed"`
	ParsesFailed    int64 `json:"parses_failed"`
	// PoolGets counts parser checkouts from the Program.Parse pool;
	// PoolNews counts the misses that built a fresh parser. A high
	// news/gets ratio means the pool is being drained (GC pressure or
	// bursty concurrency).
	PoolGets int64 `json:"pool_gets"`
	PoolNews int64 `json:"pool_news"`
	// SessionResets counts warm rewinds: a parser (pooled or explicit
	// session) that had parsed before beginning another input.
	// ParsesStarted - SessionResets is the number of cold first parses.
	SessionResets int64 `json:"session_resets"`
	// ArenaBytesCarved counts memo-arena slab bytes handed to the
	// allocator; ArenaBytesRecycled counts carved bytes made reusable
	// again by session resets — the allocation traffic the arenas saved.
	ArenaBytesCarved   int64 `json:"arena_bytes_carved"`
	ArenaBytesRecycled int64 `json:"arena_bytes_recycled"`
	// PeakMemoBytes is the largest single-parse memo footprint observed
	// (Stats.MemoBytes model).
	PeakMemoBytes int64 `json:"peak_memo_bytes"`
	// LimitStops counts parses stopped by a resource budget or a
	// canceled context (see Limits); these parses land in neither
	// ParsesCompleted nor ParsesFailed.
	LimitStops int64 `json:"limit_stops"`
	// MemoSheds counts memo-budget hits that degraded a parse into
	// shed-memoization mode instead of stopping it.
	MemoSheds int64 `json:"memo_sheds"`
	// PanicsContained counts interpreter panics converted into
	// *EngineError by the governance layer. Nonzero means an engine or
	// hook bug; the counter exists so a fleet notices.
	PanicsContained int64 `json:"panics_contained"`
	// IncrementalApplies counts Document.Apply calls with at least one
	// edit; IncrementalFullReparses counts the subset that fell back to a
	// from-scratch reparse (damage threshold, arena growth bound,
	// unsupported engine configuration, or a failed incremental pass
	// being re-reported from scratch).
	IncrementalApplies      int64 `json:"incremental_applies"`
	IncrementalFullReparses int64 `json:"incremental_full_reparses"`
	// MemoEntriesReused/Invalidated/Relocated aggregate the per-apply
	// Stats.MemoReused / MemoInvalidated / MemoRelocated counters across
	// every successful incremental apply in the process.
	MemoEntriesReused      int64 `json:"memo_entries_reused"`
	MemoEntriesInvalidated int64 `json:"memo_entries_invalidated"`
	MemoEntriesRelocated   int64 `json:"memo_entries_relocated"`

	// Runtime gauges, sampled at snapshot time: scheduler and memory
	// state a capacity run correlates with the parse counters.
	// Goroutines is runtime.NumGoroutine(); HeapBytes is live heap
	// (MemStats.HeapAlloc); GCPauseNS is cumulative stop-the-world GC
	// pause since process start (MemStats.PauseTotalNs);
	// InflightRequests is the serve layer's live request gauge
	// (AddInflight); UptimeNS is time since process start.
	Goroutines       int64 `json:"goroutines"`
	HeapBytes        int64 `json:"heap_bytes"`
	GCPauseNS        int64 `json:"gc_pause_ns"`
	InflightRequests int64 `json:"inflight_requests"`
	UptimeNS         int64 `json:"uptime_ns"`

	// ParseDurationNS and ParseInputBytes are the per-parse latency
	// (nanoseconds) and input-size (bytes) histograms; empty while
	// telemetry is disabled (SetTelemetry).
	ParseDurationNS HistogramSnapshot `json:"parse_duration_ns"`
	ParseInputBytes HistogramSnapshot `json:"parse_input_bytes"`
	// Grammars holds per-grammar labeled counters for every grammar
	// label that recorded at least one parse since the last reset. The
	// label defaults to the root production's module qualifier and is
	// overridden by Program.SetLabel.
	Grammars map[string]GrammarCounters `json:"grammars,omitempty"`
	// SampledProfiles holds the rolling 1-in-N sampled profiles, one
	// per grammar label that has been sampled (sample.go); empty while
	// sampling is off everywhere. The Prometheus exporter renders the
	// top rows as hot-production counters.
	SampledProfiles []SampledProfile `json:"sampled_profiles,omitempty"`
}

// Metrics returns a snapshot of the process-wide engine metrics.
// Sampling the runtime gauges calls runtime.ReadMemStats, so Metrics is
// a scrape-time operation, not a hot-path one.
func Metrics() MetricsSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MetricsSnapshot{
		Goroutines:       int64(runtime.NumGoroutine()),
		HeapBytes:        int64(ms.HeapAlloc),
		GCPauseNS:        int64(ms.PauseTotalNs),
		InflightRequests: metrics.inflight.Load(),
		UptimeNS:         int64(time.Since(processStart)),

		ParsesStarted:      metrics.parsesStarted.Load(),
		ParsesCompleted:    metrics.parsesCompleted.Load(),
		ParsesFailed:       metrics.parsesFailed.Load(),
		PoolGets:           metrics.poolGets.Load(),
		PoolNews:           metrics.poolNews.Load(),
		SessionResets:      metrics.sessionResets.Load(),
		ArenaBytesCarved:   metrics.arenaCarved.Load(),
		ArenaBytesRecycled: metrics.arenaRecycled.Load(),
		PeakMemoBytes:      metrics.peakMemoBytes.Load(),
		LimitStops:         metrics.limitStops.Load(),
		MemoSheds:          metrics.memoSheds.Load(),
		PanicsContained:    metrics.panicsContained.Load(),

		IncrementalApplies:      metrics.incrementalApplies.Load(),
		IncrementalFullReparses: metrics.incrementalFullReparses.Load(),
		MemoEntriesReused:       metrics.memoEntriesReused.Load(),
		MemoEntriesInvalidated:  metrics.memoEntriesInvalidated.Load(),
		MemoEntriesRelocated:    metrics.memoEntriesRelocated.Load(),

		ParseDurationNS: metrics.parseDuration.snapshot(),
		ParseInputBytes: metrics.inputSize.snapshot(),
		Grammars:        snapshotGrammars(),
		SampledProfiles: SampledProfiles(),
	}
}

// JSON encodes the snapshot for scraping.
func (s MetricsSnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ResetMetrics zeroes the registry — for tests and for scrapers that
// prefer windowed counters over monotone ones. Not atomic as a whole:
// counters racing with in-flight parses may land on either side of the
// reset. Per-grammar counter sets are zeroed in place (not removed), so
// compiled Programs keep feeding the same sets after a reset. The
// runtime gauges are untouched: goroutines/heap/GC-pause/uptime are
// resampled from the runtime at every snapshot, and zeroing the live
// in-flight gauge while requests are in flight would leave it negative
// forever once they complete.
func ResetMetrics() {
	metrics.parsesStarted.Store(0)
	metrics.parsesCompleted.Store(0)
	metrics.parsesFailed.Store(0)
	metrics.poolGets.Store(0)
	metrics.poolNews.Store(0)
	metrics.sessionResets.Store(0)
	metrics.arenaCarved.Store(0)
	metrics.arenaRecycled.Store(0)
	metrics.peakMemoBytes.Store(0)
	metrics.limitStops.Store(0)
	metrics.memoSheds.Store(0)
	metrics.panicsContained.Store(0)
	metrics.incrementalApplies.Store(0)
	metrics.incrementalFullReparses.Store(0)
	metrics.memoEntriesReused.Store(0)
	metrics.memoEntriesInvalidated.Store(0)
	metrics.memoEntriesRelocated.Store(0)
	metrics.parseDuration.reset()
	metrics.inputSize.reset()

	grammarsMu.Lock()
	defer grammarsMu.Unlock()
	for _, g := range grammarsReg {
		g.started.Store(0)
		g.completed.Store(0)
		g.failed.Store(0)
		g.limitStops.Store(0)
		g.inputBytes.Store(0)
	}
}
