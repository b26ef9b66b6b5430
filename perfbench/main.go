// Command perfbench is modpeg's benchmark. It runs one seeded workload
// against the library and an in-process `modpeg serve`, checks every
// output against an independent reference parser, and prints the
// workload's metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded around every call the benchmark makes
// into a layer, and prints the per-layer metrics derived from them.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a JSON
// report with the run's metadata, the workload's own metric names and
// the sample count behind each percentile. See README.md for the
// workloads and the layer each metric belongs to.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runLimit bounds a whole run, set-up and reference values included,
// so the command always exits within three minutes.
const runLimit = 170 * time.Second

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	window   time.Duration // how long the measured phase runs
	trace    bool
}

// outcome is what a workload run returns.
type outcome struct {
	tally *tally
	// named holds the workload's own metrics under the names the
	// README uses (serve_p99_ms, doc_parse_ms, ...), with sample counts.
	named *report
	// e2e holds the end-to-end metrics BENCHMARK.json lists; every
	// workload fills all of them.
	e2e *report
	// layers holds the per-layer metrics of a traced run.
	layers *report
	// extra records workload parameters (fixed rate, operation counts).
	extra map[string]any
	spans *tracer
	// addr is where the in-process server listened (empty without
	// one); after the run nothing may accept connections there.
	addr string
}

type workloadFunc func(ctx context.Context, cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"serve-mix":     runServeMix,
	"tenant-upload": runTenantUpload,
	"java-edit":     runJavaEdit,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-mix, tenant-upload or java-edit")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Int("seconds", 30, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload serve-mix|tenant-upload|java-edit, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	out, err := w(ctx, cfg)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := printResult(stdout, stderr, cfg, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if out.tally.failed.Load() > 0 {
		return 1
	}
	return 0
}

// printResult writes the report line and the result line.
func printResult(stdout, stderr io.Writer, cfg config, out *outcome) error {
	metrics := out.e2e
	if cfg.trace {
		metrics = out.layers
		if err := writeSpans(cfg, out.spans); err != nil {
			return err
		}
	}
	errs := append(append([]error(nil), out.named.errs...), metrics.errs...)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	attempted, failed := out.tally.attempted.Load(), out.tally.failed.Load()
	for _, msg := range out.tally.messages() {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
	}
	fail := 0.0
	if attempted > 0 {
		fail = float64(failed) / float64(attempted)
	}
	out.named.set("fail_ratio", fail, "ratio")
	rep := map[string]any{
		"workload": cfg.workload,
		"trace":    cfg.trace,
		"seconds":  cfg.window.Seconds(),
		"meta":     metadata(cfg.seed),
		"params":   out.extra,
		"metrics":  out.named.vals,
	}
	line, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, map[string]metric{}}
	for k, q := range metrics.vals {
		final.Metrics[k] = metric{q.Value, q.Unit}
	}
	line, err = json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// writeSpans stores a traced run's spans under the build directory.
func writeSpans(cfg config, t *tracer) error {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return t.writeFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}

// tally counts attempted and failed operations; failures keep their
// first few messages.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	msgs              []string
}

func (t *tally) check(err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, err.Error())
	}
	t.mu.Unlock()
	return false
}

func (t *tally) messages() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.msgs...)
}

// setupRuns is how many times a run repeats its set-up; setup_s is the
// median, so one slow start does not decide it.
const setupRuns = 11

// timeSetups runs setup setupRuns times, tearing down all but the last,
// and returns the durations in seconds with the last result.
func timeSetups[T any](setup func() (T, error), teardown func(T)) ([]float64, T, error) {
	var (
		secs []float64
		last T
	)
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return nil, last, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < setupRuns-1 {
			teardown(v)
		}
		last = v
	}
	return secs, last, nil
}

// liveHeapMB forces a collection and returns the live heap in MB. What
// sync.Pool holds survives one collection, so pooled parsers and what
// they keep reachable count.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// usedHeapMB is the median of n readings of liveHeapMB, each taken
// right after use has run the workload's operations once more, so that
// the pools hold what serving them leaves there. Each processor keeps
// its own pool, so one reading counts one or two pooled parsers per
// grammar as the scheduler happened to run them.
func usedHeapMB(n int, use func()) float64 {
	var mb []float64
	for i := 0; i < n; i++ {
		use()
		mb = append(mb, liveHeapMB())
	}
	return median(mb)
}

// endToEnd copies the end-to-end metrics BENCHMARK.json lists from a
// workload's own metrics (see README.md for each workload's mapping):
// op_p50_ms and op_tail_ms (its p90) describe its primary operation,
// aux_p50_ms its secondary one, and ops_per_s its throughput.
func endToEnd(named *report, p50, tail, aux, ops string) *report {
	r := newReport()
	for to, from := range map[string]string{
		"setup_s": "setup_s", "op_p50_ms": p50, "op_tail_ms": tail,
		"aux_p50_ms": aux, "ops_per_s": ops, "retained_heap_mb": "retained_heap_mb",
	} {
		if q, ok := named.vals[from]; ok {
			r.vals[to] = quantity{Value: q.Value, Unit: q.Unit}
		}
	}
	return r
}

// gcWindow measures the Go runtime's collections over a phase.
type gcWindow struct{ cycles, pauseNS uint64 }

func gcNow() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{uint64(ms.NumGC), ms.PauseTotalNs}
}

func (w gcWindow) since(before gcWindow) gcWindow {
	return gcWindow{w.cycles - before.cycles, w.pauseNS - before.pauseNS}
}

// memDelta measures the allocations of one call.
type memDelta struct{ bytes, allocs uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, ms.Mallocs}
}

func (m memDelta) since(before memDelta) memDelta {
	return memDelta{m.bytes - before.bytes, m.allocs - before.allocs}
}

// spinWindow is how early sleepUntil wakes before spinning to its
// target: timer wake-ups on a busy machine run up to a millisecond
// late, and an open loop counts that lateness as latency.
const spinWindow = time.Millisecond

// sleepUntil waits until t or until ctx is done. It sleeps until
// spinWindow before t and yields in a loop for the rest.
func sleepUntil(ctx context.Context, t time.Time) error {
	if d := time.Until(t) - spinWindow; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
	return ctx.Err()
}
