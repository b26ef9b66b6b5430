package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 read from 300 samples rests on three values and moves with
// every scheduler hiccup, so the benchmark refuses to report it.
const minBeyond = 10

// series is one kind of operation's exact latencies in milliseconds,
// with the time each completed (offset from the window's start) and the
// document it concerned. Percentiles come from these values, never from
// the engine's fixed-bucket histograms.
type series struct {
	ms    []float64
	at    []time.Duration
	group []int
}

func (s *series) add(at, d time.Duration, group int) {
	s.ms = append(s.ms, float64(d)/1e6)
	s.at = append(s.at, at)
	s.group = append(s.group, group)
}

func (s *series) addAll(o series) {
	s.ms = append(s.ms, o.ms...)
	s.at = append(s.at, o.at...)
	s.group = append(s.group, o.group...)
}

// segments is how many equal parts of the window a per-part figure
// is computed over.
const segments = 5

// split divides the samples by which of n equal parts of window they
// completed in.
func (s *series) split(window time.Duration, n int) []series {
	parts := make([]series, n)
	for i, at := range s.at {
		k := min(max(int(int64(at)*int64(n)/int64(window)), 0), n-1)
		parts[k].ms = append(parts[k].ms, s.ms[i])
		parts[k].at = append(parts[k].at, at)
		parts[k].group = append(parts[k].group, s.group[i])
	}
	return parts
}

// partsHave reports whether each of n equal parts of window holds at
// least least samples.
func (s *series) partsHave(window time.Duration, n, least int) bool {
	for _, part := range s.split(window, n) {
		if len(part.ms) < least {
			return false
		}
	}
	return true
}

// overParts computes stat over each of n equal parts of window and
// returns the median of the results. One part disturbed by load from
// outside the process does not move it, while a slowdown that builds
// up during the run moves the later parts and with them the median.
func (s *series) overParts(window time.Duration, n int, stat func(series) (float64, error)) (float64, error) {
	var vals []float64
	for k, part := range s.split(window, n) {
		v, err := stat(part)
		if err != nil {
			return 0, fmt.Errorf("part %d of %d: %w", k+1, n, err)
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// The statistics overParts applies to each part.
func medianOf(s series) (float64, error) {
	if len(s.ms) == 0 {
		return 0, errors.New("no samples")
	}
	return median(s.ms), nil
}

func p90Of(s series) (float64, error) { return percentile(s.ms, 90) }

// perSecond is operations per second of a part's wall time.
func perSecond(partLen time.Duration) func(series) (float64, error) {
	return func(s series) (float64, error) { return float64(len(s.ms)) / partLen.Seconds(), nil }
}

// perBusySecond is operations per second spent in the operations.
func perBusySecond(s series) (float64, error) {
	busy := 0.0
	for _, v := range s.ms {
		busy += v / 1e3
	}
	if busy == 0 {
		return 0, errors.New("no samples")
	}
	return float64(len(s.ms)) / busy, nil
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100)
// and refuses when fewer than minBeyond samples lie above its rank.
func percentile(s []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(s)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d above it, need %d", p, n, beyond, minBeyond)
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// minSamples is the smallest sample count at which percentile(p)
// succeeds.
func minSamples(p float64) int {
	for n := minBeyond + 1; ; n++ {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median is the lower middle value (0 for no values).
func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	return sorted[(len(sorted)-1)/2]
}

func mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// quantity is one reported number: a value with its unit and, for
// percentiles, the sample count it was read from.
type quantity struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report accumulates named quantities and the errors met while
// computing them (a percentile without enough samples is an error).
type report struct {
	vals map[string]quantity
	errs []error
}

func newReport() *report { return &report{vals: map[string]quantity{}} }

func (r *report) set(name string, v float64, unit string) {
	r.vals[name] = quantity{Value: v, Unit: unit}
}

// parts records s.overParts under name, with the sample count.
func (r *report) parts(name, unit string, s *series, window time.Duration, n int, stat func(series) (float64, error)) {
	v, err := s.overParts(window, n, stat)
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("%s: %w", name, err))
		return
	}
	r.vals[name] = quantity{Value: v, Unit: unit, Samples: len(s.ms)}
}

// pct records the p-th percentile of s under name, with its sample
// count.
func (r *report) pct(name string, s []float64, p float64) {
	v, err := percentile(s, p)
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("%s: %w", name, err))
		return
	}
	r.vals[name] = quantity{Value: v, Unit: "ms", Samples: len(s)}
}
