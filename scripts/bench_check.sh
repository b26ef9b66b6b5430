#!/bin/sh
# bench_check.sh — regression gate over a bench.sh JSON report
# (BENCH_17.json by default; pass a path to override). Eight checks:
#
#   1. Every derived row bench.sh is supposed to compute must be
#      present. A missing row means the producing benchmark silently
#      vanished (renamed, filtered out, crashed) — that must be a loud
#      failure, not a gate that trivially passes on an empty report.
#   2. The governed zero-allocation guarantee: every Table 5
#      void-grammar steady-state row (one per engine: the optimized
#      interpreter and the closure-compiled engine) must report exactly
#      0 allocs/op, or the slab-arena / session-reuse /
#      governance-arming discipline has regressed on that engine.
#   3. The byte-level hot-path ratchet: derived/java-40KB-ns-per-byte
#      (optimized engine, 40 KB java corpus, the median of five runs)
#      must stay at or below 450 ns/byte. The seed engine measured 723
#      ns/byte; the scan-fusion + choice-table + PGO engine measures
#      ~300 on an idle machine, so 450 locks in the win while
#      tolerating noisy CI. A single run spread over 262-513 on one
#      machine, which is why the row is a median.
#   4. The compiled-engine speedup ratchets (minimums, scaled x1000):
#      derived/compiled-void-speedup-x1000 >= 2000 — the closure tree
#      must stay at least 2x faster than the interpreter on pure parser
#      machinery (measured ~3000); and derived/compiled-speedup-x1000
#      >= 1250 on the valued 64 KB java corpus, whose end-to-end ratio
#      is Amdahl-bound by the AST construction both engines share
#      (measured ~1400-1650 depending on machine load). Both ratios
#      come from paired same-iteration timing, so they are stable where
#      absolute ns/op is not.
#   5. The always-on sampled-profiling gates: the Table 5
#      sampling-off row (the serve layer's pooled ParseRequest with
#      sampling disabled and no trace ID) must exist and report exactly 0
#      allocs/op — the sampler may not cost anything when off — and
#      derived/sampling-overhead-x1000 must stay at or below 1020:
#      1-in-100 sampling adds at most 2% to the end-to-end 64 KB java
#      parse (measured ~1009; the ratio is amortized from paired
#      same-iteration timing, see BenchmarkTable6SamplingOverhead).
#   6. The value-encoder canary: the ValueEncode/java-64KB row (the
#      /parse value encoder writing the 64 KB java value into a reused
#      buffer) must exist and report exactly 0 allocs/op.
#   7. The incremental-reparse floor: derived/incremental-speedup-x1000
#      (a full reparse of the 64 KB java corpus over the Document.Apply
#      of the same one-line edit) must stay at or above 18000. That is
#      the 18.1x BENCH_4.json measured before Apply's fixed cost grew
#      with the document (8.4x in BENCH_13.json); reading only the memo
#      rows an edit can reach measures ~40-70x.
#   8. The grammar-build allocation ceiling: both
#      BenchmarkTable4Composition/build/java.core rows (the default
#      optimizer passes plus vm.Compile for the optimized and the
#      compiled engine) must exist and allocate at most 62000 times per
#      build, half of the 124023 the string-keyed analysis needed
#      (compiled: 127189). Analysing over dense production IDs measures
#      ~17000-18500.
#
# Plain grep/sed so the gate runs anywhere a POSIX shell does.
set -eu
report="${1:-BENCH_17.json}"
max_ns_per_byte=450
min_compiled_speedup=1250
min_compiled_void_speedup=2000
max_sampling_overhead=1020
min_incremental_speedup=18000
max_build_allocs=62000

if [ ! -f "$report" ]; then
	echo "bench_check: report $report not found (run scripts/bench.sh first)" >&2
	exit 1
fi

# ns_per_op of the single row whose name contains $1 (fixed string).
row_ns() {
	grep -F "\"$1\"" "$report" | sed -n 's/.*"ns_per_op": *\([0-9][0-9]*\).*/\1/p' | head -n 1
}

fail=0

# 1. Expected derived rows. Keep in sync with the END block of bench.sh.
for name in \
	derived/profiler-overhead-x1000 \
	derived/governance-overhead-x1000 \
	derived/incremental-speedup-x1000 \
	derived/telemetry-overhead-x1000 \
	derived/trace-export-overhead-x1000 \
	derived/compiled-speedup-x1000 \
	derived/compiled-void-speedup-x1000 \
	derived/java-40KB-ns-per-byte \
	derived/sampling-overhead-x1000; do
	if [ -z "$(row_ns "$name")" ]; then
		echo "bench_check: FAIL: expected derived row \"$name\" is missing from $report" >&2
		echo "bench_check:       (its source benchmark was renamed, filtered out, or did not run)" >&2
		fail=1
	fi
done

# 2. Zero-allocation canary — every engine's row must be exactly 0.
rows=$(grep 'Table5VoidSteadyState' "$report" || true)
if [ -z "$rows" ]; then
	echo "bench_check: FAIL: no Table5VoidSteadyState row in $report" >&2
	fail=1
else
	while IFS= read -r row; do
		allocs=$(printf '%s\n' "$row" | sed -n 's/.*"allocs_per_op": *\([0-9][0-9]*\).*/\1/p')
		if [ -z "$allocs" ]; then
			echo "bench_check: FAIL: could not read allocs_per_op from row: $row" >&2
			fail=1
		elif [ "$allocs" -ne 0 ]; then
			echo "bench_check: FAIL: void-grammar steady state allocates ($allocs allocs/op, want 0)" >&2
			echo "bench_check:       row: $row" >&2
			fail=1
		fi
	done <<EOF
$rows
EOF
	# The sampled-off canary must be among those rows: the pooled traced
	# entry point with sampling disabled is the serve layer's default hot
	# path, and its 0 allocs/op is the "always-on profiling costs nothing
	# when off" guarantee.
	if ! printf '%s\n' "$rows" | grep -q 'Table5VoidSteadyState/sampling-off'; then
		echo "bench_check: FAIL: no Table5VoidSteadyState/sampling-off row in $report" >&2
		echo "bench_check:       (the sampled-off void canary was renamed, filtered out, or did not run)" >&2
		fail=1
	fi
fi

# 3. Hot-path ratchet.
nspb=$(row_ns derived/java-40KB-ns-per-byte)
if [ -n "$nspb" ] && [ "$nspb" -gt "$max_ns_per_byte" ]; then
	echo "bench_check: FAIL: java-40KB hot path at $nspb ns/byte, ratchet is $max_ns_per_byte (seed: 723)" >&2
	fail=1
fi

# 4. Compiled-engine speedup ratchets (these are floors, not ceilings).
cspeed=$(row_ns derived/compiled-speedup-x1000)
if [ -n "$cspeed" ] && [ "$cspeed" -lt "$min_compiled_speedup" ]; then
	echo "bench_check: FAIL: compiled engine at ${cspeed}/1000 x over the interpreter on valued 64KB java, floor is ${min_compiled_speedup}" >&2
	fail=1
fi
vspeed=$(row_ns derived/compiled-void-speedup-x1000)
if [ -n "$vspeed" ] && [ "$vspeed" -lt "$min_compiled_void_speedup" ]; then
	echo "bench_check: FAIL: compiled engine at ${vspeed}/1000 x over the interpreter on the void grammar, floor is ${min_compiled_void_speedup} (= the 2x acceptance gate)" >&2
	fail=1
fi

# 5. Sampling-overhead ratchet (a ceiling: 1020 = 2% end-to-end).
sover=$(row_ns derived/sampling-overhead-x1000)
if [ -n "$sover" ] && [ "$sover" -gt "$max_sampling_overhead" ]; then
	echo "bench_check: FAIL: 1-in-100 sampled profiling at ${sover}/1000 x over the unsampled parse, ceiling is ${max_sampling_overhead} (= the 2% acceptance gate)" >&2
	fail=1
fi

# 6. Value-encoder canary — the row must exist and be exactly 0.
enc=$(grep -F '"BenchmarkValueEncode/java-64KB"' "$report" || true)
enc_allocs=$(printf '%s\n' "$enc" | sed -n 's/.*"allocs_per_op": *\([0-9][0-9]*\).*/\1/p' | head -n 1)
if [ -z "$enc_allocs" ]; then
	echo "bench_check: FAIL: no BenchmarkValueEncode/java-64KB row in $report" >&2
	echo "bench_check:       (the value-encoder canary was renamed, filtered out, or did not run)" >&2
	fail=1
elif [ "$enc_allocs" -ne 0 ]; then
	echo "bench_check: FAIL: the value encoder allocates ($enc_allocs allocs/op, want 0)" >&2
	echo "bench_check:       row: $enc" >&2
	fail=1
fi

# 7. Incremental-reparse floor (a minimum, scaled x1000).
ispeed=$(row_ns derived/incremental-speedup-x1000)
if [ -n "$ispeed" ] && [ "$ispeed" -lt "$min_incremental_speedup" ]; then
	echo "bench_check: FAIL: incremental 64KB one-line reparse at ${ispeed}/1000 x over a full reparse, floor is ${min_incremental_speedup} (BENCH_4: 18.1x)" >&2
	fail=1
fi

# 8. Grammar-build allocation ceiling — both rows must exist.
for engine in optimized compiled; do
	row=$(grep -F "\"BenchmarkTable4Composition/build/java.core/$engine\"" "$report" || true)
	allocs=$(printf '%s\n' "$row" | sed -n 's/.*"allocs_per_op": *\([0-9][0-9]*\).*/\1/p' | head -n 1)
	if [ -z "$allocs" ]; then
		echo "bench_check: FAIL: no BenchmarkTable4Composition/build/java.core/$engine row in $report" >&2
		fail=1
	elif [ "$allocs" -gt "$max_build_allocs" ]; then
		echo "bench_check: FAIL: building java.core for the $engine engine allocates $allocs times, ceiling is $max_build_allocs" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "bench_check: OK (derived rows present, void canary 0 allocs/op on every engine incl. sampling-off, value encoder 0 allocs/op, java hot path ${nspb} ns/byte <= ${max_ns_per_byte}, compiled speedups ${cspeed}/${vspeed} x1000 >= ${min_compiled_speedup}/${min_compiled_void_speedup}, sampling overhead ${sover} x1000 <= ${max_sampling_overhead}, incremental speedup ${ispeed} x1000 >= ${min_incremental_speedup}, java.core build <= ${max_build_allocs} allocs/op on both engines)"
