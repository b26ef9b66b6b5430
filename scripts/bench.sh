#!/bin/sh
# bench.sh — run the Table 3 engine-comparison (40 KB java corpus),
# Table 5 session-residency, Table 6 observability, Table 7
# resource-governance, Table 8 incremental-reparse, and Table 9
# telemetry-overhead benchmarks and record the results as JSON
# (BENCH_26.json by default; pass a path to override). Each record maps
# a benchmark name to ns/op, B/op, and allocs/op. The Table 3 rows pit
# backtracking, naive packrat, the optimized byte-level engine, and the
# closure-compiled engine against each other on the same 40 KB java
# corpus; the optimized row runs five times and records the
# median, with every run's ns/op sorted in its runs_ns field, and the
# derived java-40KB-ns-per-byte row (that median divided by the
# 40960-byte input) is the hot-path ratchet that scripts/bench_check.sh
# gates: a single run of this row has read anywhere from 262 to 513
# ns/byte on one machine. The Table3Compiled rows time the
# optimized interpreter and the closure-compiled engine inside the same
# benchmark iteration and report their ratio as a "speedup" metric; the
# derived compiled-speedup-x1000 (valued 64 KB java, Amdahl-bound by
# the AST construction both engines share) and
# compiled-void-speedup-x1000 (void grammar, engine machinery only)
# rows are ratcheted by bench_check.sh. The Table 6 rows measure profiler
# overhead: the "disabled" row must stay within 2% of BENCH_1.json's
# java/pooled row (same workload, instrumentation seam added). The
# Table 7 rows compare ungoverned parsing against zero-limits and
# all-budgets governed parsing; the VoidSteadyState rows (one per
# engine) are the allocation canary (allocs_per_op must be exactly 0 on
# every one). The Table 8 rows pair a from-scratch reparse of an edited
# input with the incremental Document.Apply of the same edit; the
# derived incremental-speedup row (64 KB java.core, one-line edit) must
# stay at or above 18000 (= 18x, scaled by 1000), which bench_check.sh
# gates. The Table 9 rows compare a registry-disabled parse
# against the default metrics+histograms path (derived
# telemetry-overhead row should hover near 1000 = no overhead) and the
# Chrome trace-export hook. The Table6SamplingOverhead row measures
# always-on 1-in-100 sampled profiling (amortized from the fully
# sampled path); its derived sampling-overhead-x1000 row is ratcheted
# at <= 1020 (2%) by bench_check.sh, and the Table 5 sampling-off row
# extends the zero-allocation canary to the pooled ParseRequest path.
# The ValueEncode/java-64KB row times the /parse value encoder
# (ast.AppendJSON of the 64 KB java value into a reused buffer);
# bench_check.sh holds it at exactly 0 allocs/op. The Table4Composition
# build rows time the grammar side of a registry upload on java.core
# (transform.Apply with the default passes, then vm.Compile for one
# engine), and its compose rows time core.Compose of java.core and
# java.full over the bundled modules; bench_check.sh holds the allocs/op
# of both build rows and of compose/base under ceilings.
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_26.json}"

{
	go test -run '^$' -bench 'BenchmarkTable3Compiled|BenchmarkTable5|BenchmarkTable6|BenchmarkTable7|BenchmarkTable8|BenchmarkTable9|BenchmarkValueEncode' -benchmem -benchtime 20x .
	go test -run '^$' -bench 'BenchmarkTable4Composition/(build|compose)/' -benchmem -benchtime 20x .
	go test -run '^$' -bench 'BenchmarkTable3Engines/size=40KB/(backtracking|naive-packrat|compiled)$' -benchmem -benchtime 20x .
	go test -run '^$' -bench 'BenchmarkTable3Engines/size=40KB/optimized$' -benchmem -benchtime 20x -count 5 .
} |
	tee /dev/stderr |
	awk '
		/^Benchmark/ {
			name = $1
			# Canonical names: drop the -GOMAXPROCS suffix Go appends on
			# multi-core runners so reports diff cleanly across machines.
			sub(/-[0-9]+$/, "", name)
			ns = ""; bop = ""; aop = ""; sp = ""; ov = ""
			for (i = 2; i <= NF; i++) {
				if ($(i) == "ns/op") ns = $(i - 1)
				if ($(i) == "B/op") bop = $(i - 1)
				if ($(i) == "allocs/op") aop = $(i - 1)
				if ($(i) == "speedup") sp = $(i - 1)
				if ($(i) == "overhead") ov = $(i - 1)
			}
			if (sp != "") {
				if (name ~ /Table3Compiled\/java-64KB/) javaspeed = sp
				if (name ~ /Table3Compiled\/void-64KB/) voidspeed = sp
			}
			if (ov != "" && name ~ /Table6SamplingOverhead/) sampover = ov
			if (ns != "" && name ~ /Table3Engines\/size=40KB\/optimized$/) {
				runs[++nruns] = ns; runbop = bop; runaop = aop
				next
			}
			if (ns != "") {
				rows[++n] = sprintf("  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bop, aop)
				if (name ~ /Table6Observability\/disabled/) disabled = ns
				if (name ~ /Table6Observability\/profiled/) profiled = ns
				if (name ~ /Table7Governance\/ungoverned/) ungoverned = ns
				if (name ~ /Table7Governance\/zero-limits/) zerolimits = ns
				if (name ~ /Table8Incremental\/64KB\/line\/full/) incfull = ns
				if (name ~ /Table8Incremental\/64KB\/line\/incremental/) increparse = ns
				if (name ~ /Table9Telemetry\/bare/) telbare = ns
				if (name ~ /Table9Telemetry\/metrics/) telmetrics = ns
				if (name ~ /Table9Telemetry\/traced/) teltraced = ns
			}
		}
		END {
			# The repeated optimized java row: sort its runs and keep the
			# median as the ns/op of the row (and of the hot-path ratchet below).
			if (nruns > 0) {
				for (i = 2; i <= nruns; i++)
					for (j = i; j > 1 && runs[j - 1] + 0 > runs[j] + 0; j--) {
						t = runs[j]; runs[j] = runs[j - 1]; runs[j - 1] = t
					}
				javaopt = runs[int((nruns + 1) / 2)]
				list = runs[1]
				for (i = 2; i <= nruns; i++) list = list ", " runs[i]
				rows[++n] = sprintf("  {\"name\": \"BenchmarkTable3Engines/size=40KB/optimized\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"runs_ns\": [%s]}", javaopt, runbop, runaop, list)
			}
			# Pre-session-layer reference: the seed tree measured
			# BenchmarkTable3Engines/java/optimized (cold Program.Parse on
			# the same 40 KB java.core workload) at these numbers. Kept in
			# the output so the steady-state improvement is self-contained.
			rows[++n] = "  {\"name\": \"seed/BenchmarkTable3Engines/size=40KB/optimized\", \"ns_per_op\": 29625281, \"bytes_per_op\": 9188320, \"allocs_per_op\": 144713}"
			# Derived rows: time ratios scaled by 1000 to fit the integer
			# ns_per_op field (1730 = 1.73x overhead; 12000 = 12x speedup).
			if (disabled != "" && profiled != "")
				rows[++n] = sprintf("  {\"name\": \"derived/profiler-overhead-x1000\", \"ns_per_op\": %.0f, \"bytes_per_op\": 0, \"allocs_per_op\": 0}", (profiled / disabled) * 1000)
			if (ungoverned != "" && zerolimits != "")
				rows[++n] = sprintf("  {\"name\": \"derived/governance-overhead-x1000\", \"ns_per_op\": %.0f, \"bytes_per_op\": 0, \"allocs_per_op\": 0}", (zerolimits / ungoverned) * 1000)
			if (incfull != "" && increparse != "")
				rows[++n] = sprintf("  {\"name\": \"derived/incremental-speedup-x1000\", \"ns_per_op\": %.0f, \"bytes_per_op\": 0, \"allocs_per_op\": 0}", (incfull / increparse) * 1000)
			if (telbare != "" && telmetrics != "")
				rows[++n] = sprintf("  {\"name\": \"derived/telemetry-overhead-x1000\", \"ns_per_op\": %.0f, \"bytes_per_op\": 0, \"allocs_per_op\": 0}", (telmetrics / telbare) * 1000)
			if (telbare != "" && teltraced != "")
				rows[++n] = sprintf("  {\"name\": \"derived/trace-export-overhead-x1000\", \"ns_per_op\": %.0f, \"bytes_per_op\": 0, \"allocs_per_op\": 0}", (teltraced / telbare) * 1000)
			# Compiled-engine speedups from the paired Table3Compiled rows
			# (ratio already computed inside the benchmark, so scheduler
			# noise cancels). The valued java row is end-to-end and
			# Amdahl-bound by shared AST construction; the void row is the
			# engine-only ratio that carries the >= 2x acceptance gate.
			if (javaspeed != "")
				rows[++n] = sprintf("  {\"name\": \"derived/compiled-speedup-x1000\", \"ns_per_op\": %.0f, \"bytes_per_op\": 0, \"allocs_per_op\": 0}", javaspeed * 1000)
			if (voidspeed != "")
				rows[++n] = sprintf("  {\"name\": \"derived/compiled-void-speedup-x1000\", \"ns_per_op\": %.0f, \"bytes_per_op\": 0, \"allocs_per_op\": 0}", voidspeed * 1000)
			# Hot-path ratchet: optimized-engine ns per input byte on the
			# 40 KB (40960-byte) java corpus, from the median of its runs.
			# The seed reference row above works out to 723 ns/byte;
			# bench_check.sh gates this row.
			if (javaopt != "")
				rows[++n] = sprintf("  {\"name\": \"derived/java-40KB-ns-per-byte\", \"ns_per_op\": %.0f, \"bytes_per_op\": 0, \"allocs_per_op\": 0}", javaopt / 40960)
			# Always-on sampled-profiling overhead at the 1-in-100 duty
			# cycle, amortized from the fully sampled path (see
			# BenchmarkTable6SamplingOverhead). bench_check.sh ratchets
			# this at <= 1020 (2%% end-to-end on the 64 KB java corpus).
			if (sampover != "")
				rows[++n] = sprintf("  {\"name\": \"derived/sampling-overhead-x1000\", \"ns_per_op\": %.0f, \"bytes_per_op\": 0, \"allocs_per_op\": 0}", sampover * 1000)
			print "["
			for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "")
			print "]"
		}
	' >"$out"

echo "wrote $out" >&2
