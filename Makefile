.PHONY: build test verify bench profile experiments

build:
	go build ./...

test:
	go test ./...

# Fast gate: gofmt drift + build + vet + test suite. CI runs the race
# detector as a separate job; reproduce it with `go test -race ./...`.
verify:
	sh scripts/verify.sh

# Engine-comparison (40 KB java), compiled-vs-interpreter paired
# comparison, session-residency, observability-overhead, resource-
# governance, incremental-reparse, telemetry-overhead, and value-encode
# benchmarks, and the java.core grammar-build and composition rows;
# writes BENCH_26.json.
bench:
	sh scripts/bench.sh

# Gate a bench JSON (default BENCH_26.json): expected derived rows
# present, void-grammar steady state and the value encoder at exactly
# 0 allocs/op, the java-40KB-ns-per-byte hot-path ratchet, the
# compiled-engine speedup floors, the incremental-reparse floor, and
# the grammar-build and composition allocation ceilings.
bench-check:
	sh scripts/bench_check.sh

# Old-vs-new ns/op deltas for the Table 3 engine rows.
bench-diff:
	sh scripts/benchdiff.sh BENCH_17.json BENCH_26.json

# Per-production profile of the bundled Java grammar on a generated
# 40 KB workload: hot productions, memo behaviour, engine metrics.
profile:
	go run ./cmd/modpeg profile -gen 40 -n 3 -top 15 -metrics java.core

experiments:
	go run ./cmd/modpeg experiment all
