#!/bin/sh
# verify.sh — the repo's fast correctness gate: formatting drift, build,
# vet, the whole test suite, and vet + tests of the nested perfbench
# module (`go build ./...` at the root skips it, so a changed signature
# it calls would otherwise go unnoticed). The race detector runs as its
# own CI job (see .github/workflows/ci.yml) so this gate stays quick
# enough to run on every change; use `go test -race ./...` directly when
# touching the session pool, ParseAll/ParseBatch, or the governance
# layer.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
fmt_drift=$(gofmt -l .)
if [ -n "$fmt_drift" ]; then
	echo "gofmt drift in:" >&2
	echo "$fmt_drift" >&2
	exit 1
fi
echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== go test ./..."
go test ./...
echo "== perfbench: go vet . && go test ."
(cd perfbench && go vet . && go test .)
echo "verify: OK"
