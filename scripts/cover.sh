#!/usr/bin/env bash
# Coverage gate for the protocol packages and the bench harness: runs the
# whole suite with cross-package coverage (go test -coverpkg=./...) and
# fails on any function in tcp, qpipnic, verbs, hostos, fabric, nbd, sim,
# gige, gm, hw, pool, bench, fault, trace, core, topo, udp, wire, buf,
# inet, storage or the public qpip package that no test executes: reach
# it from a test that asserts what it does, or delete it. Profiles land in
# bin/ (git-ignored).
#
# Usage: scripts/cover.sh   (or: make cover)
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
mkdir -p bin

if ! "$GO" test -count=1 -coverpkg=./... -coverprofile=bin/cover.out ./... >bin/cover.log 2>&1; then
	cat bin/cover.log
	echo "cover: the test suite failed" >&2
	exit 1
fi
"$GO" tool cover -func=bin/cover.out >bin/cover.func

# "repro/internal/tcp/conn.go:178:  merge  0.0%" -> "internal/tcp/conn.go merge"
awk '$NF == "0.0%" && $1 ~ /^repro\/(internal\/(tcp|qpipnic|verbs|hostos|fabric|nbd|sim|gige|gm|hw|pool|bench|fault|trace|core|topo|udp|wire|buf|inet|storage)|qpip)\/[^\/]+\.go:/ {
	split($1, loc, ":"); sub(/^repro\//, "", loc[1]); print loc[1], $2
}' bin/cover.func | sort -u >bin/cover.zero

echo "cover: $(wc -l <bin/cover.zero) zero-hit functions in the gated packages"
if [ -s bin/cover.zero ]; then
	echo "cover: never executed (reach it from a test or delete it):"
	sed 's/^/  /' bin/cover.zero
	exit 1
fi
