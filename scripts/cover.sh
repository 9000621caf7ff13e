#!/usr/bin/env bash
# Coverage gate for the protocol packages and the bench harness: runs the
# whole suite with cross-package coverage (go test -coverpkg=./...), lists
# every function in tcp, qpipnic, verbs, hostos, fabric, nbd, sim, gige,
# gm, hw, pool, bench, fault, trace, core, topo, udp, wire, buf, inet,
# storage and the public qpip package that no test executes, and fails
# when one is
# missing from scripts/cover-allow.txt — or when the allow file names a
# function that is now reached or gone, so the file only shrinks. Profiles
# land in bin/ (git-ignored).
#
# Usage: scripts/cover.sh   (or: make cover)
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
allow=scripts/cover-allow.txt
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
grep -v -e '^#' -e '^[[:space:]]*$' "$allow" | sort -u >bin/cover.allow

unlisted=$(comm -23 bin/cover.zero bin/cover.allow)
stale=$(comm -13 bin/cover.zero bin/cover.allow)
echo "cover: $(wc -l <bin/cover.zero) zero-hit functions in the gated packages, $(wc -l <bin/cover.allow) allowed"
status=0
if [ -n "$unlisted" ]; then
	echo "cover: never executed and not in $allow (reach it from a test or delete it):"
	echo "$unlisted" | sed 's/^/  /'
	status=1
fi
if [ -n "$stale" ]; then
	echo "cover: $allow lists functions that are now reached or gone (remove them):"
	echo "$stale" | sed 's/^/  /'
	status=1
fi
exit $status
