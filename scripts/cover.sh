#!/usr/bin/env bash
# Coverage gate for the protocol packages and the bench harness: runs the
# whole suite with cross-package coverage (go test -coverpkg=./...) and
# fails on any function in tcp, qpipnic, verbs, hostos, fabric, nbd, sim,
# gige, gm, hw, pool, bench, fault, trace, core, topo, udp, wire, buf,
# inet, storage or the public qpip package that has a statement no test
# executes: reach it from a test that asserts what it does, or delete it.
# A function with no statements (an empty-bodied shim) has nothing to
# execute and passes. Profiles land in bin/ (git-ignored).
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

# A gated function reads 0.0% in bin/cover.func when no test ran one of
# its statements, and also when it has none: cover prints 0 of 0 as 0.0%.
# The profile tells the two apart. A function owns the blocks that start
# between its line and the next function's in the same file; an
# empty-bodied one owns only blocks of 0 statements, and once a test has
# entered it (a block ran) it is exempt.
awk '
	# The profile: "repro/internal/tcp/conn.go:178.22,180.3 2 1" is a block
	# of 2 statements starting on line 178 that ran.
	FNR == NR {
		if (FNR > 1) {
			split($1, loc, ":"); split(loc[2], pos, ".")
			nb[loc[1]]++; bline[loc[1], nb[loc[1]]] = pos[1]; bstmts[loc[1], nb[loc[1]]] = $2; bran[loc[1], nb[loc[1]]] = $3 > 0
		}
		next
	}
	# The functions, in source order per file: "repro/internal/tcp/conn.go:178:  merge  0.0%".
	$1 != "total:" {
		split($1, loc, ":"); i = ++nf[loc[1]]
		fline[loc[1], i] = loc[2]; fname[loc[1], i] = $2; fzero[loc[1], i] = ($NF == "0.0%")
	}
	END {
		for (f in nf) {
			if (f !~ /^repro\/(internal\/(tcp|qpipnic|verbs|hostos|fabric|nbd|sim|gige|gm|hw|pool|bench|fault|trace|core|topo|udp|wire|buf|inet|storage)|qpip)\/[^\/]+\.go$/)
				continue
			for (i = 1; i <= nf[f]; i++) {
				if (!fzero[f, i])
					continue
				hi = i < nf[f] ? fline[f, i + 1] : 1e9
				ran = stmts = 0
				for (j = 1; j <= nb[f]; j++)
					if (bline[f, j] >= fline[f, i] && bline[f, j] < hi) { ran += bran[f, j]; stmts += bstmts[f, j] }
				if (!ran || stmts > 0) { file = f; sub(/^repro\//, "", file); print file, fname[f, i] }
			}
		}
	}
' bin/cover.out bin/cover.func | sort -u >bin/cover.zero

echo "cover: $(wc -l <bin/cover.zero) zero-hit functions in the gated packages"
if [ -s bin/cover.zero ]; then
	echo "cover: never executed (reach it from a test or delete it):"
	sed 's/^/  /' bin/cover.zero
	exit 1
fi
