#!/bin/bash
# Which statements does a refresh execute? Builds the benchmark with
# statement coverage over every package of the module, runs each of its
# four workloads once untraced (the product path the end-to-end metrics
# time) and once traced (which adds the per-layer replays), and prints, per
# package and per file, the statements the product path never executed and,
# separately, those no pass executed. Code in the second table cannot move
# any metric of the benchmark; code only in the first is reached by a layer
# replay alone. Two more tables name functions: those no pass executed, and
# those the product path never executed (marked "replay" where a traced
# pass reaches them). The output ends with the module's non-test line count
# outside benchmark/, the number simplification PRs are measured in.
#
#   scripts/traffic-coverage.sh [--quick] [other benchmark flags]
#
# Arguments pass through to the benchmark (--quick: sf 2 smoke scale).
# Everything is written under .bench_build/cover/ in the checkout; the
# statement tables are also kept there as traffic-coverage.txt, the function
# table and the line count as traffic-functions.txt.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
module=github.com/shortcircuit-db/sc
cover="$root/.bench_build/cover"
rm -rf "$cover/product" "$cover/layers"
mkdir -p "$cover/tmp" "$cover/product" "$cover/layers"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$cover/tmp"
(cd "$root/benchmark" && go build -cover -coverpkg="$module/..." -o "$cover/benchmark" .)
cd "$root"
export GODEBUG=madvdontneed=0 # as benchmark/run.sh runs it
for workload in io-bound cpu-bound compressed gateway-small; do
	echo "traffic-coverage: $workload" >&2
	GOCOVERDIR="$cover/product" "$cover/benchmark" --workload "$workload" --trace 0 --seconds 3 "$@" >/dev/null
	GOCOVERDIR="$cover/layers" "$cover/benchmark" --workload "$workload" --trace 1 --seconds 3 "$@" >/dev/null
done
go tool covdata textfmt -i="$cover/product" -o "$cover/product.cov"
go tool covdata textfmt -i="$cover/product,$cover/layers" -o "$cover/all.cov"

# report <profile> <title>: one line per package and per file that has
# statements the profile never counted, with their share of the total.
report() {
	printf '== %s ==\n%-58s %8s %8s %6s\n' "$2" "package / file" stmts never share
	awk -v module="$module/" '
	NR == 1 { next } # mode: line
	{
		split($1, loc, ":")
		file = loc[1]
		if (index(file, module "benchmark/") == 1) next
		if (!($1 in stmts)) { stmts[$1] = $2; where[$1] = file }
		if ($3 > 0) hit[$1] = 1
	}
	END {
		for (key in stmts) {
			file = where[key]
			pkg = file; sub(/\/[^\/]*$/, "", pkg)
			ftotal[file] += stmts[key]; ptotal[pkg] += stmts[key]; total += stmts[key]
			if (!(key in hit)) { fmiss[file] += stmts[key]; pmiss[pkg] += stmts[key]; miss += stmts[key] }
		}
		# The sort key puts a package before its files and both before the
		# packages below it; \001 sorts ahead of every path character.
		for (pkg in pmiss) {
			short = pkg; sub(module, "", short)
			printf "%s\001\t%-58s %8d %8d %5.1f%%\n", pkg, short, ptotal[pkg], pmiss[pkg], 100 * pmiss[pkg] / ptotal[pkg]
		}
		for (file in fmiss) {
			pkg = file; sub(/\/[^\/]*$/, "", pkg)
			base = file; sub(/.*\//, "", base)
			printf "%s\001%s\t  %-56s %8d %8d %5.1f%%\n", pkg, base, base, ftotal[file], fmiss[file], 100 * fmiss[file] / ftotal[file]
		}
		printf "\177\t%-58s %8d %8d %5.1f%%\n", "total", total, miss, 100 * miss / total
	}' "$1" | LC_ALL=C sort | cut -f2-
	echo
}
{
	report "$cover/product.cov" "product path (--trace 0): statements never executed"
	report "$cover/all.cov" "any pass (--trace 0 and --trace 1): statements never executed"
} | tee "$cover/traffic-coverage.txt"

# The benchmark is a module of its own, whose files `go tool cover -func`
# cannot find from here: drop its lines from the profiles first.
grep -v "^$module/benchmark/" "$cover/all.cov" >"$cover/all-module.cov"
grep -v "^$module/benchmark/" "$cover/product.cov" >"$cover/product-module.cov"
go tool cover -func="$cover/all-module.cov" >"$cover/all.func"
{
	echo "== any pass (--trace 0 and --trace 1): functions never executed =="
	awk -v module="$module/" '
	$NF == "0.0%" && $1 != "total:" { sub(module, "", $1); sub(/:$/, "", $1); printf "  %-48s %s\n", $1, $2 }' "$cover/all.func"
	echo
	echo "== product path (--trace 0): functions never executed (replay: a --trace 1 pass executes it) =="
	go tool cover -func="$cover/product-module.cov" | awk -v module="$module/" '
	NR == FNR { if ($NF != "0.0%") ran[$1 " " $2] = 1; next }
	$NF == "0.0%" && $1 != "total:" {
		key = $1 " " $2
		sub(module, "", $1); sub(/:$/, "", $1)
		printf "  %-48s %-32s %s\n", $1, $2, (key in ran) ? "replay" : ""
	}' "$cover/all.func" -
	echo
	printf 'non-test Go lines outside benchmark/: %d\n' \
		"$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)"
} | tee "$cover/traffic-functions.txt"
