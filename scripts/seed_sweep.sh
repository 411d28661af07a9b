#!/usr/bin/env bash
# Seed sweep of the paper's seed-sensitive [SHAPE-CHECK] verdicts.
#
#   scripts/seed_sweep.sh BUILD_DIR SEED...
#
# Runs fig06_imbalance_factor, fig07_throughput, fig10_mixed_throughput,
# ablation_lunule and table_journal_overhead from BUILD_DIR/bench with
# --seed=K for every given seed, then prints two Markdown tables:
#
#   1. per [SHAPE-CHECK] line: how many seeds pass it, and which seeds fail;
#   2. fig07's "Lunule vs Vanilla" sustained-throughput delta per workload
#      and seed.
#
# The benches keep their own defaults and exit codes; a failing check is
# data here, not an error.  Use a Release build: the five benches take
# about 20 s per seed on a 4-thread host.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 BUILD_DIR SEED..." >&2
  exit 2
fi
BUILD_DIR=$1
shift
SEEDS=("$@")
BENCHES=(fig06_imbalance_factor fig07_throughput fig10_mixed_throughput
         ablation_lunule table_journal_overhead)

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

for seed in "${SEEDS[@]}"; do
  for bench in "${BENCHES[@]}"; do
    # A non-zero exit only means a shape check failed; the verdicts are
    # read from the output below.
    "$BUILD_DIR/bench/$bench" --seed="$seed" >"$OUT/$bench.$seed.txt" || true
  done
done

echo "### [SHAPE-CHECK] pass counts over seeds ${SEEDS[*]}"
echo
echo "| bench | check | pass | failing seeds |"
echo "|---|---|---|---|"
for bench in "${BENCHES[@]}"; do
  for seed in "${SEEDS[@]}"; do
    # One "seed <TAB> index <TAB> verdict <TAB> check" line per check.
    awk -v seed="$seed" '
      /^\[SHAPE-CHECK\]/ { on = 1; next }
      on && /^  (PASS|FAIL)  / {
        what = substr($0, 9)
        printf "%s\t%d\t%s\t%s\n", seed, ++n, $1, what
      }' "$OUT/$bench.$seed.txt"
  done | awk -F'\t' -v bench="$bench" -v total="${#SEEDS[@]}" '
    {
      if (!($2 in what)) { what[$2] = $4; order[++n] = $2 }
      if ($3 == "PASS") pass[$2]++
      else fails[$2] = fails[$2] (fails[$2] == "" ? "" : ", ") $1
    }
    END {
      for (i = 1; i <= n; ++i) {
        k = order[i]
        printf "| %s | %s | %d/%d | %s |\n", bench, what[k], pass[k] + 0,
               total, (fails[k] == "" ? "-" : fails[k])
      }
    }'
done

echo
echo "### fig07_throughput: Lunule vs Vanilla sustained throughput"
echo
header="| workload |"
rule="|---|"
for seed in "${SEEDS[@]}"; do
  header+=" seed $seed |"
  rule+="---|"
done
echo "$header"
echo "$rule"
for seed in "${SEEDS[@]}"; do
  # Rows of the summary table: "| Workload | ... | +x.x% |".
  awk -v seed="$seed" '
    /Figure 7 summary/ { on = 1; next }
    on && /^\| / && !/Workload/ {
      n = split($0, f, "|")
      w = f[2]; d = f[n - 1]
      gsub(/ /, "", w); gsub(/ /, "", d)
      printf "%s\t%s\t%s\n", w, seed, d
    }' "$OUT/fig07_throughput.$seed.txt"
done | awk -F'\t' '
  {
    if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 }
    row[$1] = row[$1] " " $3 " |"
  }
  END { for (i = 1; i <= n; ++i) printf "| %s |%s\n", order[i], row[order[i]] }'
