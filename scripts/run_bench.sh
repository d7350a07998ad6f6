#!/usr/bin/env bash
# Runs the figure-reproduction and micro benchmarks and folds their
# machine-readable rows into one JSON perf baseline.
#
#   scripts/run_bench.sh --quick              # ~1 min smoke baseline
#   scripts/run_bench.sh                      # full paper-scale run (~10 min)
#   scripts/run_bench.sh --quick fig2 fig6b   # subset by bench prefix
#   scripts/run_bench.sh --backend posix      # wall-clock rows: posix only
#
# --backend restricts the backend_wallclock series (comma list of
# sim|posix|posix-nosync; default all three). Those rows carry the
# "us_wall" unit, so compare_bench.py reports them informationally and
# never gates on machine-dependent real-disk numbers.
#
# Output (default BENCH_seed.json):
#   { "schema": "elsm-bench-v1", "label": ..., "quick": ...,
#     "rows": [ {bench, series, x_name, x, unit, value}, ... ] }
#
# Fig benches emit rows themselves via ELSM_BENCH_JSON (bench_common.h);
# micro_crypto's rows are converted from google-benchmark's native JSON.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="$ROOT/build"
OUT=""
LABEL=""
QUICK=0
BACKENDS=""
ONLY=()

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --out) OUT="$2"; shift ;;
    --label) LABEL="$2"; shift ;;
    --build-dir) BUILD_DIR="$2"; shift ;;
    --backend) BACKENDS="$2"; shift ;;
    -h|--help)
      # Print the whole leading comment block, however long it grows.
      awk 'NR == 1 { next } !/^#/ { exit } { sub(/^# ?/, ""); print }' "$0"
      exit 0 ;;
    -*) echo "unknown flag: $1" >&2; exit 2 ;;
    *) ONLY+=("$1") ;;
  esac
  shift
done

# Default output follows the label so runs never clobber the committed
# quick-mode seed baseline: --label pr7 -> BENCH_pr7.json; an unlabelled
# full run gets "full" (its 8x-larger-dataset rows are not comparable to
# the quick baseline and must not replace it).
if [[ -z "$LABEL" ]]; then
  [[ "$QUICK" == 1 ]] && LABEL="seed" || LABEL="full"
fi
[[ -z "$OUT" ]] && OUT="$ROOT/BENCH_${LABEL}.json"

FIG_BENCHES=(
  fig2_buffer_placement
  fig5a_read_write_ratio
  fig5b_data_size
  fig5c_distributions
  fig6a_read_scaling
  fig6b_mmap_vs_buffer
  fig6c_buffer_sweep
  fig7a_write_scaling
  fig7b_compaction_onoff
  fig8_write_buffer
  fig_backend_wallclock
  fig_batched_read
  fig_fanout
  fig_group_commit
  fig_manifest_scaling
  fig_read_cache
  fig_shard_scaling
  micro_enclave
  ablation_design_choices
  table_ads_comparison
)

selected() {  # does $1 match any positional filter (prefix match)?
  [[ ${#ONLY[@]} -eq 0 ]] && return 0
  local b
  for b in "${ONLY[@]}"; do
    [[ "$1" == "$b"* ]] && return 0
  done
  return 1
}

for bench in "${FIG_BENCHES[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench/$bench" ]]; then
    echo "== $bench missing; building $BUILD_DIR =="
    cmake -B "$BUILD_DIR" -S "$ROOT"
    cmake --build "$BUILD_DIR" -j "$(nproc)"
    break
  fi
done

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
ROWS="$TMP/rows.jsonl"
: > "$ROWS"
mkdir -p "$TMP/logs"

export ELSM_BENCH_JSON="$ROWS"
if [[ -n "$BACKENDS" ]]; then
  export ELSM_BENCH_BACKEND="$BACKENDS"
else
  unset ELSM_BENCH_BACKEND
fi
if [[ "$QUICK" == 1 ]]; then
  export ELSM_BENCH_QUICK=1
else
  unset ELSM_BENCH_QUICK
fi

for bench in "${FIG_BENCHES[@]}"; do
  selected "$bench" || continue
  echo "== $bench =="
  "$BUILD_DIR/bench/$bench" | tee "$TMP/logs/$bench.log" | tail -n 3
done

if selected micro_crypto && [[ -x "$BUILD_DIR/bench/micro_crypto" ]]; then
  echo "== micro_crypto =="
  MIN_TIME=()
  [[ "$QUICK" == 1 ]] && MIN_TIME=(--benchmark_min_time=0.01)
  "$BUILD_DIR/bench/micro_crypto" "${MIN_TIME[@]}" \
    --benchmark_format=json --benchmark_out="$TMP/micro_crypto.json" \
    >/dev/null
  python3 - "$TMP/micro_crypto.json" >> "$ROWS" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for b in doc.get("benchmarks", []):
    if b.get("error_occurred"):  # e.g. a SHA-NI row on a CPU without it
        continue
    name = b["name"].split("/")
    print(json.dumps({
        "bench": "micro_crypto",
        "series": name[0],
        "x_name": "arg",
        "x": float(name[1]) if len(name) > 1 else 0.0,
        "unit": b.get("time_unit", "ns"),
        "value": b.get("real_time", 0.0),
    }))
PY
fi

python3 - "$ROWS" "$OUT" "$LABEL" "$QUICK" <<'PY'
import json, platform, sys
rows_path, out_path, label, quick = sys.argv[1:5]
rows = [json.loads(line) for line in open(rows_path) if line.strip()]
doc = {
    "schema": "elsm-bench-v1",
    "label": label,
    "quick": quick == "1",
    "host": {"machine": platform.machine(), "system": platform.system()},
    "row_count": len(rows),
    "rows": rows,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
PY

echo "wrote $OUT"
