#!/bin/bash
# Regenerates every table and figure; outputs under results/.
#
# Usage:
#   ./run_experiments.sh                      # run the full matrix
#   ./run_experiments.sh --only fig5          # rerun a single experiment
#   ./run_experiments.sh --jobs 8             # campaign engine worker count
#   ./run_experiments.sh --resume             # continue from run journals
#
# The experiment menu is not hardcoded here: it is regenerated from
# `campaign --list`, so a new experiment registered in hs-bench shows up
# automatically (the old hardcoded array had drifted out of date).
#
# --resume is handed through to the campaign binary: an experiment
# journals its runs to `results/<name>.journal.jsonl`, replays what that
# journal already holds and executes only the runs it is missing; the
# resumed artifact is byte-identical to an uninterrupted one. A plain run
# journals nothing, so --resume continues only a run that was itself
# started with --resume. A finished journal replays as it is: delete
# `results/*.journal.jsonl` after changing code. The journal pins the
# configuration (HS_TIME_SCALE, HS_SUBSET, ...), so a changed one exits 7,
# but it does not notice a rebuilt binary.
set -euo pipefail
cd "$(dirname "$0")"
BIN=target/release

only=""
jobs=""
resume=""
while [ $# -gt 0 ]; do
  case "$1" in
    --only)
      [ $# -ge 2 ] || { echo "--only requires an experiment name" >&2; exit 2; }
      only="$2"; shift 2 ;;
    --jobs)
      [ $# -ge 2 ] || { echo "--jobs requires a number" >&2; exit 2; }
      jobs="$2"; shift 2 ;;
    --resume)
      resume=1; shift ;;
    *)
      echo "unknown argument: $1" >&2
      echo "usage: $0 [--only <experiment>] [--jobs <n>] [--resume]" >&2
      exit 2 ;;
  esac
done

[ -x "$BIN/campaign" ] || {
  echo "$BIN/campaign not found — build first: cargo build --release" >&2
  exit 2
}

mapfile -t EXPERIMENTS < <("$BIN/campaign" --list)

if [ -n "$only" ]; then
  found=0
  for exp in "${EXPERIMENTS[@]}"; do
    [ "$exp" = "$only" ] && found=1
  done
  if [ "$found" -eq 0 ]; then
    echo "unknown experiment: $only (valid: ${EXPERIMENTS[*]})" >&2
    exit 2
  fi
  EXPERIMENTS=("$only")
fi

extra_args=()
[ -n "$jobs" ] && extra_args+=(--jobs "$jobs")
[ -n "$resume" ] && extra_args+=(--resume)

# Every experiment reports `quarantined: N` on stderr; surface a nonzero N.
quarantine_count() {
  sed -n 's/^ *quarantined: //p' "results/$1.log" | tail -1
}

mkdir -p results
failed=()
quarantined=()
timings=()
total_s=0
for exp in "${EXPERIMENTS[@]}"; do
  echo "=== $exp ($(date +%H:%M:%S)) ==="
  t0=$SECONDS
  if "$BIN/campaign" --only "$exp" "${extra_args[@]}" --json "results/$exp.json" \
      > "results/$exp.txt" 2> "results/$exp.log"; then
    elapsed=$((SECONDS - t0))
    echo "    done (${elapsed}s)"
  else
    rc=$?
    elapsed=$((SECONDS - t0))
    echo "    FAILED (exit $rc, ${elapsed}s) — see results/$exp.txt and results/$exp.log"
    failed+=("$exp")
  fi
  timings+=("$exp $elapsed")
  total_s=$((total_s + elapsed))
  q="$(quarantine_count "$exp")"
  if [ -n "$q" ] && [ "$q" != 0 ]; then
    echo "    quarantined runs: $q"
    quarantined+=("$exp:$q")
  fi
done

echo
echo "WALL-CLOCK PER EXPERIMENT (seconds):"
for t in "${timings[@]}"; do
  printf '  %-22s %6ss\n' "${t%% *}" "${t##* }"
done
printf '  %-22s %6ss\n' TOTAL "$total_s"

if [ "${#quarantined[@]}" -gt 0 ]; then
  echo
  echo "QUARANTINED RUNS (experiment:count): ${quarantined[*]}"
fi
if [ "${#failed[@]}" -gt 0 ]; then
  echo
  echo "FAILED EXPERIMENTS (${#failed[@]}/${#EXPERIMENTS[@]}): ${failed[*]}"
  exit 1
fi
echo "ALL_EXPERIMENTS_DONE"
