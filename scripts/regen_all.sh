#!/usr/bin/env bash
# Regenerate every exhibit of the paper and verify the CSVs are
# byte-identical to the committed ones in results/ — the tier-2
# determinism check. Any drift (a kernel change that reorders events, a
# model change, a formatting change) fails loudly with a diff.
#
# Usage:
#   scripts/regen_all.sh              # regenerate + diff against results/
#   scripts/regen_all.sh --smoke      # fast subset (CI smoke check)
#   ELANIB_SWEEP_THREADS=1 scripts/regen_all.sh   # serial reference mode
#
# Environment:
#   ELANIB_SWEEP_THREADS  sweep-engine pool width (default: all cores;
#                         results are identical at any setting)
#   ELANIB_BENCH_JSON     optional JSON-lines file for sweep + regen
#                         perf records (see EXPERIMENTS.md)
#   ELANIB_CACHE_DIR      persistent point-cache directory: a warm rerun
#                         skips already-simulated sweep points entirely;
#                         the CSV diff must still pass warm or cold
#   ELANIB_CACHE=off      disable the point cache (memo tier included)
#   ELANIB_TRACE / ELANIB_METRICS  also emit Chrome traces / metrics
#                         summaries per exhibit (see EXPERIMENTS.md);
#                         the CSV diff must still pass with these set
#   ELANIB_REGEN_TIMEOUT  per-exhibit watchdog in seconds (default 300):
#                         an exhibit that livelocks — e.g. a fault plan
#                         that deadlocks a simulated rank — is killed
#                         and reported instead of hanging the run
set -euo pipefail
cd "$(dirname "$0")/.."

BINS="table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 tables ablations faults roce"
SMOKE=0
if [ "${1:-}" = "--smoke" ]; then
    # Smoke mode: the cheap cost-model exhibits plus one full MD study
    # (fig2) and the NAS CG study (fig6, the only exhibit running real
    # sparse numerics) — enough to catch kernel-ordering, numerics or
    # formatting drift in seconds; only the CSVs these bins produce are
    # diffed.
    SMOKE=1
    BINS="table1 fig2 fig6 fig7 fig8 tables"
fi

cargo build --release --workspace --quiet

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# Each exhibit binary reports one "[regen <exhibit>: …]" stderr line per
# emitted table — wall time plus point-cache hit rate — on top of the
# shell-level per-binary wall time printed here.
total_start=$(date +%s%N)
for b in $BINS; do
    echo "== regenerating $b =="
    t0=$(date +%s%N)
    rc=0
    ELANIB_RESULTS_DIR="$out" timeout "${ELANIB_REGEN_TIMEOUT:-300}" \
        "./target/release/$b" > "$out/$b.txt" || rc=$?
    if [ "$rc" -eq 124 ]; then
        echo "TIMEOUT: $b exceeded ${ELANIB_REGEN_TIMEOUT:-300}s (livelocked sim?)" >&2
        exit 124
    elif [ "$rc" -ne 0 ]; then
        echo "FAIL: $b exited with status $rc" >&2
        exit "$rc"
    fi
    t1=$(date +%s%N)
    echo "== $b done in $(( (t1 - t0) / 1000000 )) ms =="
done
total_end=$(date +%s%N)
echo "== all exhibits regenerated in $(( (total_end - total_start) / 1000000 )) ms =="

status=0
n_cmp=0
for committed in results/*.csv; do
    name="$(basename "$committed")"
    if [ ! -f "$out/$name" ]; then
        if [ "$SMOKE" -eq 1 ]; then
            continue # not produced by the smoke subset
        fi
        echo "MISSING: $name was not regenerated" >&2
        status=1
        continue
    fi
    n_cmp=$((n_cmp + 1))
    if ! cmp -s "$committed" "$out/$name"; then
        echo "DRIFT: $name differs from committed results/" >&2
        diff -u "$committed" "$out/$name" | head -20 >&2 || true
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "OK: all $n_cmp exhibit CSVs byte-identical to committed results/"
    if [ "$SMOKE" -eq 0 ]; then
        # A clean full regen is the only legitimate producer of the
        # results manifest; scripts/ci.sh verifies it so stale or
        # hand-edited CSVs fail fast without rerunning any simulation.
        (cd results && LC_ALL=C sha256sum -- *.csv > MANIFEST.sha256)
        echo "results/MANIFEST.sha256 refreshed ($(wc -l < results/MANIFEST.sha256) CSVs)"
        # Bound the append-only BENCH history: keep the last N records
        # per (kind,label) key plus every best-on-record entry the
        # regression gates compare against (see elanib-report --rotate).
        rotate_args=()
        for f in BENCH_regen.json BENCH_sweep.json; do
            [ -s "$f" ] && rotate_args+=(--bench "$f")
        done
        if [ "${#rotate_args[@]}" -gt 0 ] && [ -x target/release/elanib-report ]; then
            ./target/release/elanib-report --rotate "${ELANIB_BENCH_KEEP:-8}" "${rotate_args[@]}"
        fi
    fi
else
    echo "FAIL: exhibit CSVs drifted (see above)" >&2
fi
exit "$status"
