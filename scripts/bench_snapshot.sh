#!/usr/bin/env bash
# Snapshot the hot-path benchmarks into BENCH_hotpath.json.
#
# Runs the criterion benches `best_response`, `apsp`, `dynamics`, and
# `service_roundtrip` (via the hermetic criterion shim in
# crates/compat/criterion, which appends one JSON line per benchmark
# under target/criterion-lite/),
# then aggregates medians — plus the tracked derived figures
# `incremental_speedup_n14` = exact_bnb_reference/14 ÷ exact_bnb/14,
# `swap_heavy_speedup_n20` = dynamics_swap_heavy/invalidate/20 ÷
# dynamics_swap_heavy/dynamic/20 (warm-vector maintenance under
# swap-heavy moves: Ramalingam–Reps repair vs invalidate-and-redo), and
# `move_scan_speedup_n20` = move_scan/masked/20 ÷ move_scan/speculative/20
# (the per-activation candidate-move scan: speculative warm-vector
# deltas vs one masked Dijkstra per candidate), and the large-n scaling
# figures `sssp_bucket_speedup_n4096` = large_n_sssp/heap/4096 ÷
# large_n_sssp/bucket/4096 (the bucket-queue SSSP core against the
# binary heap on a 4096-node network) and `cost_per_activation_n{256,
# 1024,4096}` = large_n_round/horizon/{n} ÷ n (amortized per-agent cost
# of one bounded-horizon add-only round — the ~O(n) curve ISSUE 9
# tracks), and the pool ablations
# `apsp_parallel_speedup_n256`, `maxgain_parallel_speedup_n20`, and
# `grid_wall_speedup` (each a sequential ÷ pool-parallel pair; ≈ 1.0 on
# a single-core runner, > 1 with real cores), and
# `regret_meter_overhead_n20` = regret_meter/on/20 ÷ regret_meter/off/20
# (the streaming max-regret meter's per-round pricing scan; ≥ 1.0, the
# price of equilibrium-quality observability), and
# `br_grid_speedup_n14` = br_grid/rebuild/14 ÷ br_grid/cached/14 (full
# exact-best-response stability sweeps over the br-grid n = 14 column
# through the engine's facility-location search and memo vs the
# optimistic-network oracle on every activation) —
# into BENCH_hotpath.json at the repo root, so every PR leaves a perf
# trajectory point behind.
#
# Knobs: CRITERION_LITE_SAMPLES (default 10 per group),
#        CRITERION_LITE_SAMPLE_MS (default 20 ms per sample).
set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT="$PWD"
OUT_DIR="$REPO_ROOT/target/criterion-lite"
export CRITERION_LITE_OUT="$OUT_DIR"

rm -rf "$OUT_DIR"
mkdir -p "$OUT_DIR"

for bench in best_response apsp dynamics move_scan service_roundtrip; do
    echo "== cargo bench --bench $bench" >&2
    cargo bench -p gncg-bench --bench "$bench" >&2
done

# The large-n group runs single-shot: its n = 4096 round payload lasts
# over a minute per iteration, so the shim's usual warmup + 10 samples
# would cost tens of minutes. One sample of a deterministic multi-second
# payload is already far above measurement noise (a 1-sample median is
# that sample).
echo "== cargo bench --bench large_n (single-shot)" >&2
CRITERION_LITE_SAMPLES=1 CRITERION_LITE_SAMPLE_MS=1 \
    cargo bench -p gncg-bench --bench large_n >&2

python3 - "$OUT_DIR" "$REPO_ROOT/BENCH_hotpath.json" <<'PY'
import json, pathlib, sys, datetime

out_dir, dest = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
medians = {}
for f in sorted(out_dir.glob("*.jsonl")):
    for line in f.read_text().splitlines():
        rec = json.loads(line)
        # Last write wins: reruns within one snapshot supersede.
        medians[rec["benchmark"]] = rec["median_ns"]

snapshot = {
    "generated_by": "scripts/bench_snapshot.sh",
    "date": datetime.date.today().isoformat(),
    "median_ns": dict(sorted(medians.items())),
}
ref = medians.get("best_response/exact_bnb_reference/14")
inc = medians.get("best_response/exact_bnb/14")
if ref and inc:
    snapshot["incremental_speedup_n14"] = round(ref / inc, 2)
redo = medians.get("dynamics_swap_heavy/invalidate/20")
dyn = medians.get("dynamics_swap_heavy/dynamic/20")
if redo and dyn:
    snapshot["swap_heavy_speedup_n20"] = round(redo / dyn, 2)
masked = medians.get("move_scan/masked/20")
spec = medians.get("move_scan/speculative/20")
if masked and spec:
    snapshot["move_scan_speedup_n20"] = round(masked / spec, 2)
meter_on = medians.get("regret_meter/on/20")
meter_off = medians.get("regret_meter/off/20")
if meter_on and meter_off:
    snapshot["regret_meter_overhead_n20"] = round(meter_on / meter_off, 2)
br_rebuild = medians.get("br_grid/rebuild/14")
br_cached = medians.get("br_grid/cached/14")
if br_rebuild and br_cached:
    snapshot["br_grid_speedup_n14"] = round(br_rebuild / br_cached, 2)
heap4k = medians.get("large_n_sssp/heap/4096")
bucket4k = medians.get("large_n_sssp/bucket/4096")
if heap4k and bucket4k:
    snapshot["sssp_bucket_speedup_n4096"] = round(heap4k / bucket4k, 2)
for n in (256, 1024, 4096):
    rnd = medians.get(f"large_n_round/horizon/{n}")
    if rnd:
        # One add-only round activates every agent once, so the round
        # median over n is the amortized per-activation cost.
        snapshot[f"cost_per_activation_n{n}"] = round(rnd / n)
for fig, seq, par in (
    ("apsp_parallel_speedup_n256", "apsp/sequential/256", "apsp/parallel/256"),
    ("maxgain_parallel_speedup_n20", "maxgain_scan/sequential/20", "maxgain_scan/parallel/20"),
    ("grid_wall_speedup", "grid_wall/sequential/12cells", "grid_wall/parallel/12cells"),
):
    s, p = medians.get(seq), medians.get(par)
    if s and p:
        snapshot[fig] = round(s / p, 2)

dest.write_text(json.dumps(snapshot, indent=2) + "\n")
print(f"wrote {dest} ({len(medians)} benchmarks)")
for fig in (
    "incremental_speedup_n14",
    "swap_heavy_speedup_n20",
    "move_scan_speedup_n20",
    "regret_meter_overhead_n20",
    "br_grid_speedup_n14",
    "sssp_bucket_speedup_n4096",
    "apsp_parallel_speedup_n256",
    "maxgain_parallel_speedup_n20",
    "grid_wall_speedup",
):
    if fig in snapshot:
        print(f"{fig} = {snapshot[fig]}x")
for n in (256, 1024, 4096):
    fig = f"cost_per_activation_n{n}"
    if fig in snapshot:
        print(f"{fig} = {snapshot[fig]} ns")
PY
