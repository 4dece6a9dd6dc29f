#!/usr/bin/env bash
# Full correctness matrix (see docs/correctness.md):
#
#   1. RelWithDebInfo build + full test suite        (preset dev)
#   2. ASan+UBSan build + full test suite            (preset asan-ubsan)
#   3. ThreadSanitizer build + parallel-path tests   (preset tsan)
#   4. HUBLAB_METRICS=OFF build + full test suite    (preset metrics-off)
#   5. clang-tidy gate                               (run-tidy; skips w/o clang-tidy)
#   6. hublab_lint incl. header self-containment     (run-lint)
#   7. hublab_lint --sarif + SARIF 2.1.0 validation  (CI artifact)
#   8. bench smoke: every bench --smoke + JSON schema validation
#   9. bench-compare: smoke runs vs bench/baselines/  (relaxed thresholds)
#  10. trajectory: headline gauges checked and printed as the next
#      bench/trajectory.jsonl point (only regen-baselines appends it)
#  11. closed-loop serve smoke: `hublab serve --arrival closed` (per-query
#      with a Prometheus dump, 4 workers, and the ch oracle), every
#      SERVE_*.json schema-validated
#  12. open-loop serve smoke: `hublab serve` at low wall QPS (nothing
#      shed) and under virtual-time overload (deterministic shedding),
#      both reports schema-validated
#  13. perf-counters smoke: bench --perf-counters banner + schema-v3 hw
#      blocks (validated when the host has hardware counters, cleanly
#      skipped where perf_event_open is unavailable)
#  14. batch kernel: ISA-tier banner, HUBLAB_FORCE_SCALAR forced-scalar
#      run, the pract.batch_query_pct_of_scalar.gnm2000 <= 70 gate, the
#      one-pair pract.batch1_query_pct_of_scalar.gnm2000 <= 100 gate and
#      the near-pair pract.batch_query_pct_of_scalar.road40x40_near <= 100
#      gate
#  15. -Wall -Wextra -Werror build of the full tree  (preset werror)
#
# Exits non-zero on the first failing stage.  Run from anywhere.
#
# Helper mode: `tools/check.sh regen-baselines` rebuilds the dev preset,
# reruns every bench with --smoke, refreshes bench/baselines/ with the
# freshly emitted JSON (current schema version), and appends the run's
# headline gauges to bench/trajectory.jsonl.  Use it after an emitter or
# schema change, then review the diff before committing.  The full matrix
# writes no tracked file.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

stage() {
  echo
  echo "=== check.sh: $* ==="
}

# trajectory SMOKE_DIR OUT: the headline practicality gauges of the bench
# reports in SMOKE_DIR, asserted present, appended as one point to the
# committed bench/trajectory.jsonl history, and the result written to OUT.
# One line per git revision: a point for the revision of the history's last
# line replaces that line instead of duplicating it.
trajectory() {
  python3 - "$1" "$2" <<'PY'
import json, subprocess, sys, time

smoke_dir, out_path = sys.argv[1], sys.argv[2]

def gauges(name):
    with open(f"{smoke_dir}/{name}") as fh:
        return json.load(fh)["gauges"]

headline = {}
orderings = gauges("BENCH_pll_orderings.json")
for key in ("pract.pll_build_entry_ns.regular3", "pract.pll_build_entry_ns.road"):
    headline[key] = orderings[key]
for key, value in sorted(gauges("BENCH_query_oracles.json").items()):
    if key.startswith(("pract.flat_query_pct_of_vector.",
                       "pract.batch_query_pct_of_scalar.")):
        headline[key] = value
assert any(k.startswith("pract.flat_query_pct_of_vector.") for k in headline), \
    "BENCH_query_oracles.json carries no pract.flat_query_pct_of_vector.* gauges"
assert any(k.startswith("pract.batch_query_pct_of_scalar.") for k in headline), \
    "BENCH_query_oracles.json carries no pract.batch_query_pct_of_scalar.* gauges"
for key, value in sorted(gauges("BENCH_serve_scaling.json").items()):
    if key.startswith(("pract.serve_peak_qps.", "pract.serve_p99_at_halfpeak_ns.")):
        headline[key] = value
assert any(k.startswith("pract.serve_peak_qps.") for k in headline), \
    "BENCH_serve_scaling.json carries no pract.serve_peak_qps.* gauges"

rev = subprocess.check_output(
    ["git", "rev-parse", "--short", "HEAD"], text=True).strip()
entry = {"ts_unix_ms": int(time.time() * 1000), "git_rev": rev,
         "gauges": headline}

try:
    with open("bench/trajectory.jsonl") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
except FileNotFoundError:
    lines = []
if lines and json.loads(lines[-1]).get("git_rev") == rev:
    lines.pop()
lines.append(json.dumps(entry, sort_keys=True))
with open(out_path, "w") as fh:
    fh.write("\n".join(lines) + "\n")
print(f"trajectory: {len(lines)} point(s) -> {out_path}, latest {json.dumps(headline)}")
PY
}

if [ "${1:-}" = "regen-baselines" ]; then
  stage "regen-baselines: rebuild + rerun every bench --smoke"
  cmake --preset dev
  cmake --build --preset dev -j "${jobs}"
  regen_dir="$(mktemp -d)"
  trap 'rm -rf "${regen_dir}"' EXIT
  repo_root="$(pwd -P)"
  for bench in build/dev/bench/bench_*; do
    [ -x "${bench}" ] || continue
    echo "--- $(basename "${bench}") --smoke"
    (cd "${regen_dir}" && "${repo_root}/${bench}" --smoke > /dev/null)
  done
  build/dev/tools/hublab validate-bench --quiet "${regen_dir}"/BENCH_*.json
  cp "${regen_dir}"/BENCH_*.json bench/baselines/
  count="$(find "${regen_dir}" -name 'BENCH_*.json' | wc -l)"
  echo "regen-baselines: ${count} schema-valid baselines refreshed in bench/baselines/"
  trajectory "${regen_dir}" bench/trajectory.jsonl
  exit 0
fi

stage "1/15 RelWithDebInfo build + tests"
cmake --preset dev
cmake --build --preset dev -j "${jobs}"
ctest --preset dev -j "${jobs}"

stage "2/15 ASan+UBSan build + tests"
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${jobs}"
ctest --preset asan-ubsan -j "${jobs}"

stage "3/15 TSan build + parallel-path tests"
# The suites that drive util/parallel's pool with threads > 1: the pool
# itself, every parallelized hub-labeling entry point (PllCanonical builds
# PLL labels at 4 threads), the flat kernel, the
# sketch merges the server reduces with, and the server itself — its shard
# workers share the oracle, the pool and the batch kernel's thread_local
# tables under every arrival kind (open, closed, report and batch suites).
# -fsanitize=thread aborts on the first data race (no recovery), so a green
# run means zero reports.
cmake --preset tsan
cmake --build --preset tsan -j "${jobs}"
ctest --preset tsan -j "${jobs}" \
  -R 'StaticChunks|ResolveThreads|HardwareThreads|ParallelFor|RunChunks|ParallelDeterminism|FlatHubLabeling|BatchQuery|QuantileSketch|PllCanonical|ServeOpen|ServeClosed|ServeReport'

stage "4/15 HUBLAB_METRICS=OFF build + tests"
# The one build where counters, tracing and the per-query attribution
# probe are compiled out: metrics::QueryStats is metrics::NoQueryStats, so
# every query kernel runs its no-op instantiation on both entry points.
cmake --preset metrics-off
cmake --build --preset metrics-off -j "${jobs}"
ctest --preset metrics-off -j "${jobs}"

stage "5/15 clang-tidy gate"
cmake --build --preset dev --target run-tidy

stage "6/15 hublab_lint (with header self-containment)"
cmake --build --preset dev --target run-lint

stage "7/15 hublab_lint SARIF artifact"
# Re-run the analyzer emitting SARIF (the CI-consumable artifact) and prove
# the document is well-formed 2.1.0 with the full rule catalog.  Headers
# were already probed in stage 6.
sarif_out="$(mktemp)"
build/dev/tools/hublab_lint --root . --no-header-check --sarif "${sarif_out}" > /dev/null
python3 - "${sarif_out}" <<'PY'
import json, sys
with open(sys.argv[1]) as fh:
    doc = json.load(fh)
assert doc["version"] == "2.1.0", doc["version"]
run = doc["runs"][0]
rules = run["tool"]["driver"]["rules"]
assert len(rules) >= 20, f"expected >= 20 rule descriptors, got {len(rules)}"
print(f"sarif: valid 2.1.0, {len(rules)} rules, {len(run['results'])} results")
PY
rm -f "${sarif_out}"

stage "8/15 bench smoke + BENCH_*.json schema validation"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
repo_root="$(pwd -P)"
bench_count=0
for bench in build/dev/bench/bench_*; do
  [ -x "${bench}" ] || continue
  bench_count=$((bench_count + 1))
  echo "--- $(basename "${bench}") --smoke"
  (cd "${smoke_dir}" && "${repo_root}/${bench}" --smoke > /dev/null)
done
json_count="$(find "${smoke_dir}" -name 'BENCH_*.json' | wc -l)"
if [ "${json_count}" -ne "${bench_count}" ]; then
  echo "bench-smoke: ${bench_count} benches but ${json_count} BENCH_*.json files" >&2
  exit 1
fi
build/dev/tools/hublab validate-bench "${smoke_dir}"/BENCH_*.json
echo "bench-smoke: ${bench_count} benches, ${json_count} schema-valid JSON files"

stage "9/15 bench-compare vs committed baselines"
# Wall-clock thresholds are deliberately loose here (different machines,
# shared CI runners); structural metrics are seeded and should stay close.
compare_failures=0
for json in "${smoke_dir}"/BENCH_*.json; do
  baseline="bench/baselines/$(basename "${json}")"
  if [ ! -f "${baseline}" ]; then
    echo "bench-compare: missing ${baseline} (regenerate with: $(basename "${json%.json}" | sed 's/^BENCH_/bench_/') --smoke into bench/baselines/)" >&2
    compare_failures=$((compare_failures + 1))
    continue
  fi
  echo "--- bench-compare $(basename "${json}")"
  build/dev/tools/hublab bench-compare "${baseline}" "${json}" \
    --threshold 500 --structural-threshold 25 \
    || compare_failures=$((compare_failures + 1))
done
if [ "${compare_failures}" -ne 0 ]; then
  echo "bench-compare: ${compare_failures} bench(es) regressed or lacked a baseline" >&2
  exit 1
fi
echo "bench-compare: all benches within thresholds of bench/baselines/"

stage "10/15 bench trajectory (headline gauges -> next bench/trajectory.jsonl point)"
# The committed history plus this run's point go to the smoke directory, so
# a green run leaves the tree clean; `tools/check.sh regen-baselines`
# appends the point to bench/trajectory.jsonl, and `git log -p` on it reads
# as a perf trajectory across revisions.
trajectory "${smoke_dir}" "${smoke_dir}/trajectory.jsonl"

stage "11/15 closed-loop serve smoke + SERVE_*.json schema validation"
# Three closed-loop runs (each worker takes its next block when the last
# returns): per-query with a Prometheus dump, 4 workers, and the CH oracle.
(cd "${smoke_dir}" \
  && "${repo_root}/build/dev/tools/hublab" gen gadget-g --b 2 --l 1 -o serve_graph.txt > /dev/null \
  && "${repo_root}/build/dev/tools/hublab" serve serve_graph.txt --arrival closed \
       --oracle pll-flat --workload uniform --smoke --batch 1 \
       --json-out SERVE_closed_batch1.json --prom-out SERVE_closed.prom > /dev/null \
  && "${repo_root}/build/dev/tools/hublab" serve serve_graph.txt --arrival closed \
       --oracle pll-flat --workload uniform --smoke --workers 4 \
       --json-out SERVE_closed_4w.json > /dev/null \
  && "${repo_root}/build/dev/tools/hublab" serve serve_graph.txt --arrival closed \
       --oracle ch --workload uniform --smoke \
       --json-out SERVE_closed_ch.json > /dev/null)
build/dev/tools/hublab validate-bench --quiet "${smoke_dir}"/SERVE_closed_*.json
grep -q "hublab_serve_query_ns" "${smoke_dir}/SERVE_closed.prom"
grep -q "hublab_proc_peak_rss_bytes" "${smoke_dir}/SERVE_closed.prom"
grep -q '"threads": 4' "${smoke_dir}/SERVE_closed_4w.json"
python3 - "${smoke_dir}" <<'PY'
import json, sys
with open(f"{sys.argv[1]}/SERVE_closed_4w.json") as fh:
    doc = json.load(fh)
assert doc["arrival"] == "closed", doc["arrival"]
assert doc["queries"] == doc["offered"], (doc["queries"], doc["offered"])
PY
echo "serve-closed: SERVE_closed_*.json schema-valid, every query answered, Prometheus dump has serve metrics"

stage "12/15 open-loop serve smoke (hublab serve, wall + virtual overload)"
# Two runs against the gadget graph from stage 11: a wall-clock run at a
# QPS the box trivially sustains (block admission: nothing is shed) and a
# virtual-time overload run offering 8x the simulated capacity against a
# small ring (shed admission: rejections are mandatory and deterministic).
(cd "${smoke_dir}" \
  && "${repo_root}/build/dev/tools/hublab" serve serve_graph.txt \
       --oracle pll-flat --workload uniform --smoke --workers 2 \
       --qps 20000 --admission block \
       --json-out SERVE_open_low.json > /dev/null \
  && "${repo_root}/build/dev/tools/hublab" serve serve_graph.txt \
       --oracle pll-flat --workload uniform --smoke --workers 2 \
       --timing virtual --virtual-service-ns 1000 --qps 16000000 \
       --ring 64 --admission shed \
       --json-out SERVE_open_overload.json > /dev/null)
build/dev/tools/hublab validate-bench --quiet \
  "${smoke_dir}/SERVE_open_low.json" "${smoke_dir}/SERVE_open_overload.json"
python3 - "${smoke_dir}" <<'PY'
import json, sys
smoke_dir = sys.argv[1]
with open(f"{smoke_dir}/SERVE_open_low.json") as fh:
    low = json.load(fh)
assert low["rejected"] == 0, f"low-QPS block run shed {low['rejected']} queries"
assert low["queries"] == low["offered"], (low["queries"], low["offered"])
with open(f"{smoke_dir}/SERVE_open_overload.json") as fh:
    over = json.load(fh)
assert over["rejected"] > 0, "virtual overload run shed nothing"
assert over["queries"] + over["rejected"] == over["offered"], \
    (over["queries"], over["rejected"], over["offered"])
print(f"serve-open: low rejected=0/{low['offered']}, "
      f"overload rejected={over['rejected']}/{over['offered']}")
PY
echo "serve-open: SERVE_open_*.json schema-valid, admission behaves at both extremes"

stage "13/15 perf-counters smoke + schema-v3 hw validation"
# The banner always states a verdict ("hardware ..." / "unavailable ...");
# hw blocks in the JSON are required only on hardware-capable hosts —
# containers and locked-down kernels degrade to the timer-only fallback.
perf_dir="${smoke_dir}/perf"
mkdir -p "${perf_dir}"
perf_log="${perf_dir}/bench_query_oracles.log"
(cd "${perf_dir}" \
  && "${repo_root}/build/dev/bench/bench_query_oracles" --smoke --perf-counters > "${perf_log}")
grep -q '^perf counters: ' "${perf_log}"
build/dev/tools/hublab validate-bench --quiet "${perf_dir}"/BENCH_*.json
if grep -q '^perf counters: hardware' "${perf_log}"; then
  if ! grep -q '"hw"' "${perf_dir}"/BENCH_*.json; then
    echo "perf-smoke: counters report hardware but no hw blocks in the JSON" >&2
    exit 1
  fi
  echo "perf-smoke: hardware counters live, per-phase hw blocks schema-valid"
else
  echo "perf-smoke: $(grep '^perf counters: ' "${perf_log}") -- hw blocks not required"
fi

stage "14/15 batch query kernel: tier banner, forced-scalar run, pct gates"
# The batched kernel's three-tier dispatch must (a) report which ISA tier
# it resolved, (b) degrade to the scalar tier under HUBLAB_FORCE_SCALAR=1
# with the identity checks still green, and (c) keep its wins: on gnm2000
# the 1024-pair block takes <= 70% of the per-query scalar loop's time and
# the same pairs as one-pair blocks (what a lightly loaded server worker
# drains) take <= 100%; on the road graph's near pairs, whose long target
# labels share most hubs with the source label, the 1024-pair block takes
# <= 100%.  That last gate fails when the SIMD probes fold hits one at a
# time (docs/performance.md, "The batched query kernel").
batch_dir="${smoke_dir}/batch"
mkdir -p "${batch_dir}"
batch_log="${batch_dir}/bench_query_oracles.log"
(cd "${batch_dir}" \
  && "${repo_root}/build/dev/bench/bench_query_oracles" --smoke > "${batch_log}")
grep -q '^batch kernel: tier=' "${batch_log}"
echo "batch-kernel: $(grep '^batch kernel: tier=' "${batch_log}")"
scalar_dir="${batch_dir}/forced-scalar"
mkdir -p "${scalar_dir}"
scalar_log="${scalar_dir}/bench_query_oracles.log"
(cd "${scalar_dir}" \
  && HUBLAB_FORCE_SCALAR=1 "${repo_root}/build/dev/bench/bench_query_oracles" \
       --smoke > "${scalar_log}")
grep -q '^batch kernel: tier=scalar$' "${scalar_log}"
echo "batch-kernel: forced-scalar run green (tier=scalar, identity checks passed)"
# batch_gate GAUGE MAX: GAUGE in the run's BENCH_query_oracles.json is at
# most MAX percent of the per-query scalar loop.
batch_gate() {
  local pct
  pct="$(grep -o "\"$1\": [0-9]*" "${batch_dir}/BENCH_query_oracles.json" \
    | grep -o '[0-9]*$' || true)"
  if [ -z "${pct}" ]; then
    echo "batch-kernel: $1 missing from BENCH_query_oracles.json" >&2
    exit 1
  fi
  if [ "${pct}" -gt "$2" ]; then
    echo "batch-kernel: $1 = ${pct}% of the per-query scalar loop (must be <= $2%)" >&2
    exit 1
  fi
  echo "batch-kernel: $1 = ${pct}% of the per-query scalar loop (<= $2%)"
}
batch_gate pract.batch_query_pct_of_scalar.gnm2000 70
batch_gate pract.batch1_query_pct_of_scalar.gnm2000 100
batch_gate pract.batch_query_pct_of_scalar.road40x40_near 100

stage "15/15 Werror build"
cmake --preset werror
cmake --build --preset werror -j "${jobs}"

stage "all stages passed"
