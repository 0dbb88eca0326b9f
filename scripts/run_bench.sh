#!/usr/bin/env bash
# Build the bench targets and run the perf microbenchmarks to emit
# Google-Benchmark JSON baselines for the perf trajectory:
#   bench/perf_simulator -> BENCH_simulator.json (simulator pipeline)
#   bench/perf_serve     -> BENCH_serve.json     (serve layer: fingerprint, wire, cache)
#   bench/perf_metrics   -> BENCH_metrics.json   (observability primitives)
#
# Usage: scripts/run_bench.sh [--repeat N] [simulator|serve|metrics|all] [output.json]
#   --repeat N      forward --benchmark_repetitions=N (bench_diff.py
#                   averages the repetitions, damping steady-state noise)
#   bench name      which baseline to regenerate (default: all)
#   output.json     output path, only with a single bench name
#                   (default <repo>/BENCH_<name>.json)
#   OUT_DIR         overrides the output directory for the defaults
#   BUILD_DIR       overrides the build tree (default <repo>/build-release)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
REPEAT=""
if [[ "${1:-}" == "--repeat" ]]; then
    REPEAT="${2:?--repeat needs a count}"
    case "${REPEAT}" in
        ''|*[!0-9]*)
            echo "error: --repeat needs a positive integer" >&2
            exit 2
            ;;
    esac
    shift 2
fi
WHICH="${1:-all}"
OUT_DIR="${OUT_DIR:-${ROOT}}"
BUILD_DIR="${BUILD_DIR:-${ROOT}/build-release}"
JOBS="$(nproc 2>/dev/null || echo 4)"

case "${WHICH}" in
    simulator|serve|metrics|all) ;;
    *)
        echo "usage: $0 [--repeat N] [simulator|serve|metrics|all]" \
             "[output.json]" >&2
        exit 2
        ;;
esac
if [[ $# -gt 1 && "${WHICH}" == "all" ]]; then
    echo "error: an explicit output path needs a single bench name" >&2
    exit 2
fi

cmake -S "${ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release \
    -DVTRAIN_BUILD_BENCH=ON
cmake --build "${BUILD_DIR}" -j "${JOBS}"

run_bench() {
    local name="$1" out="$2"
    local bin="${BUILD_DIR}/bench/perf_${name}"
    if [[ ! -x "${bin}" ]]; then
        echo "error: ${bin} was not built (is libbenchmark-dev installed?)" >&2
        exit 1
    fi
    local extra=()
    if [[ -n "${REPEAT}" ]]; then
        extra+=("--benchmark_repetitions=${REPEAT}")
    fi
    "${bin}" \
        --benchmark_out="${out}" \
        --benchmark_out_format=json \
        --benchmark_min_time=0.1 \
        "${extra[@]}"
    # Fail loudly if the baseline is not valid JSON.
    python3 -m json.tool "${out}" > /dev/null
    # Stamp the context block with the facts that decide whether two
    # baselines are comparable: which vector ISA features the host
    # offers (so a number from an AVX-512 host is never diffed
    # silently against one without) and the pinning mode the run used
    # (VTRAIN_PIN env, default "off").  bench_diff.py warns -- without
    # failing -- when two files disagree on these.
    VTRAIN_PIN="${VTRAIN_PIN:-off}" python3 - "${out}" <<'PYEOF'
import json
import os
import sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

flags = set()
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("flags") or line.startswith("Features"):
                flags = set(line.split(":", 1)[1].split())
                break
except OSError:
    pass
features = [name for name in ("avx2", "avx512f") if name in flags]

context = doc.setdefault("context", {})
context["vtrain_cpu_features"] = " ".join(features) if features else "none"
context["vtrain_pinning"] = os.environ.get("VTRAIN_PIN", "off")

with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PYEOF
    echo "perf baseline written to ${out}"
}

if [[ "${WHICH}" == "all" ]]; then
    for name in simulator serve metrics; do
        run_bench "${name}" "${OUT_DIR}/BENCH_${name}.json"
    done
else
    run_bench "${WHICH}" "${2:-${OUT_DIR}/BENCH_${WHICH}.json}"
fi
