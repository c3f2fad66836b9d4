#!/usr/bin/env bash
# Pre-commit gate: ruff -> mypy (analysis/faults/semopt, strict) -> repro-lint -> tier-1
# -> perf smokes -> perfbench self-test.
#
# Usage (from the repo root):
#     bash scripts/check.sh
#
# ruff and mypy are optional dev dependencies (`pip install -e ".[lint]"`);
# when they are not installed the corresponding step is skipped with a
# warning so the gate still runs in minimal containers.  repro-lint and the
# tier-1 pytest run have no dependencies beyond the repo itself and always
# run.
set -u -o pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

step() {
    echo
    echo "==> $1"
}

step "ruff check"
if python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check src scripts benchmarks tests || failures=$((failures + 1))
else
    echo "skipped: ruff not installed (pip install -e '.[lint]')"
fi

step "mypy src/repro/{analysis,faults,semopt} (strict)"
if python -m mypy --version >/dev/null 2>&1; then
    python -m mypy src/repro/analysis/ src/repro/faults/ src/repro/semopt/ \
        || failures=$((failures + 1))
else
    echo "skipped: mypy not installed (pip install -e '.[lint]')"
fi

step "repro-lint (scripts/lint.py)"
# Under CI=1 emit GitHub Actions annotations so findings land on the PR diff.
if [ "${CI:-0}" = "1" ]; then
    python scripts/lint.py --format github || failures=$((failures + 1))
else
    python scripts/lint.py || failures=$((failures + 1))
fi

step "tier-1 tests"
python -m pytest -x -q || failures=$((failures + 1))

# The E24 chaos benchmark is the end-to-end proof that injected faults are
# recovered from (100% completion, bit-exact restores).  It uses fast
# configs and carries no `perf` marker, so it is cheap enough to gate on.
step "chaos smoke (benchmarks/test_e24_fault_recovery.py)"
python -m pytest benchmarks/test_e24_fault_recovery.py -x -q || failures=$((failures + 1))

# Prep perf smoke: tiny-scale run of the offline data-path harness.  The
# speedup thresholds live in the perf-marked suite; this invocation is about
# the parity assertions inside each case (identical dedup output, bitwise
# embeddings, matching ANN results) on every commit.
step "prep perf smoke (benchmarks/perf/test_perf_prep.py::test_prep_smoke)"
python -m pytest "benchmarks/perf/test_perf_prep.py::test_prep_smoke" -q -m perf || failures=$((failures + 1))

# Fleet perf smoke: tiny-scale run of all three router policies plus the
# faulty (deaths + shed + autoscale) scenario.  The speedup thresholds live
# in the perf-marked suite; this gate is about the bitwise trajectory parity
# the harness asserts between the sharded fleet DES and its frozen naive
# baseline on every commit.
step "fleet perf smoke (benchmarks/perf/test_perf_fleet.py::test_fleet_smoke)"
python -m pytest "benchmarks/perf/test_perf_fleet.py::test_fleet_smoke" -q -m perf || failures=$((failures + 1))

# Disagg perf smoke: tiny-scale run of the prefill/decode pool DES over
# all three prefill policies plus the faulty (deaths + transfer faults +
# migration + warm-up autoscale) scenario.  The speedup thresholds live in
# the perf-marked suite; this gate is about the bitwise trajectory parity
# the harness asserts between the sharded pool DES and its frozen naive
# baseline on every commit.
step "disagg perf smoke (benchmarks/perf/test_perf_disagg.py::test_disagg_smoke)"
python -m pytest "benchmarks/perf/test_perf_disagg.py::test_disagg_smoke" -q -m perf || failures=$((failures + 1))

# Semopt perf smoke: tiny-scale run of both semantic-pipeline shapes
# (cascade and join/topk/group-count) against the frozen naive executor.
# The speedup thresholds live in the perf-marked suite; this gate is about
# the identical-output assertions (survivors, mapped fields, aggregates)
# the harness performs inside every case on every commit.
step "semopt perf smoke (benchmarks/perf/test_perf_semopt.py::test_semopt_smoke)"
python -m pytest "benchmarks/perf/test_perf_semopt.py::test_semopt_smoke" -q -m perf || failures=$((failures + 1))

# Streaming smoke: tiny IVF + HNSW streams through the full flywheel
# (incremental dedup -> pinned online IDF -> live index).  The harness
# asserts convergence inside every case — identical dedup survivors and
# recall@10 within tolerance of the frozen full rebuild — on every commit.
step "stream perf smoke (benchmarks/perf/test_perf_stream.py::test_stream_smoke)"
python -m pytest "benchmarks/perf/test_perf_stream.py::test_stream_smoke" -q -m perf || failures=$((failures + 1))

# Repo benchmark self-test: a toy-scale pass of every perfbench workload,
# traced and untraced, with each workload's output checks.  On figure1 that
# is the deep checks (stream survivors == rebuild_from_scratch,
# generate_many == looped generate); on the fleets, parity with the frozen
# twins.  Also the tracer and stopwatch unit tests (~25 s in all).
step "perfbench self-test (perfbench/)"
python3 -m pytest perfbench -q || failures=$((failures + 1))

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: FAIL ($failures step(s) failed)"
    exit 1
fi
echo "check.sh: ok"
