"""The repository benchmark: three workloads over the Data+AI stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``figure1``: ingest -> index -> retrieve -> generate -> serve
  (:mod:`perfbench.figure1`);
* ``fleet_disagg`` and ``fleet_colocated``: the pool DES and the flat
  fleet DES (:mod:`perfbench.fleet`).

One run repeats *passes* until ``--seconds`` have passed, and makes at
least :data:`MIN_PASSES`.  Each pass draws its inputs from its own seed,
derived from ``--seed`` and the pass index; it builds the inputs and the
components (timed as set-up), then runs the workload (timed as the run),
pinned to the least-contended CPU (:func:`pin_quietest_cpu`).  Every pass
checks its outputs outside the timed region.  Host times are calibrated
(:mod:`perfbench.clock`): each lap of a pass is scaled by a fixed reference
loop timed just before and after it, so they read as seconds at a nominal
host speed and the speed swings of a shared VM cancel; the raw host
seconds are printed beside them.  Host times are reported as medians over
passes.  Simulated results (sim TTFT, QA accuracy, $) are
outputs, not performance: they are taken from the first MIN_PASSES
passes, so for a run seed they repeat bit for bit, and they are printed
for exact comparison with a digest of those passes' per-request outcomes.

``--trace 1`` runs every pass twice on the same inputs, untraced and then
traced.  Traced passes record spans around the calls into each repo module
(:mod:`perfbench.spans`); the per-layer metrics come from them, tracing
must not change the simulated outcome, and the traced-minus-untraced pass
time is reported as the tracing overhead.  The spans are written to
``perfbench/out/`` when the run ends.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import os

# One thread everywhere, BLAS pools included: the run stays within nproc on
# any machine and host times do not depend on how many cores are idle.
# This must run before NumPy is first imported.
THREADS = "1"
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figure1", "fleet_disagg", "fleet_colocated")
#: A seed never used while the benchmark or a change was tuned; a claimed
#: gain must also hold on it.
HELD_OUT_SEED = 90_017
MIN_PASSES = 3

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("items_per_s", "1/s"),
]

#: Layers whose share of the traced pass time is reported, by repo module.
BUSY_LAYERS = (
    "stream.ingest",
    "prep.dedup",
    "llm.embedding",
    "vector.write",
    "vector.maint",
    "vector.read",
    "llm.model",
    "semopt",
    "inference.engine",
    "inference.pools",
    "inference.fleet",
    "inference.metrics",
)
SETUP_PHASES = ("data.build", "inference.workload.build", "faults.plan.build")
DES_METRICS = (
    ("requests_per_s", "req/s"),
    ("completed", "count"),
    ("rejected", "count"),
    ("retries", "count"),
    ("reroutes", "count"),
    ("deaths", "count"),
    ("spawns", "count"),
    ("prefix_hit_ratio", "ratio"),
)

PER_LAYER: List[Tuple[str, str]] = (
    [(f"{layer}.busy_pct", "%") for layer in BUSY_LAYERS]
    + [
        ("stream.ingest.self_pct", "%"),
        ("llm.embedding.query_pct", "%"),
        ("stream.batches", "count"),
        ("stream.docs_arrived", "count"),
        ("stream.docs_admitted", "count"),
        ("stream.admit_ratio", "ratio"),
        ("stream.docs_evicted", "count"),
        ("stream.refreshes", "count"),
        ("stream.rebalances", "count"),
        ("prep.dedup.docs", "count"),
        ("llm.embedding.texts", "count"),
        ("llm.embedding.reembed_share", "ratio"),
        ("vector.write.rows", "count"),
        ("vector.read.queries", "count"),
        ("vector.tombstone_fraction", "ratio"),
        ("llm.model.calls", "count"),
        ("llm.model.unique_prompt_ratio", "ratio"),
        ("llm.model.input_tokens", "count"),
        ("llm.model.output_tokens", "count"),
        ("llm.usd", "usd"),
        ("semopt.rows_in", "count"),
        ("semopt.rows_out", "count"),
        ("semopt.llm_calls", "count"),
        ("semopt.cache_hit_ratio", "ratio"),
        ("rag.queries_per_s", "q/s"),
        ("semopt.rows_per_s", "rows/s"),
        ("inference.engine.requests", "count"),
        ("inference.engine.iterations", "count"),
        ("inference.engine.handoffs", "count"),
        ("inference.engine.reprefills", "count"),
        ("inference.kv.mean_utilization", "ratio"),
        ("inference.kv.peak_reserved", "tokens"),
    ]
    + [
        (f"{layer}.{name}", unit)
        for layer in ("inference.pools", "inference.fleet")
        for name, unit in DES_METRICS
    ]
    + [
        ("inference.pools.handoffs", "count"),
        ("inference.pools.migrations", "count"),
        ("inference.pools.ship_ratio", "ratio"),
        ("inference.pools.reprefills", "count"),
        ("inference.fleet.imbalance", "ratio"),
    ]
    + [(f"{phase}_pct", "%") for phase in SETUP_PHASES]
    + [
        ("trace.overhead_pct", "%"),
        ("sim.ttft_p50_s", "sim_s"),
        ("sim.ttft_p95_s", "sim_s"),
        ("sim.transfer_p95_s", "sim_s"),
        ("rag.accuracy", "ratio"),
        ("rag.gold_in_topk", "ratio"),
        ("sim.outcome_digest", "hash"),
    ]
)

#: Which layer metrics should move each end-to-end metric, on which
#: workload.  Printed with every run so a claimed gain names its path.
FEEDS: Dict[str, Dict[str, List[str]]] = {
    "setup_s": {
        "figure1": ["data.build_pct"],
        "fleet_disagg": ["inference.workload.build_pct", "faults.plan.build_pct"],
        "fleet_colocated": ["inference.workload.build_pct"],
    },
    "run_wall_s": {
        "figure1": [
            "stream.ingest.busy_pct", "rag.queries_per_s", "semopt.busy_pct",
            "inference.engine.busy_pct (a few % at most)",
        ],
        "fleet_disagg": ["inference.pools.busy_pct", "inference.metrics.busy_pct"],
        "fleet_colocated": ["inference.fleet.busy_pct", "inference.metrics.busy_pct"],
    },
    "items_per_s": {
        "figure1": [
            "prep.dedup.busy_pct", "llm.embedding.busy_pct - llm.embedding.query_pct",
            "vector.write.busy_pct", "vector.maint.busy_pct", "stream.ingest.self_pct",
            "llm.embedding.reembed_share",
        ],
        "fleet_disagg": ["inference.pools.requests_per_s"],
        "fleet_colocated": ["inference.fleet.requests_per_s"],
    },
    "peak_rss_mb": {
        "figure1": ["stream.docs_admitted", "vector.tombstone_fraction"],
        "fleet_disagg": ["FleetWorkload / FleetResult columns"],
        "fleet_colocated": ["FleetWorkload / FleetResult columns"],
    },
}


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="input size; 'smoke' is the toy scale the self-test uses",
    )
    return parser.parse_args(argv)


# ------------------------------------------------------------ environment
def _git_rev() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref[5:]


def _src_digest() -> str:
    """Hash of every source file measured; identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> Dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "git_rev": _git_rev(),
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "threads": threading.active_count(),
        "blas_threads": int(THREADS),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


# --------------------------------------------------------------- workloads
def workload_of(name: str):
    """The module that runs and checks workload ``name``, and its set-up."""
    from perfbench import figure1, fleet

    if name == "figure1":
        return figure1, figure1.setup
    shape = fleet.DISAGG if name == "fleet_disagg" else fleet.COLOCATED
    return fleet, functools.partial(fleet.setup, shape)


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def pass_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th pass, derived from the run seed.

    Each pass draws fresh inputs, so a run's medians average over several
    inputs rather than over one draw.
    """
    from repro.utils import derive_rng

    return int(derive_rng(seed, "perfbench", "pass", index).integers(0, 2**31))


#: CPUs a pass may be pinned to; a few candidates suffice on large hosts.
CPUS = sorted(os.sched_getaffinity(0))[:8] if hasattr(os, "sched_getaffinity") else []


def _probe_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - t0


def pin_quietest_cpu() -> None:
    """Pin the process to the candidate CPU that runs a probe loop fastest.

    On a shared VM the vCPUs are unequally contended by other tenants and
    the contention moves within seconds; a pass pinned to the quieter one,
    and never migrated mid-pass, reads the program's speed with less noise.
    """
    if len(CPUS) < 2:
        return
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe_s(), _probe_s())
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def _one_pass(mod, setup, seed: int, size: str, tracer) -> Tuple[Dict, object, object]:
    from perfbench.clock import Stopwatch

    gc.collect()
    pin_quietest_cpu()
    setup_watch = Stopwatch()
    s = setup(seed, size)
    setup_watch.lap()
    mod.instrument(s, tracer)
    gc.collect()
    watch = Stopwatch()
    out = mod.run(s, tracer, watch)
    watch.lap()
    record = {
        "setup_s": setup_watch.scaled_s,
        "setup_raw_s": setup_watch.raw_s,
        "wall_s": watch.scaled_s,
        "wall_raw_s": watch.raw_s,
        "phases": dict(s.phases),
        "stats": mod.pass_stats(s, out),
        "sim": dict(out.sim),
        "digest": mod.digest(s, out),
        "operations": mod.operations(s, out),
        "failures": mod.check(s, out),
    }
    if tracer.enabled:
        record["tracer"] = tracer
        record["layers"] = mod.per_layer(s, out)
    return record, s, out


def measure(mod, setup, seed: int, size: str, seconds: float, trace: bool) -> Dict:
    """Run passes until ``seconds`` have passed and MIN_PASSES are done;
    with ``trace`` each pass runs twice on the same inputs, untraced then
    traced."""
    from perfbench.spans import NullTracer, Tracer

    untraced: List[Dict] = []
    traced: List[Dict] = []
    failures: List[str] = []
    deadline = time.perf_counter() + seconds
    s = out = None
    while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
        seed_i = pass_seed(seed, len(untraced))
        s = out = None
        record, s, out = _one_pass(mod, setup, seed_i, size, NullTracer())
        untraced.append(record)
        if trace:
            s = out = None
            again, s, out = _one_pass(mod, setup, seed_i, size, Tracer())
            traced.append(again)
            if again["digest"] != record["digest"]:
                failures.append(f"pass seed {seed_i}: tracing changed the simulated outcome")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for record in untraced + traced:
        failures.extend(record["failures"])
    failures.extend(mod.deep_check(s, out))
    fixed = untraced[:MIN_PASSES]
    return {
        "untraced": untraced,
        "traced": traced,
        "failures": failures,
        "digest": hashlib.sha256("".join(r["digest"] for r in fixed).encode()).hexdigest(),
        "sim": {k: _median([r["sim"][k] for r in fixed]) for k in fixed[0]["sim"]},
        "attempted": sum(r["operations"] for r in untraced + traced),
        "peak_rss_mb": peak_rss_mb,
    }


def end_to_end(m: Dict) -> Dict[str, float]:
    passes = m["untraced"]
    return {
        "setup_s": _median([p["setup_s"] for p in passes]),
        "run_wall_s": _median([p["wall_s"] for p in passes]),
        "peak_rss_mb": m["peak_rss_mb"],
        "items_per_s": _median([p["stats"]["items_per_s"] for p in passes]),
    }


def per_layer(m: Dict) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Per-layer metrics from the traced passes, plus busy/self seconds."""
    metrics: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    busy_s: Dict[str, List[float]] = {}
    self_s: Dict[str, List[float]] = {}
    samples: Dict[str, List[float]] = {}
    for p in m["traced"]:
        tracer = p["tracer"]
        busy, own = tracer.busy_and_self()
        wall = p["wall_raw_s"]
        for name in set(busy) | set(own):
            busy_s.setdefault(name, []).append(busy.get(name, 0.0))
            self_s.setdefault(name, []).append(own.get(name, 0.0))
        for layer in BUSY_LAYERS:
            samples.setdefault(f"{layer}.busy_pct", []).append(100.0 * busy.get(layer, 0.0) / wall)
        samples.setdefault("stream.ingest.self_pct", []).append(
            100.0 * own.get("stream.ingest", 0.0) / wall
        )
        samples.setdefault("llm.embedding.query_pct", []).append(
            100.0 * tracer.busy_under("llm.embedding", "rag") / wall
        )
        for phase in SETUP_PHASES:
            samples.setdefault(f"{phase}_pct", []).append(
                100.0 * p["phases"].get(phase, 0.0) / p["setup_raw_s"]
            )
    # Work counts from the first MIN_PASSES passes only, so they repeat
    # exactly for a run seed.
    for p in m["traced"][:MIN_PASSES]:
        for key, value in p["layers"].items():
            if key not in metrics:
                raise KeyError(f"per-layer metric {key!r} is not in PER_LAYER")
            samples.setdefault(key, []).append(float(value))
    for key, values in samples.items():
        metrics[key] = _median(values)
    metrics["trace.overhead_pct"] = _median([
        100.0 * (t["wall_s"] / u["wall_s"] - 1.0) for u, t in zip(m["untraced"], m["traced"])
    ])
    metrics.update(m["sim"])
    metrics["sim.outcome_digest"] = int(m["digest"][:13] or "0", 16)
    seconds = {
        "busy_s": {k: _median(v) for k, v in sorted(busy_s.items())},
        "self_s": {k: _median(v) for k, v in sorted(self_s.items())},
    }
    return metrics, seconds


def _write_spans(workload: str, seed: int, m: Dict, env: Dict, seconds: Dict) -> Path:
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    payload = {
        "environment": env,
        "layer_seconds": seconds,
        "passes": [
            {"wall_raw_s": p["wall_raw_s"], "spans": [sp.as_dict() for sp in p["tracer"].spans]}
            for p in m["traced"]
        ],
    }
    path.write_text(json.dumps(payload))
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    mod, setup = workload_of(args.workload)
    env = environment(args.seed)
    m = measure(mod, setup, args.seed, args.size, args.seconds, bool(args.trace))
    e2e = end_to_end(m)

    print(f"# perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# passes untraced={len(m['untraced'])} traced={len(m['traced'])}")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {units[name]}")
    for key in ("setup_raw_s", "wall_raw_s"):
        print(f"host_{key} {_median([p[key] for p in m['untraced']]):.6g} s")
    for name, (value, unit) in mod.extras([p["stats"] for p in m["untraced"]]).items():
        print(f"{name} {value:.6g} {unit}")
    for key in ("wall_s", "wall_raw_s", "setup_s", "setup_raw_s"):
        print(f"# pass_{key} {json.dumps([p[key] for p in m['untraced']])}")
    for name, value in sorted(m["sim"].items()):
        print(f"{name} {value!r}")
    print(f"digest {m['digest']}")
    for metric, feeds in FEEDS.items():
        print(f"# feeds {metric} <- {', '.join(feeds[args.workload])}")
    for failure in m["failures"]:
        print(f"# CHECK FAILED: {failure}")

    if args.trace:
        metrics, seconds = per_layer(m)
        path = _write_spans(args.workload, args.seed, m, env, seconds)
        for name, value in seconds["busy_s"].items():
            print(f"busy_s {name} {value:.6f} self_s {seconds['self_s'][name]:.6f}")
        print(f"# spans written to {path.relative_to(ROOT)}")
        result_metrics = {
            name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER
        }
    else:
        result_metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    failed = len(m["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
