"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, one at a time, so
every repetition pays its own imports, builds its chips without an
earlier chip's garbage pending, and has its own peak RSS::

    PYTHONPATH=src python3 perfbench/rep.py --workload fsoi64-mp3d \\
        --seed 0 --mode plain --work-dir .perfbench-work/x

Modes:

* ``plain``    -- untraced; its times are the end-to-end metrics;
* ``traced``   -- with the outside-in layer spans of ``layers.py``;
* ``profiled`` -- under ``repro.obs.profiling()``.

The last line of standard output is one JSON object: the times, the
peak RSS, every point's output digest (``CmpResults.to_dict()`` without
its host-side ``loop`` block) and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import workloads as wl

#: Per-point limit inside the sweep; a point that exceeds it fails.
POINT_TIMEOUT_S = 120.0


def digest(result: dict) -> str:
    """SHA-256 of a result dict's canonical JSON, ``loop`` block left out."""
    from repro.sweep import canonical_json

    body = {key: value for key, value in result.items() if key != "loop"}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def run_single(workload: str, seed: int, spans) -> dict:
    from repro.cmp import CmpSystem

    start = perf_counter()
    config, cycles = wl.single_config(workload, seed)
    system = CmpSystem(config)
    built = perf_counter()
    if spans is not None:
        spans.attach(system)
    results = system.run(cycles)
    done = perf_counter()
    result = results.to_dict()
    label = f"{config.app}/{config.network}/n{config.num_nodes}/s{seed}"
    return {
        "setup_s": built - start,
        "wall_s": done - start,
        "sim_cycles_per_s": results.cycles / (done - built),
        "points": [[label, digest(result), None]],
        "results": [result],
    }


class _TimedExecute:
    """Sweep point payload that books build time apart from run time."""

    def __init__(self, spans) -> None:
        self.spans = spans
        self.setup_s = 0.0
        self.cycles = 0

    def __call__(self, point_dict: dict) -> dict:
        from repro.cmp import CmpSystem
        from repro.sweep import SweepPoint

        start = perf_counter()
        point = SweepPoint.from_dict(point_dict)
        system = CmpSystem(point.to_config())
        self.setup_s += perf_counter() - start
        if self.spans is not None:
            self.spans.attach(system)
        results = system.run(point.cycles)
        self.cycles += results.cycles
        return results.to_dict()


def run_sweep_workload(seed: int, work_dir: str, spans) -> dict:
    """A cold sweep into a fresh result cache, then a warm re-run."""
    from repro.sweep import run_sweep

    spec = wl.sweep_spec(seed)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
    try:
        execute = _TimedExecute(spans)
        start = perf_counter()
        cold = run_sweep(spec, workers=1, cache_dir=cache_dir,
                         timeout=POINT_TIMEOUT_S, execute=execute)
        done = perf_counter()
        setup_s, cycles = execute.setup_s, execute.cycles
        warm = run_sweep(spec, workers=1, cache_dir=cache_dir,
                         timeout=POINT_TIMEOUT_S, execute=execute)
        warm_s = perf_counter() - done
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    points, results = [], []
    for first, again in zip(cold.outcomes, warm.outcomes):
        label = first.point.label()
        if not first.ok:
            points.append([label, None, first.error])
            continue
        result_digest = digest(first.result)
        error = None
        if not again.ok or digest(again.result) != result_digest:
            error = "warm re-run result differs from the cold run"
        points.append([label, result_digest, error])
        results.append(first.result)
    speedups = cold.paired_speedups("fsoi", "mesh").values
    geomean = (
        math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        if speedups else None
    )
    elapsed = [o.elapsed for o in cold.outcomes if not o.cached]
    quartiles = (statistics.quantiles(elapsed, n=4) if len(elapsed) > 1
                 else [0.0, 0.0, 0.0])
    return {
        "setup_s": setup_s,
        "wall_s": done - start,
        "sim_cycles_per_s": cycles / (done - start),
        "points": points,
        "results": results,
        "fig6_geomean": geomean,
        "sweep": {
            "warm_s": warm_s,
            "cache_hit_rate": warm.from_cache / len(warm.outcomes),
            "point_s.p50": quartiles[1],
            "point_s.p75": quartiles[2],
        },
    }


def _sim_sums(results: list[dict]) -> dict:
    """Simulated counts summed over a repetition's results."""
    s = dict.fromkeys((
        "cycles", "instructions", "busy", "stall", "sync", "delivered",
        "latency", "l1_misses", "l1_accesses", "invalidations", "nacks",
        "mem_requests", "fsoi_delivered", "fsoi_tx", "fsoi_wasted",
        "fsoi_resolution", "other_delivered", "flit_hops", "skipped",
    ), 0)
    s["has_loop"] = bool(results) and all(r.get("loop") for r in results)
    for r in results:
        delivered = r["packets_delivered"]
        latency = r["latency_breakdown"]
        s["cycles"] += r["cycles"]
        s["instructions"] += r["instructions"]
        for bucket in ("busy", "stall", "sync"):
            s[bucket] += r["core_cycles"][bucket]
        s["delivered"] += delivered
        s["latency"] += latency["total"] * delivered
        l1 = r["l1"]
        misses = l1["read_misses"] + l1["write_misses"]
        s["l1_misses"] += misses
        s["l1_accesses"] += misses + l1["read_hits"] + l1["write_hits"]
        s["invalidations"] += r["directory"]["invalidations_sent"]
        s["nacks"] += r["directory"]["nacks_sent"]
        s["mem_requests"] += sum(r["memory"].values())
        fsoi = r["fsoi"]
        if fsoi:
            tx = {lane: fsoi[f"{lane}_transmissions"] for lane in ("meta", "data")}
            s["fsoi_delivered"] += delivered
            s["fsoi_tx"] += sum(tx.values())
            s["fsoi_wasted"] += sum(
                round(fsoi[f"{lane}_collision_rate"] * count)
                for lane, count in tx.items()
            )
            s["fsoi_resolution"] += latency["collision_resolution"] * delivered
        else:
            s["other_delivered"] += delivered
            s["flit_hops"] += r["mesh_activity"].get("link_flits", 0)
        if s["has_loop"]:
            s["skipped"] += r["loop"]["skipped_cycles"]
    return s


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans, out: dict) -> dict:
    """The per-layer metrics of one traced repetition."""
    s = _sim_sums(out["results"])
    t = spans.self_s
    cycles = s["cycles"]
    sweep = out.get("sweep", {})
    geomean = out.get("fig6_geomean")
    metrics = {
        "core.us_per_cycle": _ratio(t["core"], cycles, 1e6),
        "core.ns_per_packet": _ratio(t["core"], s["fsoi_delivered"], 1e9),
        "core.collision_rate": _ratio(s["fsoi_wasted"], s["fsoi_tx"]),
        "core.resolution_delay": _ratio(s["fsoi_resolution"], s["fsoi_delivered"]),
        "mesh.us_per_cycle": _ratio(t["mesh"], cycles, 1e6),
        "mesh.ns_per_packet": _ratio(t["mesh"], s["other_delivered"], 1e9),
        "mesh.flit_hops": s["flit_hops"],
        "coherence.us_per_cycle": _ratio(t["coherence"], cycles, 1e6),
        "coherence.ns_per_msg": _ratio(t["coherence"], s["delivered"], 1e9),
        "coherence.l1_miss_rate": _ratio(s["l1_misses"], s["l1_accesses"]),
        "coherence.invalidations": s["invalidations"],
        "coherence.nacks": s["nacks"],
        "cpu.cores.us_per_cycle": _ratio(t["cpu.cores"], cycles, 1e6),
        "cpu.cores.ns_per_instr": _ratio(t["cpu.cores"], s["instructions"], 1e9),
        "cpu.ipc": _ratio(s["instructions"], cycles),
        "cpu.stall_frac": _ratio(
            s["stall"], s["busy"] + s["stall"] + s["sync"]
        ),
        "cpu.memctrl.us_per_cycle": _ratio(t["cpu.memctrl"], cycles, 1e6),
        "cpu.memctrl.requests": s["mem_requests"],
        "cmp.calendar.us_per_cycle": _ratio(t["cmp.calendar"], cycles, 1e6),
        "cmp.loop.us_per_cycle": _ratio(t["cmp.loop"], cycles, 1e6),
        "net.inject_refusals": spans.refusals,
        "net.latency_cycles": _ratio(s["latency"], s["delivered"]),
        "net.packets_delivered": s["delivered"],
        "host.gc_s": spans.gc_s,
        "host.gc_collections": spans.gc_collections,
        "sweep.cache_io_s": t["sweep.cache_io"],
        "sweep.warm_s": sweep.get("warm_s", 0.0),
        "sweep.cache_hit_rate": sweep.get("cache_hit_rate", 0.0),
        "sweep.point_s.p50": sweep.get("point_s.p50", 0.0),
        "sweep.point_s.p75": sweep.get("point_s.p75", 0.0),
        "fig6_speedup_err": (
            wl.fig6_speedup_err(geomean) if geomean is not None else 0.0
        ),
    }
    # The loop block goes away with fast-forward; the metric then reads
    # as absent rather than failing the run.
    skip_frac = _ratio(s["skipped"], cycles) if s["has_loop"] else None
    return {"layers": metrics, "skip_frac": skip_frac}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "profiled"),
                        required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    start = perf_counter()
    import repro  # noqa: F401  (the fresh interpreter's import cost)
    import repro.cmp  # noqa: F401
    import repro.sweep  # noqa: F401
    import_s = perf_counter() - start

    spans = None
    if args.mode == "traced":
        from repro.cmp import CmpConfig, CmpSystem

        from layers import LayerSpans

        # Load the network classes CmpSystem imports lazily, so the
        # spans can patch them, then start from a clean heap.
        for kind in wl.network_kinds(args.workload):
            CmpSystem(CmpConfig(num_nodes=16, network=kind, seed=args.seed))
        gc.collect()
        spans = LayerSpans()
        spans.install()

    if args.workload == wl.SWEEP:
        def run():
            return run_sweep_workload(args.seed, args.work_dir, spans)
    else:
        def run():
            return run_single(args.workload, args.seed, spans)

    if args.mode == "profiled":
        from repro.obs import profiling

        with profiling():
            out = run()
    else:
        out = run()

    if spans is not None:
        out.update(layer_metrics(spans, out))
    del out["results"]
    out["import_s"] = import_s
    out["peak_mem_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
