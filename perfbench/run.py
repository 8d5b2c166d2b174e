"""The repository benchmark: pinned paper workloads, timed from outside.

Run from the repository root::

    python3 perfbench/run.py --workload fsoi64-mp3d --seed 0 --seconds 45 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``fsoi64-mp3d``,
``mesh64-ws`` and ``fig6-sweep16``.  Each repetition runs in a fresh
interpreter (``rep.py``), one at a time; another starts while it is
expected to end within ``--seconds``, and every value reported is the
median over the repetitions.

``--trace 0`` times at least two untraced repetitions and reports the
end-to-end metrics.  ``--trace 1`` interleaves untraced, traced and
profiled repetitions, at least one of each, and reports the per-layer
metrics of the traced ones, with the tracing and profiler overheads;
its human-readable report shows the end-to-end metrics too.  Metric
names and units come from ``BENCHMARK.json``.

Output check: every point's result digest must repeat exactly across
repetitions, traced and profiled ones included.  On the pinned seed
(``pinned.json``, recorded at the commit that introduced the benchmark)
the digests and the Fig 6 speedup geomean must also equal the pinned
values; any other seed is held out and only the repeat check applies.
A point that raises, times out or fails the check counts as failed, and
the command then exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"
#: No repetition starts after this many seconds, so that a run, hung
#: repetitions included, ends within three minutes.
BUDGET_S = 160.0


def child_env() -> dict:
    """The simulator's default configuration, one thread, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


@contextmanager
def scratch_dir():
    """A private directory under the checkout, removed afterwards."""
    path = ROOT / ".perfbench-work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass  # another benchmark run is still using it


def run_rep(workload: str, seed: int, mode: str, work_dir: Path,
            timeout: float) -> tuple[dict | None, str | None]:
    """One repetition in a fresh interpreter: ``(result, error)``."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode} repetition timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"{mode} repetition exited {proc.returncode}: " + " | ".join(tail)
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"{mode} repetition printed no result line"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work_dir: Path) -> tuple[list, str | None]:
    """Repetitions for about ``seconds``: ``([(mode, result)], error)``.

    Measuring stops at the first repetition that fails to report.
    """
    modes = ("plain", "traced", "profiled") if trace else ("plain",)
    min_rounds = 1 if trace else 2
    reps = []
    start = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        for mode in modes:
            left = BUDGET_S + 15.0 - (perf_counter() - start)
            result, error = run_rep(workload, seed, mode, work_dir, left)
            if error is not None:
                return reps, error
            reps.append((mode, result))
        rounds += 1
        # Start another round only if it should end by the deadline.
        now = perf_counter()
        next_end = (now - start) + (now - round_start)
        if next_end > BUDGET_S or (rounds >= min_rounds and next_end > seconds):
            break
    return reps, None


def check(workload: str, seed: int, reps: list) -> tuple[int, int, list[str]]:
    """Output check over every repetition: ``(attempted, failed, messages)``."""
    pinned = json.loads(PINNED.read_text())
    expected: dict = {}
    if seed == pinned["seed"]:
        expected = dict(pinned["workloads"][workload]["digests"])
    attempted, failed, messages = 0, 0, []
    for mode, result in reps:
        seen = set()
        for label, result_digest, error in result["points"]:
            seen.add(label)
            attempted += 1
            reference = expected.setdefault(label, result_digest)
            if error is None and result_digest != reference:
                error = "result digest differs from " + (
                    "the pinned one" if seed == pinned["seed"]
                    else "an earlier repetition"
                )
            if error is not None:
                failed += 1
                messages.append(f"{mode} {label}: {error}")
        missing = set(expected) - seen
        attempted += len(missing)
        failed += len(missing)
        messages += [f"{mode} {label}: missing" for label in sorted(missing)]
    if workload == wl.SWEEP and seed == pinned["seed"]:
        want = pinned["workloads"][workload]["fig6_geomean"]
        for mode, result in reps:
            if result["fig6_geomean"] != want:
                failed += 1
                messages.append(
                    f"{mode}: Fig 6 geomean {result['fig6_geomean']} != "
                    f"pinned {want}"
                )
    return attempted, failed, messages


def median_of(reps: list, mode: str, key: str) -> float:
    return statistics.median(r[key] for m, r in reps if m == mode)


def end_to_end(reps: list) -> dict:
    """Median of each end-to-end metric over the untraced repetitions."""
    return {
        key: median_of(reps, "plain", key)
        for key in ("wall_s", "sim_cycles_per_s", "setup_s", "peak_mem_mb")
    }


def per_layer(reps: list) -> dict:
    """Median of each per-layer metric over the traced repetitions."""
    traced = [r["layers"] for m, r in reps if m == "traced"]
    metrics = {
        name: statistics.median(layers[name] for layers in traced)
        for name in traced[0]
    }
    metrics["host.import_s"] = statistics.median(r["import_s"] for _, r in reps)
    plain_wall = median_of(reps, "plain", "wall_s")
    metrics["obs.bench_trace_overhead"] = (
        median_of(reps, "traced", "wall_s") / plain_wall
    )
    metrics["obs.profiler_overhead"] = (
        median_of(reps, "profiled", "wall_s") / plain_wall
    )
    return metrics


def render(workload: str, seed: int, reps: list, spec: dict,
           failed: int, attempted: int) -> None:
    """The human-readable report printed before the result line."""
    counts: dict[str, int] = {}
    for mode, _ in reps:
        counts[mode] = counts.get(mode, 0) + 1
    print(f"workload {workload}  seed {seed}  repetitions "
          + ", ".join(f"{n} {m}" for m, n in counts.items()))
    print("  end to end, untraced: median [min, max]")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r[name] for m, r in reps if m == "plain"]
        print(f"  {name:28s} {statistics.median(values):>14.6g} "
              f"[{min(values):.6g}, {max(values):.6g}] {metric['unit']}")
    print(f"  {'failed_frac':28s} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} points)")
    geomeans = {r.get("fig6_geomean") for _, r in reps} - {None}
    for geomean in geomeans:
        print(f"  {'fig6_speedup_err':28s} {wl.fig6_speedup_err(geomean):>14.6g}"
              f" ratio (sim; FSOI/mesh IPC geomean {geomean:.4f}, "
              f"paper {wl.PAPER_FIG6_SPEEDUP})")
    if not any(mode == "traced" for mode, _ in reps):
        return
    print("  per layer, traced: median")
    layers = per_layer(reps)
    for metric in spec["per_layer"]:
        name = metric["name"]
        print(f"  {name:28s} {layers[name]:>14.6g} {metric['unit']}")
    skip = next(r["skip_frac"] for m, r in reps if m == "traced")
    text = "absent" if skip is None else f"{skip:.6g}"
    print(f"  {'cmp.skip_frac':28s} {text:>14s} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    with scratch_dir() as work_dir:
        reps, error = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace), work_dir)
    if error is not None:
        print(error, file=sys.stderr)
    if not any(mode == "plain" for mode, _ in reps) or (
        args.trace and not any(mode == "traced" for mode, _ in reps)
    ):
        return 1

    attempted, failed, messages = check(args.workload, args.seed, reps)
    if error is not None:
        per_rep = len(reps[0][1]["points"])
        attempted += per_rep
        failed += per_rep
    for message in messages:
        print(message, file=sys.stderr)
    render(args.workload, args.seed, reps, spec, failed, attempted)
    measured = per_layer(reps) if args.trace else end_to_end(reps)
    group = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in group
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
