"""The three benchmark workloads, built from the seed alone.

Each workload is a closed loop with one caller: one simulation at a
time, in one process, no threads.  The modelled caches start warm (the
``warm_start`` default) and statistics count from cycle 0.  The
program receives only the generated configurations; ``seed`` is the
benchmark's ``--seed`` and becomes ``CmpConfig.seed`` (and the sweep's
single ``seeds`` value).

This module imports ``repro`` only inside its functions, so the parent
benchmark process can read the workload names without the simulator.
"""

from __future__ import annotations

#: 64-node single runs: (app, network, simulated cycles).
SINGLE_RUNS = {
    # Fig 7 setting: mp3d has the highest miss rate and half of its
    # misses are coherence misses, so FSOI transport and coherence
    # carry most of the host time; no mesh code runs.
    "fsoi64-mp3d": ("mp", "fsoi", 4000),
    # The bypass case for FSOI/coherence changes: compute-bound
    # water-spatial over the mesh, where the cores phase and the mesh
    # routers dominate and no FSOI code runs.
    "mesh64-ws": ("ws", "mesh", 4000),
}
SINGLE_NODES = 64

#: The Fig 6 subset at 16 nodes: many short points, so per-point setup,
#: GC, the sweep cache and the fixed per-cycle loop cost weigh most.
SWEEP = "fig6-sweep16"
SWEEP_APPS = ("ba", "lu", "oc", "ro", "rx", "ws", "em", "mp")
SWEEP_NETWORKS = ("fsoi", "mesh", "l0", "lr1", "lr2")
SWEEP_NODES = 16
SWEEP_CYCLES = 6000
#: Paper's Fig 6 FSOI-over-mesh IPC speedup geomean at 16 nodes.
PAPER_FIG6_SPEEDUP = 1.36

WORKLOADS = (*SINGLE_RUNS, SWEEP)


def fig6_speedup_err(geomean: float) -> float:
    """Relative error of a Fig 6 speedup geomean against the paper's."""
    return abs(geomean - PAPER_FIG6_SPEEDUP) / PAPER_FIG6_SPEEDUP


def resilience_plan():
    """The mixed fault plan of the golden-resilience snapshot test.

    A data-lane brown-out, a chip-wide thermal droop, a meta error burst
    and sustained confirmation drops, with no give-up bound.
    """
    from repro.faults import (
        ConfirmationDrop,
        ErrorBurst,
        FaultPlan,
        LaneFault,
        ThermalDroop,
    )

    return FaultPlan(
        label="golden-resilience",
        lane_faults=(LaneFault(5, "data", start=400, end=1400),),
        droops=(ThermalDroop(3.0, start=600, end=2000),),
        bursts=(ErrorBurst(0.02, lane="meta", start=800, end=1600),),
        confirmation_drops=(ConfirmationDrop(0.05),),
        seed=7,
    )


def single_config(workload: str, seed: int):
    """``(CmpConfig, cycles)`` of a 64-node single-run workload."""
    from repro.cmp import CmpConfig

    app, network, cycles = SINGLE_RUNS[workload]
    config = CmpConfig(
        num_nodes=SINGLE_NODES, app=app, network=network, seed=seed,
        faults=None,
    )
    return config, cycles


def sweep_spec(seed: int):
    """The 48-point Fig 6 grid: 40 clean points plus 8 faulted FSOI ones."""
    from repro.faults import FaultPlan
    from repro.sweep import SweepSpec

    return SweepSpec(
        apps=SWEEP_APPS,
        networks=SWEEP_NETWORKS,
        nodes=(SWEEP_NODES,),
        seeds=(seed,),
        cycles=SWEEP_CYCLES,
        faults=(FaultPlan(), resilience_plan()),
    )


def network_kinds(workload: str) -> tuple[str, ...]:
    """The network kinds a workload builds."""
    if workload == SWEEP:
        return SWEEP_NETWORKS
    return (SINGLE_RUNS[workload][1],)
