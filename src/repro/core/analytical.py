"""The paper's analytical models of collision behaviour.

Three results from §4.3 are implemented here, each used for early design
decisions before touching the cycle-level simulator (the paper validates
the same methodology: "experimental results agree well with the trend of
theoretical calculations"):

1. :func:`collision_probability` — Figure 3's closed form.  With ``N``
   nodes each transmitting with probability ``p`` per slot to a uniform
   random destination, and ``R`` receivers per node statically shared by
   ``n = (N-1)/R`` senders each, the per-node collision probability is::

       P_coll = 1 - [ (1-q)^n + n q (1-q)^(n-1) ]^R,   q = p/(N-1)

2. :func:`resolution_delay` — Figure 4's numerical model: the expected
   collision-resolution delay of a meta packet under the exponential
   back-off policy (window ``W * B^(r-1)``), including the 2-cycle
   confirmation latency and a background transmission rate ``G``.
   Like the paper we evaluate it numerically (a vectorized Monte-Carlo
   over the abstract slotted channel — no protocol machinery involved).

3. :func:`optimal_meta_bandwidth` — the §4.3.1 bandwidth-allocation
   model ``C1/B_M + C2/B_M^2 + C3/(1-B_M) + C4/(1-B_M)^2`` whose
   minimum (with the paper's workload constants) sits at B_M ~ 0.285,
   motivating the 3-VCSEL meta / 6-VCSEL data split.

:func:`pathological_expected_retries` reproduces the §4.3.2 worst-case
numbers (63 simultaneous senders): ~8.2e10 expected retries with a fixed
window of 3, versus tens of retries with exponential back-off.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "collision_probability",
    "resolution_delay",
    "optimal_meta_bandwidth",
    "bandwidth_latency",
    "pathological_expected_retries",
    "simulate_burst_resolution",
    "DEFAULT_BANDWIDTH_CONSTANTS",
]


def collision_probability(p: float, num_nodes: int = 16, receivers: int = 2) -> float:
    """Per-node, per-slot collision probability (Figure 3's equation).

    Parameters
    ----------
    p:
        Transmission probability of each node per slot.
    num_nodes:
        N; the result depends on it only weakly (as the paper notes).
    receivers:
        R, receivers per node per lane; senders are statically
        partitioned, ``n = (N-1)/R`` sharing each receiver.

    >>> collision_probability(0.0) == 0.0
    True
    >>> collision_probability(0.2, 16, 2) > collision_probability(0.2, 16, 4)
    True
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"transmission probability out of [0,1]: {p}")
    if num_nodes < 3:
        raise ValueError(f"need at least 3 nodes: {num_nodes}")
    if receivers < 1:
        raise ValueError(f"need at least 1 receiver: {receivers}")
    n = (num_nodes - 1) / receivers
    q = p / (num_nodes - 1)
    no_collision_one_receiver = (1 - q) ** n + n * q * (1 - q) ** (n - 1)
    # Clamp: at tiny p the subtraction can round to -1e-16.
    return min(1.0, max(0.0, 1.0 - no_collision_one_receiver**receivers))


def normalized_collision_probability(
    p: float, num_nodes: int = 16, receivers: int = 2
) -> float:
    """Collision probability normalised to ``p`` — Figure 3's y-axis."""
    if p <= 0.0:
        return 0.0
    return collision_probability(p, num_nodes, receivers) / p


def monte_carlo_collision_probability(
    p: float,
    num_nodes: int = 16,
    receivers: int = 2,
    trials: int = 50_000,
    seed: int = 17,
) -> float:
    """Monte-Carlo estimate of the Figure 3 channel (paper §7.3).

    The paper validates its receiver-count decision three ways —
    closed form, Monte Carlo, and detailed simulation; this is the
    middle tier: draw one slot at a time (every node transmits with
    probability ``p`` to a uniform random peer; senders are statically
    partitioned over the receivers by rank) and count slots in which
    some receiver of node 0 sees more than one beam.

    >>> abs(monte_carlo_collision_probability(0.15)
    ...     - collision_probability(0.15)) < 0.005
    True
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"transmission probability out of [0,1]: {p}")
    if num_nodes < 3 or receivers < 1:
        raise ValueError("need N >= 3 and R >= 1")
    rng = np.random.default_rng(seed)
    n = num_nodes
    # Senders 1..N-1 aimed at node 0; rank of sender s is s - 1.
    sender_receiver = (np.arange(1, n) - 1) % receivers
    collisions = 0
    chunk = 10_000
    remaining = trials
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        sending = rng.random((batch, n - 1)) < p
        # Each sending node picks a uniform destination among the other
        # N-1 nodes; it targets node 0 with probability 1/(N-1).
        targets_zero = sending & (rng.random((batch, n - 1)) < 1.0 / (n - 1))
        for r in range(receivers):
            hits = targets_zero[:, sender_receiver == r].sum(axis=1)
            collisions += int(np.count_nonzero(hits > 1))
    # A slot may collide on several receivers; counting per receiver
    # slightly overestimates the per-node event rate, matching the
    # closed form's independent-receiver approximation.
    return collisions / trials


# -- Figure 4: collision-resolution delay ------------------------------------


def _draw_backoff_slots(
    rng: np.random.Generator, retries: np.ndarray, start_window: float, base: float
) -> np.ndarray:
    """Vectorized back-off draw: slot offsets for trials at given retry counts.

    Retry ``r`` (1-based) draws uniformly from ``{1 .. ceil(W * B^(r-1))}``.
    """
    windows = np.ceil(start_window * base ** (retries - 1)).astype(np.int64)
    windows = np.maximum(windows, 1)
    return 1 + (rng.random(len(windows)) * windows).astype(np.int64)


def resolution_delay(
    start_window: float,
    base: float,
    background_rate: float = 0.01,
    num_colliders: int = 2,
    slot_cycles: int = 2,
    confirmation_delay: int = 2,
    trials: int = 20_000,
    seed: int = 1234,
    max_rounds: int = 200,
) -> float:
    """Expected collision-resolution delay of a tagged meta packet, cycles.

    The model (matching the paper's numerical computation): a tagged
    packet just collided with ``num_colliders - 1`` peers; everyone
    detects the collision ``confirmation_delay`` cycles after the failed
    slot, then retries in a random slot of its (growing) back-off
    window.  In every slot, a fresh *background* packet also contends
    with probability ``background_rate`` (regular transmission by other
    nodes, G in Figure 4).  The delay is counted from the end of the
    collided slot to the start of the tagged packet's successful slot.

    Returns the mean over ``trials`` Monte-Carlo trials.  For
    ``start_window=2.7, base=1.1`` this lands near the paper's computed
    7.26 cycles.
    """
    if start_window < 1.0:
        raise ValueError(f"start window must be >= 1 slot: {start_window}")
    if base < 1.0:
        raise ValueError(f"back-off base must be >= 1: {base}")
    if num_colliders < 2:
        raise ValueError(f"a collision needs >= 2 senders: {num_colliders}")
    if not 0.0 <= background_rate < 1.0:
        raise ValueError(f"background rate out of [0,1): {background_rate}")

    rng = np.random.default_rng(seed)
    # Per-trial state, all in *slots* relative to the collision slot end.
    # ready[t, s] = absolute slot at which sender s of trial t next transmits.
    detect_slots = int(math.ceil(confirmation_delay / slot_cycles))
    retries = np.ones((trials, num_colliders), dtype=np.int64)
    next_tx = np.empty((trials, num_colliders), dtype=np.int64)
    for s in range(num_colliders):
        next_tx[:, s] = detect_slots + _draw_backoff_slots(
            rng, retries[:, s], start_window, base
        )

    resolved = np.full(trials, -1, dtype=np.int64)  # tagged success slot
    active = np.ones(trials, dtype=bool)            # tagged not yet through
    alive = np.ones((trials, num_colliders), dtype=bool)

    for _ in range(max_rounds):
        if not active.any():
            break
        # The tagged sender is column 0.  Find, per active trial, the slot
        # at which the tagged sender transmits next, and who else hits it.
        tagged_slot = next_tx[:, 0]
        same_slot = alive & (next_tx == tagged_slot[:, None])
        competitors = same_slot.sum(axis=1) - 1  # peers in the tagged slot
        background = rng.random(trials) < background_rate
        success = active & (competitors == 0) & ~background

        resolved[success] = tagged_slot[success]
        active &= ~success

        # Everyone who transmitted in the tagged slot and failed backs off
        # again (including the tagged sender).  Peers who transmitted in
        # *other* slots are resolved independently: approximate by letting
        # them succeed and leave with probability (1 - background_rate).
        failed_here = same_slot & active[:, None]
        retries = retries + failed_here
        redraw = detect_slots + _draw_backoff_slots(
            rng, retries.reshape(-1), start_window, base
        ).reshape(trials, num_colliders)
        next_tx = np.where(failed_here, tagged_slot[:, None] + redraw, next_tx)

        elsewhere = alive & ~same_slot & (next_tx <= tagged_slot[:, None])
        leaves = elsewhere & (rng.random((trials, num_colliders)) >= background_rate)
        alive &= ~leaves
        retransmit = elsewhere & ~leaves
        retries = retries + retransmit
        redraw2 = detect_slots + _draw_backoff_slots(
            rng, retries.reshape(-1), start_window, base
        ).reshape(trials, num_colliders)
        next_tx = np.where(retransmit, next_tx + redraw2, next_tx)

    # Unresolved trials (beyond max_rounds) are rare; clamp to last slot seen.
    resolved = np.where(resolved < 0, next_tx[:, 0], resolved)
    return float(resolved.mean()) * slot_cycles


# -- Bandwidth allocation (B_M = 0.285) --------------------------------------

#: (C1, C2, C3, C4) of the paper's latency model, calibrated so the
#: optimum falls at the paper's B_M ~ 0.285.  C1/C2 weight meta-lane
#: serialization and collision-resolution terms, C3/C4 the data lane's
#: (data packets are 5x longer and dominate the critical path of misses).
DEFAULT_BANDWIDTH_CONSTANTS = (1.0, 0.05, 6.0, 0.9)


def bandwidth_latency(
    meta_fraction: float,
    constants: tuple[float, float, float, float] = DEFAULT_BANDWIDTH_CONSTANTS,
) -> float:
    """§4.3.1 latency model: C1/B + C2/B^2 + C3/(1-B) + C4/(1-B)^2."""
    if not 0.0 < meta_fraction < 1.0:
        raise ValueError(f"meta bandwidth fraction must be in (0,1): {meta_fraction}")
    c1, c2, c3, c4 = constants
    b = meta_fraction
    return c1 / b + c2 / b**2 + c3 / (1 - b) + c4 / (1 - b) ** 2


def bandwidth_constants(
    meta_packets: int,
    data_packets: int,
    meta_slot: int = 2,
    data_slot: int = 5,
    meta_criticality: float = 1.0,
    data_criticality: float = 5.0,
    collision_weight: float = 0.1,
) -> tuple[float, float, float, float]:
    """Derive the latency-model constants from a measured packet mix.

    The paper notes C1..C4 are "a function of statistics related to
    application behavior" (packet composition, critical-path shares,
    expected retries) "that can be calculated analytically".  This
    derivation weighs each lane by traffic share x serialization length
    x critical-path weight, with the quadratic collision terms scaled by
    ``collision_weight`` x slot length (longer packets take longer to
    resolve):

        C1 = w_m s_m k_m          C2 = cw w_m s_m^2 k_m
        C3 = w_d s_d k_d          C4 = cw w_d s_d^2 k_d

    ``data_criticality`` defaults to 5: a blocked load waits out the
    whole data reply, while request/ack legs overlap other work.  With
    the measured ~2:1 meta:data mix of the 16-node system, these
    defaults land the optimum at the paper's B_M ~ 0.285.
    """
    if meta_packets < 0 or data_packets < 0 or meta_packets + data_packets == 0:
        raise ValueError("need a non-empty packet mix")
    total = meta_packets + data_packets
    w_meta = meta_packets / total
    w_data = data_packets / total
    c1 = w_meta * meta_slot * meta_criticality
    c2 = collision_weight * w_meta * meta_slot**2 * meta_criticality
    c3 = w_data * data_slot * data_criticality
    c4 = collision_weight * w_data * data_slot**2 * data_criticality
    return (c1, c2, c3, c4)


def optimal_meta_bandwidth(
    constants: tuple[float, float, float, float] = DEFAULT_BANDWIDTH_CONSTANTS,
) -> float:
    """The B_M minimising :func:`bandwidth_latency` (paper: ~0.285).

    >>> 0.25 < optimal_meta_bandwidth() < 0.32
    True
    """
    from scipy.optimize import minimize_scalar  # deferred: scipy is slow to import

    result = minimize_scalar(
        lambda b: bandwidth_latency(b, constants),
        bounds=(1e-3, 1 - 1e-3),
        method="bounded",
    )
    return float(result.x)


# -- §4.3.2 pathological burst ------------------------------------------------


def pathological_expected_retries(num_senders: int, window: int) -> float:
    """Expected retries for one packet with a *fixed* back-off window.

    With ``k`` senders each picking uniformly among ``w`` slots every
    round, a tagged sender gets through a round with probability
    ``(1 - 1/w)^(k-1)`` (no peer picks its slot), so the expected number
    of retries is its reciprocal.  For the paper's 64-node burst
    (k=63, w=3) this is ~8.2e10 — the virtual livelock motivating
    exponential back-off.

    >>> pathological_expected_retries(63, 3) > 1e10
    True
    """
    if num_senders < 2:
        raise ValueError(f"need >= 2 senders: {num_senders}")
    if window < 2:
        raise ValueError(f"window must be >= 2 slots: {window}")
    p_alone = (1.0 - 1.0 / window) ** (num_senders - 1)
    return 1.0 / p_alone


def simulate_burst_resolution(
    num_senders: int,
    start_window: float,
    base: float,
    slot_cycles: int = 2,
    confirmation_delay: int = 2,
    trials: int = 200,
    seed: int = 99,
    max_rounds: int = 10_000,
) -> tuple[float, float]:
    """Monte-Carlo of the §4.3.2 burst: ``num_senders`` packets at once.

    All senders target the same receiver simultaneously and resolve via
    exponential back-off.  Returns ``(mean retries, mean cycles)`` until
    the *first* packet gets through — the paper's "about 26 retries
    (416 cycles)" for B=1.1 and "about 5 retries (199 cycles)" for B=2
    in a 64-node system.
    """
    if num_senders < 2:
        raise ValueError(f"need >= 2 senders: {num_senders}")
    rng = np.random.default_rng(seed)
    detect_slots = int(math.ceil(confirmation_delay / slot_cycles))

    total_retries = 0.0
    total_slots = 0.0
    for _ in range(trials):
        retries = np.ones(num_senders, dtype=np.int64)
        next_tx = detect_slots + _draw_backoff_slots(
            rng, retries, start_window, base
        )
        for _round in range(max_rounds):
            # Only the earliest occupied slot is final: senders backing
            # off from it can only land later, so its membership cannot
            # grow.  Process slots strictly in time order.
            earliest = next_tx.min()
            members = np.flatnonzero(next_tx == earliest)
            if len(members) == 1:
                winner = int(members[0])
                total_retries += float(retries[winner])
                total_slots += float(earliest)
                break
            # Collision in the earliest slot: everyone there backs off.
            retries[members] += 1
            redraw = detect_slots + _draw_backoff_slots(
                rng, retries[members], start_window, base
            )
            next_tx[members] = earliest + redraw
        else:  # pragma: no cover - requires pathological parameters
            total_retries += float(retries.max())
            total_slots += float(next_tx.min())
    return total_retries / trials, (total_slots / trials) * slot_cycles
