"""Shared columnar kernels for the vectorized network engines.

The mesh and FSOI vector engines (``repro.mesh.vector``,
``repro.core.vector``) keep per-entity readiness in numpy arrays and
derive their per-cycle worklists from bulk operations over them.  The
operations live here as pure functions so the property suite
(``tests/net/test_network_kernels.py``) can check each one against a
scalar re-derivation in isolation — a
regression points at the broken primitive instead of a diverged
end-to-end run, mirroring ``repro.cpu.vector``'s kernel split.

Conventions: readiness arrays hold the earliest cycle an entity can act,
with :data:`NEVER` as the "no pending work" sentinel; all cycle values
are int64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NEVER",
    "allocatable_vc_mask",
    "due_indices",
    "earliest",
    "rr_pick",
    "xy_route_codes",
]

#: "No pending work" sentinel for readiness arrays.  Large enough that
#: no simulated cycle ever reaches it, small enough that int64 boundary
#: arithmetic on it cannot overflow.
NEVER = 1 << 62


def due_indices(ready: np.ndarray, cycle: int) -> np.ndarray:
    """Ascending indices of entries ready at or before ``cycle``.

    The ascending order is load-bearing: both engines' scalar reference
    loops visit entities in index order, and the worklist must replay
    that order exactly.
    """
    return np.nonzero(ready <= cycle)[0]


def earliest(ready: np.ndarray) -> int:
    """Minimum readiness horizon, or :data:`NEVER` for an empty array."""
    if ready.size == 0:
        return NEVER
    return int(ready.min())


def allocatable_vc_mask(
    owner_busy: np.ndarray, occupancy: np.ndarray, capacity: int
) -> np.ndarray:
    """Per-node mask: some VC is both unallocated and has a credit.

    ``owner_busy``/``occupancy`` are ``(nodes, vcs)`` slices of the mesh
    engine's columns (usually the LOCAL input port).  A fresh head flit
    needs a VC that is free (packet-granularity allocation) *and* has a
    buffer slot (credit), exactly
    :meth:`repro.mesh.network.MeshNetwork._allocate_injection_vc`.
    """
    return np.logical_and(~owner_busy, occupancy < capacity).any(axis=-1)


def xy_route_codes(nodes: np.ndarray, dsts: np.ndarray, side: int) -> np.ndarray:
    """Vectorized XY route computation (X fully, then Y).

    Returns :class:`repro.mesh.routing.Port` values as an int array;
    element-wise identical to :func:`repro.mesh.routing.xy_route`.  Used
    by the mesh engine's audit to cross-check every buffered packet's
    route column in one shot.
    """
    from repro.mesh.routing import Port

    x = nodes % side
    y = nodes // side
    dx = dsts % side
    dy = dsts // side
    codes = np.full(nodes.shape, Port.LOCAL.value, dtype=np.int64)
    codes[dy > y] = Port.SOUTH.value
    codes[dy < y] = Port.NORTH.value
    # X routing takes priority over Y (dimension order), so it is
    # written last and overwrites any Y decision where dx differs.
    codes[dx > x] = Port.EAST.value
    codes[dx < x] = Port.WEST.value
    return codes


def rr_pick(indices, start: int) -> int:
    """Round-robin arbitration: position of the winning requester.

    ``indices`` are the requesters' arbitration indices (distinct,
    ``in_port * num_vcs + vc + 1``); the winner minimizes the cyclic
    distance from the arbiter pointer ``start``.  Equivalent to the
    reference router's ``sorted(..., key=(index - start) % 1000)[0]``
    (the modulus only has to exceed the largest index) but O(n).
    """
    best = 0
    best_key = (indices[0] - start) % 1000
    for pos in range(1, len(indices)):
        key = (indices[pos] - start) % 1000
        if key < best_key:
            best = pos
            best_key = key
    return best
