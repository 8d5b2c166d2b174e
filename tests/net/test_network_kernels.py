"""Property tests for the shared network kernels.

Each kernel in :mod:`repro.net.kernels` is checked against a scalar
re-derivation written directly from its contract, so a regression
points at the broken primitive instead of a diverged end-to-end run
(the engine suites — ``tests/cmp/test_network_vector_equivalence.py`` —
only say *that* something diverged).  The round-robin kernel doubles as
the specification oracle for the mesh engine's fused inline
arbitration, so it is additionally pinned against the reference
router's literal ``sorted``-based pick.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.routing import Port, xy_route
from repro.net.kernels import (
    NEVER,
    allocatable_vc_mask,
    due_indices,
    earliest,
    rr_pick,
    xy_route_codes,
)

#: Readiness values: simulated cycles plus the idle sentinel.
ready_values = st.one_of(
    st.integers(min_value=0, max_value=1_000_000), st.just(NEVER)
)
ready_arrays = st.lists(ready_values, min_size=0, max_size=40).map(
    lambda values: np.asarray(values, dtype=np.int64)
)


class TestDueIndices:
    @settings(deadline=None)
    @given(ready=ready_arrays, cycle=st.integers(min_value=0, max_value=1_000_000))
    def test_matches_scalar_scan(self, ready, cycle):
        expected = [i for i, r in enumerate(ready.tolist()) if r <= cycle]
        assert due_indices(ready, cycle).tolist() == expected

    @settings(deadline=None)
    @given(ready=ready_arrays, cycle=st.integers(min_value=0, max_value=1_000_000))
    def test_ascending_order(self, ready, cycle):
        # Load-bearing: the worklists must replay the reference 0..N-1
        # sweeps in index order.
        due = due_indices(ready, cycle).tolist()
        assert due == sorted(due)

    def test_sentinel_is_never_due(self):
        ready = np.asarray([NEVER, 0, NEVER], dtype=np.int64)
        assert due_indices(ready, 10**9).tolist() == [1]


class TestEarliest:
    @settings(deadline=None)
    @given(ready=ready_arrays)
    def test_matches_scalar_min(self, ready):
        values = ready.tolist()
        assert earliest(ready) == (min(values) if values else NEVER)

    def test_empty_is_never(self):
        assert earliest(np.asarray([], dtype=np.int64)) == NEVER


class TestAllocatableVcMask:
    @settings(deadline=None)
    @given(
        data=st.data(),
        nodes=st.integers(min_value=1, max_value=12),
        vcs=st.integers(min_value=1, max_value=4),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def test_matches_scalar_allocation_scan(self, data, nodes, vcs, capacity):
        owner_busy = np.asarray(
            data.draw(
                st.lists(
                    st.lists(st.booleans(), min_size=vcs, max_size=vcs),
                    min_size=nodes, max_size=nodes,
                )
            ),
            dtype=bool,
        )
        occupancy = np.asarray(
            data.draw(
                st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=capacity),
                        min_size=vcs, max_size=vcs,
                    ),
                    min_size=nodes, max_size=nodes,
                )
            ),
            dtype=np.int64,
        )
        # A fresh head flit needs a VC that is both unallocated and has
        # a credit — MeshNetwork._allocate_injection_vc's scan.
        expected = [
            any(
                not owner_busy[node][vc] and occupancy[node][vc] < capacity
                for vc in range(vcs)
            )
            for node in range(nodes)
        ]
        assert allocatable_vc_mask(owner_busy, occupancy, capacity).tolist() \
            == expected


class TestXyRouteCodes:
    @settings(deadline=None)
    @given(
        data=st.data(),
        side=st.integers(min_value=2, max_value=8),
        count=st.integers(min_value=1, max_value=32),
    )
    def test_matches_scalar_xy_route(self, data, side, count):
        num_nodes = side * side
        nodes = np.asarray(
            data.draw(st.lists(
                st.integers(min_value=0, max_value=num_nodes - 1),
                min_size=count, max_size=count,
            )),
            dtype=np.int64,
        )
        dsts = np.asarray(
            data.draw(st.lists(
                st.integers(min_value=0, max_value=num_nodes - 1),
                min_size=count, max_size=count,
            )),
            dtype=np.int64,
        )
        codes = xy_route_codes(nodes, dsts, side)
        for node, dst, code in zip(nodes.tolist(), dsts.tolist(),
                                   codes.tolist()):
            assert Port(code) is xy_route(node, dst, side)

    def test_x_priority_over_y(self):
        # Dimension order: X disagreement routes EAST/WEST even when Y
        # also disagrees.
        codes = xy_route_codes(
            np.asarray([0], dtype=np.int64),
            np.asarray([15], dtype=np.int64),  # (3, 3) from (0, 0) on 4x4
            4,
        )
        assert Port(codes[0]) is Port.EAST


def reference_rr_pick(indices, start):
    """The reference router's arbitration, verbatim: stable sort by
    cyclic distance from the arbiter pointer, winner first."""
    order = sorted(range(len(indices)),
                   key=lambda pos: (indices[pos] - start) % 1000)
    return order[0]


class TestRrPick:
    @settings(deadline=None)
    @given(
        data=st.data(),
        count=st.integers(min_value=1, max_value=20),
        start=st.integers(min_value=0, max_value=999),
    )
    def test_matches_reference_sorted_pick(self, data, count, start):
        # Arbitration indices are distinct by construction
        # (in_port * num_vcs + vc + 1 is injective).
        indices = data.draw(st.lists(
            st.integers(min_value=1, max_value=999),
            min_size=count, max_size=count, unique=True,
        ))
        assert rr_pick(indices, start) == reference_rr_pick(indices, start)

    @settings(deadline=None)
    @given(
        data=st.data(),
        count=st.integers(min_value=1, max_value=20),
        start=st.integers(min_value=0, max_value=999),
    )
    def test_winner_minimizes_cyclic_distance(self, data, count, start):
        indices = data.draw(st.lists(
            st.integers(min_value=1, max_value=999),
            min_size=count, max_size=count, unique=True,
        ))
        winner = rr_pick(indices, start)
        winner_key = (indices[winner] - start) % 1000
        assert all((index - start) % 1000 >= winner_key for index in indices)

    def test_pointer_update_gives_lowest_priority_to_winner(self):
        # After a grant the arbiter pointer moves to winner + 1, so an
        # immediate re-request from the same index loses to anyone else
        # — the property that makes the scheme fair.
        indices = [3, 7]
        winner = rr_pick(indices, start=0)
        assert indices[winner] == 3
        next_start = indices[winner] + 1
        assert indices[rr_pick(indices, next_start)] == 7
