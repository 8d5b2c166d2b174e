"""Tests for traffic generators and the application signatures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.core import OpKind
from repro.cpu.sync import SyncManager
from repro.workloads.splash2 import (
    APPLICATIONS,
    AppSignature,
    AppWorkload,
    WarmLines,
    signature,
    warm_lines,
)
from repro.workloads.traffic import (
    BernoulliTraffic,
    hotspot_pattern,
    transpose_pattern,
    uniform_pattern,
)


class TestPatterns:
    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=2**31))
    def test_uniform_never_self(self, src, seed):
        rng = np.random.default_rng(seed)
        dst = uniform_pattern(rng, src, 16)
        assert dst != src
        assert 0 <= dst < 16

    def test_uniform_covers_all_destinations(self):
        rng = np.random.default_rng(0)
        seen = {uniform_pattern(rng, 3, 8) for _ in range(500)}
        assert seen == set(range(8)) - {3}

    def test_hotspot_concentrates(self):
        rng = np.random.default_rng(1)
        pattern = hotspot_pattern(hotspot=2, fraction=0.5)
        hits = sum(pattern(rng, 0, 16) == 2 for _ in range(2000))
        assert 0.45 < hits / 2000 < 0.62  # 0.5 + uniform leakage

    def test_hotspot_node_itself_uniform(self):
        rng = np.random.default_rng(2)
        pattern = hotspot_pattern(hotspot=2, fraction=1.0)
        assert all(pattern(rng, 2, 16) != 2 for _ in range(100))

    def test_transpose(self):
        rng = np.random.default_rng(0)
        assert transpose_pattern(rng, 0, 16) == 15
        assert transpose_pattern(rng, 5, 16) == 10

    def test_hotspot_validates_fraction(self):
        with pytest.raises(ValueError):
            hotspot_pattern(fraction=1.5)


class TestBernoulliTraffic:
    def test_offers_only_on_slot_boundaries(self):
        traffic = BernoulliTraffic(p=1.0, slot_cycles=2)
        rng = np.random.default_rng(0)
        assert traffic.offers(rng, 1, 4) == []
        assert len(traffic.offers(rng, 2, 4)) == 4

    def test_rate_matches_p(self):
        traffic = BernoulliTraffic(p=0.25)
        rng = np.random.default_rng(3)
        offered = sum(
            len(traffic.offers(rng, cycle, 16)) for cycle in range(0, 2000, 2)
        )
        assert offered / (1000 * 16) == pytest.approx(0.25, abs=0.02)

    def test_data_fraction(self):
        from repro.net.packet import LaneKind

        traffic = BernoulliTraffic(p=1.0, data_fraction=0.3)
        rng = np.random.default_rng(4)
        packets = [
            p for cycle in range(0, 400, 2) for p in traffic.offers(rng, cycle, 8)
        ]
        data = sum(p.lane is LaneKind.DATA for p in packets)
        assert data / len(packets) == pytest.approx(0.3, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliTraffic(p=1.5)
        with pytest.raises(ValueError):
            BernoulliTraffic(p=0.5, data_fraction=-0.1)


class TestSignatures:
    def test_sixteen_applications(self):
        assert len(APPLICATIONS) == 16

    def test_paper_labels_present(self):
        for label in (
            "ba ch fmm fft lu oc ro rx ray ws em ilink ja mp sh tsp".split()
        ):
            assert label in APPLICATIONS

    def test_lookup_by_label(self):
        assert signature("oc").name == "ocean"

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            signature("nope")

    def test_miss_targets_span_paper_range(self):
        # §6: miss rates range 0.8%..15.6%, average 4.8%.
        def approx_miss(sig):
            private = 1 - sig.shared_fraction - sig.stream_fraction
            return (
                sig.shared_fraction * 0.9
                + sig.stream_fraction
                + private * sig.private_cold_fraction
            )

        misses = [approx_miss(sig) for sig in APPLICATIONS.values()]
        assert 0.005 < min(misses) < 0.02
        assert 0.10 < max(misses) < 0.20
        assert 0.03 < np.mean(misses) < 0.07

    def test_communication_ordering(self):
        # em3d and mp3d are the communication-heavy apps.
        assert signature("em").shared_fraction > signature("lu").shared_fraction
        assert signature("mp").shared_fraction > signature("ws").shared_fraction

    def test_sync_flags(self):
        assert signature("ba").has_sync
        assert signature("ray").lock_interval > 0
        assert signature("oc").barrier_interval > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AppSignature("bad", "bd", mem_fraction=1.5)
        with pytest.raises(ValueError):
            AppSignature("bad", "bd", shared_fraction=0.8, stream_fraction=0.4)
        with pytest.raises(ValueError):
            AppSignature("bad", "bd", hot_lines=0)


class TestAppWorkload:
    def make(self, label="ba", node=0):
        return AppWorkload(signature(label), node=node, num_nodes=16)

    def test_mem_fraction_observed(self):
        workload = self.make()
        rng = np.random.default_rng(0)
        ops = [workload.next_op(rng) for _ in range(20_000)]
        mem = sum(op.kind is OpKind.MEM for op in ops)
        assert mem / len(ops) == pytest.approx(
            signature("ba").mem_fraction, abs=0.02
        )

    def test_barrier_interval_respected(self):
        workload = self.make("oc")
        rng = np.random.default_rng(0)
        interval = signature("oc").barrier_interval
        ops = [workload.next_op(rng) for _ in range(interval * 2)]
        barriers = [i for i, op in enumerate(ops) if op.kind is OpKind.BARRIER]
        assert barriers == [interval - 1, 2 * interval - 1]

    def test_lock_ids_in_range(self):
        workload = self.make("ray")
        rng = np.random.default_rng(0)
        sig = signature("ray")
        locks = [
            op
            for op in (workload.next_op(rng) for _ in range(sig.lock_interval * 6))
            if op.kind is OpKind.LOCK
        ]
        assert locks
        assert all(0 <= op.lock_id < sig.lock_count for op in locks)
        assert all(op.hold_cycles == sig.lock_hold_cycles for op in locks)

    def test_private_regions_disjoint_across_nodes(self):
        a, b = self.make(node=0), self.make(node=1)
        assert set(a.reuse_lines()).isdisjoint(b.reuse_lines())

    def test_shared_pool_common(self):
        a, b = self.make(node=0), self.make(node=1)
        assert set(a.shared_lines()) == set(b.shared_lines())

    def test_stream_lines_never_repeat_soon(self):
        workload = self.make("rx")
        rng = np.random.default_rng(1)
        stream_lines = []
        for _ in range(50_000):
            op = workload.next_op(rng)
            if op.kind is OpKind.MEM and op.line >= 1 << 32 and op.line < 1 << 38:
                stream_lines.append(op.line)
        assert len(stream_lines) > 100
        assert len(set(stream_lines)) == len(stream_lines)

    def test_shared_write_fraction_lower_than_private(self):
        workload = self.make("em")
        rng = np.random.default_rng(2)
        shared_writes = private_writes = shared_total = private_total = 0
        shared_base = 1 << 38
        for _ in range(100_000):
            op = workload.next_op(rng)
            if op.kind is not OpKind.MEM:
                continue
            if op.line >= shared_base:
                shared_total += 1
                shared_writes += op.is_write
            elif op.line < 1 << 32:
                private_total += 1
                private_writes += op.is_write
        assert shared_writes / shared_total < private_writes / private_total


def materialized_warm_set(label: str, num_nodes: int) -> set[int]:
    """The warm set as a plain set: reuse, shared and sync lines minus hot."""
    sig = signature(label)
    workloads = [AppWorkload(sig, node, num_nodes) for node in range(num_nodes)]
    lines: set[int] = set()
    for workload in workloads:
        lines.update(workload.reuse_lines())
    lines.update(workloads[0].shared_lines())
    lines.add(SyncManager.barrier_line())
    lines.update(SyncManager.lock_line(i) for i in range(sig.lock_count))
    for workload in workloads:
        lines.difference_update(workload.reuse_lines()[: sig.hot_lines])
    return lines


class TestWarmLines:
    @pytest.mark.parametrize("num_nodes", [16, 64])
    @pytest.mark.parametrize("label", ["ro", "mp"])
    def test_membership_matches_materialized_set(self, label, num_nodes):
        expected = materialized_warm_set(label, num_nodes)
        warm = warm_lines(signature(label), num_nodes)
        assert len(warm) == len(expected)
        assert all(line in warm for line in expected)
        # Both ends of every contiguous run, one past each end, and lines
        # in every node's stream region.
        ordered = sorted(expected)
        probes = {ordered[0] - 1, ordered[-1] + 1}
        for before, after in zip(ordered, ordered[1:]):
            if after != before + 1:
                probes.update((before, before + 1, after - 1, after))
        for node in range(num_nodes + 1):
            stream = AppWorkload(signature(label), node, num_nodes)._stream_base
            probes.update((stream - 1, stream, stream + 1))
        probes.update((0, 1 << 22, 1 << 32, 1 << 38, 1 << 40))
        assert {line for line in probes if line in warm} == probes & expected

    def test_consumed_line_is_no_longer_warm(self):
        warm = warm_lines(signature("ba"), 16)
        line = next(iter(materialized_warm_set("ba", 16)))
        size = len(warm)
        warm.discard(line)
        assert line not in warm
        assert len(warm) == size - 1
        warm.discard(line)
        warm.discard(0)  # never a member
        assert len(warm) == size - 1

    def test_window_must_fit_the_stride(self):
        with pytest.raises(ValueError):
            WarmLines(0, 8, 2, range(4, 9))
