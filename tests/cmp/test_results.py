"""Tests for result snapshots: traffic matrices and JSON persistence."""

import pytest

from repro.cmp import run_app
from repro.cmp.results import CmpResults


@pytest.fixture(scope="module")
def result():
    return run_app("ja", "fsoi", num_nodes=16, cycles=2500)


class TestTrafficMatrix:
    def test_shape(self, result):
        matrix = result.traffic_matrix
        assert len(matrix) == 16
        assert all(len(row) == 16 for row in matrix)

    def test_diagonal_empty(self, result):
        # Local traffic bypasses the network entirely.
        assert all(result.traffic_matrix[n][n] == 0 for n in range(16))

    def test_total_matches_delivered(self, result):
        total = sum(sum(row) for row in result.traffic_matrix)
        assert total == result.packets_delivered

    def test_stencil_locality_visible(self, result):
        """Jacobi's shared traffic targets mesh neighbours' home slices:
        a core's heaviest request column should be near it."""
        matrix = result.traffic_matrix
        # Column sums: traffic *into* each node.
        into = [sum(matrix[s][d] for s in range(16)) for d in range(16)]
        assert max(into) > 0


class TestPersistence:
    def test_round_trip(self, result, tmp_path):
        path = tmp_path / "run.json"
        result.save(path)
        loaded = CmpResults.load(path)
        assert loaded.app == result.app
        assert loaded.ipc == pytest.approx(result.ipc)
        assert loaded.instructions == result.instructions
        assert loaded.latency_breakdown == result.latency_breakdown
        assert loaded.traffic_matrix == result.traffic_matrix
        assert loaded.reply_latency.count == result.reply_latency.count
        assert loaded.reply_latency.fractions() == result.reply_latency.fractions()

    def test_loaded_speedup_usable(self, result, tmp_path):
        path = tmp_path / "run.json"
        result.save(path)
        loaded = CmpResults.load(path)
        assert loaded.speedup_over(result) == pytest.approx(1.0)

    def test_to_dict_is_json_safe(self, result):
        import json

        text = json.dumps(result.to_dict())
        assert "latency_breakdown" in text

    def test_archived_loop_block_still_loads(self, result):
        # Sweep JSONL lines and ledger rows written before the loop
        # ticked every cycle carry a host-side "loop" block of cycle
        # counts; from_dict ignores it whatever it holds.
        plain = result.to_dict()
        assert "loop" not in plain
        archived = dict(plain, loop={"ticked": 2490, "jumped": 10})
        loaded = CmpResults.from_dict(archived)
        assert loaded.to_dict() == CmpResults.from_dict(plain).to_dict()
        assert loaded.to_dict() == plain
