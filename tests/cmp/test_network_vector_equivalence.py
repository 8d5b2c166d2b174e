"""The vectorized network engines' equivalence contract.

``src/repro/mesh/vector.py`` and ``src/repro/core/vector.py`` replace
the per-router / per-lane reference ticks with write-through readiness
columns and due-entity worklists.  The claim mirrors the core engine's
(``test_vector_equivalence.py``): a vectorized run and the
object-per-entity reference run of the same configuration produce
byte-identical ``CmpResults`` and metrics snapshots — the network
engines must not change a single delivery cycle, arbitration decision
or collision outcome.  These tests pin that down across the network
kinds, seeds, system sizes, mesh bandwidth scaling, FSOI optimizations
and fault plans, plus the engine-selection hatches, and back the
scaling claim with Bernoulli-driven runs at 256/512/1024 nodes checked
against the Figure 3 closed form.

The run-both-and-diff machinery is shared with the other equivalence
suites via ``tests/conftest.py``.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cmp import CmpConfig, CmpSystem
from repro.core.analytical import collision_probability
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.core.vector import VectorFsoiNetwork
from repro.mesh.network import MeshNetwork
from repro.mesh.vector import VectorMeshNetwork
from repro.net.packet import LaneKind, Packet
from tests.conftest import EQUIVALENCE_FAULT_PLAN, compare_engine_pair

#: Tests that inspect the default-selected engine classes only make
#: sense when the hatch is not pinning the whole process to the
#: reference engines (CI's second leg runs everything that way).
requires_vector_default = pytest.mark.skipif(
    os.environ.get("REPRO_NO_VECTOR", "") not in ("", "0"),
    reason="REPRO_NO_VECTOR pins the reference engines for the whole "
    "process, so the vectorized default is not observable",
)


class TestEquivalence:
    @pytest.mark.parametrize(
        "network", ("fsoi", "mesh", "l0", "lr1", "lr2", "corona")
    )
    def test_all_networks(self, compare_engines, network):
        # Only fsoi and mesh grow vector engines; the other kinds must
        # stay untouched by the flag (the vectorized cores still feed
        # them the same packets on the same cycles).
        compare_engines(app="mp", network=network, num_nodes=16, seed=2)

    @pytest.mark.parametrize("seed", (0, 7))
    def test_mesh_seeds(self, compare_engines, seed):
        compare_engines(app="em", network="mesh", num_nodes=16, seed=seed)

    def test_mesh_64_nodes(self, compare_engines):
        compare_engines(
            app="ba", network="mesh", num_nodes=64, seed=2, cycles=900,
        )

    def test_mesh_bandwidth_scale(self, compare_engines):
        # Narrower links stretch packets into more flits — deeper VC
        # occupancy, more credit stalls, more arbitration conflicts.
        compare_engines(
            app="oc", network="mesh", num_nodes=16, seed=6,
            mesh_bandwidth_scale=0.5,
        )

    def test_fsoi_64_nodes_phase_array(self, compare_engines):
        # 64 nodes turns on the optical phase array, putting the
        # per-send ``opa.steer`` charge inside the columnar gather.
        compare_engines(
            app="ws", network="fsoi", num_nodes=64, seed=2, cycles=900,
        )

    def test_fsoi_optimizations(self, compare_engines):
        # The full §5 design: resolution hints reschedule queued
        # packets in place — a readiness *change* without an enqueue or
        # dequeue, the subtlest write-through path.
        compare_engines(
            app="oc", network="fsoi", num_nodes=16, seed=5,
            optimizations=OptimizationConfig.all(),
        )

    def test_fsoi_packet_error_rate(self, compare_engines):
        # Signaling errors corrupt lone transmissions, so the
        # single-send fast path must still draw the same RNG verdicts.
        compare_engines(
            app="ba", network="fsoi", num_nodes=16, seed=8,
            fsoi_packet_error_rate=0.05,
        )

    def test_faults_on(self, compare_engines):
        compare_engines(
            app="oc", network="fsoi", num_nodes=16, seed=4,
            faults=EQUIVALENCE_FAULT_PLAN,
        )

    @requires_vector_default
    def test_faults_fall_back_to_reference_gather(self):
        # Fault plans keep the reference per-node slot gather (lane
        # sparing probes are stateful side effects of being queried),
        # but the readiness columns stay maintained and audited.
        system = CmpSystem(CmpConfig(
            app="oc", network="fsoi", num_nodes=16, seed=4,
            faults=EQUIVALENCE_FAULT_PLAN,
        ))
        network = system.network
        assert isinstance(network, VectorFsoiNetwork)
        assert not network._columnar_slots
        system.run(1200)
        network.audit()

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        app=st.sampled_from(["oc", "ba", "mp", "ws"]),
        network=st.sampled_from(["fsoi", "mesh"]),
        seed=st.integers(min_value=0, max_value=50),
        cycles=st.integers(min_value=50, max_value=800),
    )
    def test_property_equivalence(
        self, app, network, seed, cycles
    ):
        compare_engine_pair(
            app=app, network=network, num_nodes=16, seed=seed,
            cycles=cycles,
        )

    @requires_vector_default
    @pytest.mark.parametrize("network", ("fsoi", "mesh"))
    def test_post_run_audit(self, network):
        # The columnar bookkeeping must still agree with the scalar
        # objects after a full run, not just produce the same results.
        system = CmpSystem(CmpConfig(
            app="oc", network=network, num_nodes=16, seed=3
        ))
        system.run(1200)
        system.network.audit()


class TestEngineSelection:
    """``CmpConfig.vectorized`` / ``REPRO_NO_VECTOR`` pick the classes."""

    @requires_vector_default
    def test_vectorized_selects_vector_networks(self):
        for network, cls in (("fsoi", VectorFsoiNetwork),
                             ("mesh", VectorMeshNetwork)):
            system = CmpSystem(CmpConfig(
                app="oc", network=network, num_nodes=16, seed=1
            ))
            assert type(system.network) is cls

    def test_config_flag_selects_reference_networks(self):
        for network, cls in (("fsoi", FsoiNetwork), ("mesh", MeshNetwork)):
            system = CmpSystem(CmpConfig(
                app="oc", network=network, num_nodes=16, seed=1,
                vectorized=False,
            ))
            assert type(system.network) is cls

    def test_env_hatch_selects_reference_networks(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_VECTOR", "1")
        system = CmpSystem(CmpConfig(
            app="oc", network="mesh", num_nodes=16, seed=1
        ))
        assert type(system.network) is MeshNetwork

    def test_env_hatch_zero_means_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_VECTOR", "0")
        system = CmpSystem(CmpConfig(
            app="oc", network="fsoi", num_nodes=16, seed=1
        ))
        assert type(system.network) is VectorFsoiNetwork


def bernoulli_meta_run(num_nodes, p, seed, cycles):
    """Uniform Bernoulli meta traffic on the vector engine.

    Same driver as ``tests/core/test_analytical_crossval.py`` — every
    meta slot boundary each node offers a packet with probability ``p``
    to a uniform random peer — but instantiating the *vector* engine at
    sizes where the reference gather would dominate the run.
    """
    net = VectorFsoiNetwork(FsoiConfig(num_nodes=num_nodes, seed=seed))
    rng = np.random.default_rng(seed)
    slot = net.lanes.slot_cycles(LaneKind.META)
    for cycle in range(cycles):
        if cycle % slot == 0:
            offered = rng.random(num_nodes) < p
            targets = rng.integers(0, num_nodes - 1, num_nodes)
            for src in np.flatnonzero(offered):
                dst = int(targets[src])
                if dst >= src:
                    dst += 1
                net.try_send(
                    Packet(src=int(src), dst=dst, lane=LaneKind.META), cycle
                )
        net.tick(cycle)
    return net


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_NO_VECTOR", "") not in ("", "0"),
    reason="the scaling study targets the vectorized engines, which "
    "REPRO_NO_VECTOR pins off for the whole process",
)
class TestScaling:
    """The 256/512/1024-node scaling study the engines exist for.

    Uniform Bernoulli traffic keeps the Figure 3 closed form's
    assumptions honest at scale (app-driven coherence traffic is
    directory-concentrated, so its collision rate sits far above the
    memoryless model); the crossval suite's [1.0x, 2.0x] band applies
    unchanged, which is itself evidence the engine does not perturb the
    channel statistics as the system grows.
    """

    @pytest.mark.parametrize(
        "num_nodes, cycles",
        [(256, 6000), (512, 4000), (1024, 3000)],
    )
    def test_fsoi_collision_rate_matches_closed_form(self, num_nodes, cycles):
        net = bernoulli_meta_run(num_nodes, p=0.10, seed=21 + num_nodes,
                                 cycles=cycles)
        # Conservation: the driver offered real packets and the channel
        # delivered no more than it accepted.
        assert 0 < int(net.stats.delivered) <= int(net.stats.sent)
        measured_p = net.transmission_probability(LaneKind.META)
        assert measured_p >= 0.095  # offered 0.10 plus retransmissions
        simulated = net.collision_events_per_node_slot(LaneKind.META)
        predicted = collision_probability(
            measured_p, num_nodes, net.lanes.receivers(LaneKind.META)
        )
        assert simulated > 0.0, "operating point produced no collisions"
        assert predicted <= simulated <= 2.0 * predicted
        net.audit()

    @pytest.mark.parametrize(
        "num_nodes, cycles", [(256, 300), (1024, 200)]
    )
    def test_mesh_scaling_smoke(self, num_nodes, cycles):
        # Mesh sizes must be perfect squares, so the study jumps
        # 256 -> 1024 (16x16 -> 32x32 routers).
        system = CmpSystem(CmpConfig(
            app="oc", network="mesh", num_nodes=num_nodes, seed=3
        ))
        result = system.run(cycles)
        network = system.network
        assert type(network) is VectorMeshNetwork
        assert result.cycles == cycles
        assert sum(result.instructions_per_core) == result.instructions
        assert 0 < result.packets_delivered <= result.packets_sent
        network.audit()
