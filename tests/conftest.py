"""Shared pytest configuration and engine-equivalence helpers.

The ``vectorized`` toggle of :class:`~repro.cmp.CmpConfig` claims to be
invisible in every measured quantity.  The equivalence suites for the
columnar core, network and coherence engines share the
run-both-and-diff machinery here instead of duplicating it.
"""

import json

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.faults import ConfirmationDrop, FaultPlan, LaneFault
from repro.sweep import canonical_json

#: One representative fault plan exercised by the equivalence suites:
#: a lane outage window plus stochastic confirmation drops, so the
#: retry/backoff and fault-clock paths are covered.
EQUIVALENCE_FAULT_PLAN = FaultPlan(
    label="engine-equivalence",
    lane_faults=(LaneFault(3, "data", start=200, end=900),),
    confirmation_drops=(ConfirmationDrop(0.05),),
    seed=11,
)


def run_engine(cycles: int = 1200, **config_kwargs):
    """Run one configuration; return its ``(result, metrics)`` pair."""
    system = CmpSystem(CmpConfig(**config_kwargs))
    result = system.run(cycles)
    metrics = json.loads(canonical_json(system.metrics_registry().snapshot()))
    return result, metrics


def run_engine_pair(cycles: int = 1200, **config_kwargs):
    """Run a config twice, columnar engines on and off.

    Returns the ``[(result, metrics), ...]`` pairs in (vectorized,
    reference) order.
    """
    return [
        run_engine(cycles=cycles, vectorized=enabled, **config_kwargs)
        for enabled in (True, False)
    ]


def assert_engines_equivalent(candidate, reference):
    """Byte-identical results and metrics.

    ``candidate``/``reference`` are ``(result, metrics)`` pairs from
    :func:`run_engine`; the full ``to_dict()`` is compared.
    """
    cand_result, cand_metrics = candidate
    ref_result, ref_metrics = reference
    assert canonical_json(cand_result.to_dict()) == canonical_json(
        ref_result.to_dict()
    )
    assert cand_metrics == ref_metrics


def compare_engine_pair(cycles: int = 1200, **config_kwargs):
    """Run one configuration vectorized and reference, and diff them."""
    assert_engines_equivalent(*run_engine_pair(cycles=cycles, **config_kwargs))


@pytest.fixture
def compare_engines():
    """Fixture handle on :func:`compare_engine_pair` for plain tests.

    Hypothesis-driven tests should import the function directly (a
    function-scoped fixture inside ``@given`` trips health checks).
    """
    return compare_engine_pair


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden result snapshots under tests/data/ "
        "instead of comparing against them (commit the diff afterwards)",
    )
