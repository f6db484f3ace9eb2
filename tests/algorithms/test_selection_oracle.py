"""The vectorized TIRM selector against the frozen lazy-heap oracle.

``TIRMAllocator._best_candidate`` scans the pool's coverage counters
with numpy; :class:`~tests.rrset._legacy.HeapOracleTIRMAllocator` runs
the same session with the lazy max-heap it replaced.  On random small
philox problems the two must agree exactly: allocation, revenue
estimates and every ``stats`` entry, ``candidates_scanned`` included.
The strategies aim at the selector's edge cases: exact score ties
(CTPs drawn from a few values), budgets that run out or are tiny,
κ-saturated users, λ = 0 and λ > 0, and both select rules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.advertising.advertiser import Advertiser
from repro.advertising.attention import AttentionBounds
from repro.advertising.catalog import AdCatalog
from repro.advertising.problem import AdAllocationProblem
from repro.algorithms.tirm import TIRMAllocator
from repro.graph.generators import erdos_renyi
from repro.graph.probabilities import constant_probabilities
from tests.rrset._legacy import HeapOracleTIRMAllocator

#: A few CTP values, so equal coverages give bit-equal weighted scores.
_CTP_VALUES = (0.0, 0.02, 0.05, 0.05, 0.1, 0.3)
#: Budgets from "exhausted by the first seed" to "never reached".
_BUDGETS = st.sampled_from((1e-3, 0.05, 0.4, 1.0, 3.0, 8.0, 40.0))


@st.composite
def problems(draw):
    n = draw(st.integers(8, 48))
    h = draw(st.integers(1, 4))
    graph = erdos_renyi(
        n, draw(st.sampled_from((0.03, 0.08, 0.15))),
        seed=draw(st.integers(0, 2**16)),
    )
    catalog = AdCatalog([
        Advertiser(
            name=f"a{i}",
            budget=draw(_BUDGETS),
            cpe=draw(st.sampled_from((0.5, 1.0, 2.0))),
        )
        for i in range(h)
    ])
    ctps = np.asarray(
        draw(st.lists(
            st.sampled_from(_CTP_VALUES), min_size=h * n, max_size=h * n,
        )),
        dtype=np.float64,
    ).reshape(h, n)
    # κ = 0 users are never eligible; κ = 1 users saturate after one ad.
    kappa = draw(st.lists(st.integers(0, h), min_size=n, max_size=n))
    return AdAllocationProblem(
        graph,
        catalog,
        constant_probabilities(graph, draw(st.sampled_from((0.05, 0.2, 0.5)))),
        ctps,
        AttentionBounds(kappa),
        penalty=draw(st.sampled_from((0.0, 0.0, 0.05, 0.4))),
    )


def _kwargs(select_rule: str, seed: int) -> dict:
    return dict(
        seed=seed, select_rule=select_rule, epsilon=0.3,
        initial_pilot=200, min_rr_sets_per_ad=100, max_rr_sets_per_ad=1_500,
    )


@given(
    problem=problems(),
    select_rule=st.sampled_from(("weighted", "coverage")),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_scan_matches_heap_oracle(problem, select_rule, seed):
    kwargs = _kwargs(select_rule, seed)
    scan = TIRMAllocator(**kwargs).allocate(problem)
    heap = HeapOracleTIRMAllocator(**kwargs).allocate(problem)
    assert scan.allocation == heap.allocation
    assert np.array_equal(scan.estimated_revenues, heap.estimated_revenues)
    assert scan.stats == heap.stats


def _contention_problem() -> AdAllocationProblem:
    """Six ads over the same κ = 1 users with a few CTP values: the top
    candidates collide and overshoot, so the scanned prefixes are long."""
    graph = erdos_renyi(120, 0.05, seed=4)
    h = 6
    return AdAllocationProblem(
        graph,
        AdCatalog([Advertiser(name=f"a{i}", budget=4.0, cpe=1.0) for i in range(h)]),
        constant_probabilities(graph, 0.15),
        np.random.default_rng(5).choice(
            [0.02, 0.05, 0.05, 0.1], size=(h, graph.num_nodes)
        ),
        AttentionBounds.uniform(graph.num_nodes, 1),
        penalty=0.1,
    )


#: dsan roots of the contention problem as the lazy-heap selector
#: produced them: the RR-set bytes follow the θ trajectory, which
#: follows every pick.
_HEAP_DSAN_ROOTS = {
    "weighted": "7fb3af758c2a3fc0c1b5fbab84d7e744",
    "coverage": "e28aab2f9ded12efe4c806f3aafc22e7",
}


@pytest.mark.parametrize("select_rule", ["weighted", "coverage"])
def test_scan_matches_heap_oracle_under_contention(select_rule):
    problem = _contention_problem()
    kwargs = dict(_kwargs(select_rule, 3), max_rr_sets_per_ad=20_000, dsan=True)
    scan = TIRMAllocator(**kwargs).allocate(problem)
    heap = HeapOracleTIRMAllocator(**kwargs).allocate(problem)
    assert scan.allocation == heap.allocation
    assert np.array_equal(scan.estimated_revenues, heap.estimated_revenues)
    assert scan.stats == heap.stats
    assert scan.stats["dsan_root"] == _HEAP_DSAN_ROOTS[select_rule]
    assert scan.stats["candidates_scanned"] > scan.stats["iterations"]


def test_candidates_scanned_is_pure_observation():
    """The counter agrees across engines and never enters the
    checkpoint compatibility record."""
    problem = _contention_problem()
    kwargs = dict(_kwargs("weighted", 3), max_rr_sets_per_ad=20_000, dsan=True)
    serial = TIRMAllocator(**kwargs).allocate(problem)
    process = TIRMAllocator(
        **kwargs, engine="process", max_workers=2
    ).allocate(problem)
    assert serial.stats["candidates_scanned"] > 0
    assert process.stats["candidates_scanned"] == serial.stats["candidates_scanned"]
    assert process.stats["dsan_root"] == serial.stats["dsan_root"]
    assert process.allocation == serial.allocation
    config = TIRMAllocator(**kwargs)._checkpoint_config(problem)
    assert "candidates_scanned" not in config
