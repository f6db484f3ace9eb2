"""Reference (pre-pool) RR-set engine, kept verbatim for equivalence tests.

This module preserves the original pure-Python implementations that the
flat-CSR :class:`repro.rrset.pool.RRSetPool` replaced: the
``list[np.ndarray]`` collection with its ``list[list[int]]`` inverted
index, the list-based greedy max-cover, and a TIRM variant wired to
them, including the lazy max-heap selector that the vectorized
``TIRMAllocator._best_candidate`` scan replaced.  The equivalence suite
asserts the production engine reproduces these bit-for-bit (same seeds,
same counts, same picks, same allocations).  Do not "fix" or optimise this file — its value is being
frozen history.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.advertising.regret import regret_of
from repro.algorithms.greedy import _beats
from repro.algorithms.tirm import TIRMAllocator, _AdState
from repro.rrset.sampler import RRSetSampler
from repro.rrset.tim import required_rr_sets


class LegacyRRSetCollection:
    """The seed implementation of the RR-set coverage index."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        self.num_nodes = int(num_nodes)
        self._sets: list[np.ndarray] = []
        self._alive: list[bool] = []
        self._member_of: list[list[int]] = [[] for _ in range(num_nodes)]
        self._coverage = np.zeros(num_nodes, dtype=np.int64)
        self._num_alive = 0

    def add_sets(self, sets: Iterable[np.ndarray]) -> Sequence[int]:
        new_ids = []
        member_of = self._member_of
        coverage = self._coverage
        for members in sets:
            members = np.asarray(members, dtype=np.int64)
            set_id = len(self._sets)
            self._sets.append(members)
            self._alive.append(True)
            self._num_alive += 1
            for node in members.tolist():
                member_of[node].append(set_id)
                coverage[node] += 1
            new_ids.append(set_id)
        return new_ids

    def remove_covered(self, node: int) -> int:
        removed = 0
        coverage = self._coverage
        for set_id in self._member_of[node]:
            if self._alive[set_id]:
                self._alive[set_id] = False
                self._num_alive -= 1
                for member in self._sets[set_id].tolist():
                    coverage[member] -= 1
                removed += 1
        return removed

    @property
    def num_total(self) -> int:
        return len(self._sets)

    @property
    def num_alive(self) -> int:
        return self._num_alive

    def coverage(self) -> np.ndarray:
        view = self._coverage.view()
        view.flags.writeable = False
        return view

    def coverage_of(self, node: int) -> int:
        return int(self._coverage[node])

    def coverage_of_set(self, nodes) -> int:
        nodes = set(int(v) for v in np.asarray(nodes, dtype=np.int64).ravel())
        hit = 0
        seen: set[int] = set()
        for node in nodes:
            for set_id in self._member_of[node]:
                if self._alive[set_id] and set_id not in seen:
                    seen.add(set_id)
                    hit += 1
        return hit

    def sets_containing(self, node: int, *, alive_only: bool = True) -> list[int]:
        ids = self._member_of[node]
        if not alive_only:
            return list(ids)
        return [i for i in ids if self._alive[i]]

    def get_set(self, set_id: int) -> np.ndarray:
        return self._sets[set_id]

    def all_sets(self) -> list[np.ndarray]:
        return list(self._sets)

    def is_alive(self, set_id: int) -> bool:
        return self._alive[set_id]

    def average_set_size(self) -> float:
        if not self._sets:
            return 0.0
        return float(sum(len(s) for s in self._sets) / len(self._sets))

    def memory_bytes(self) -> int:
        sets_bytes = sum(s.nbytes for s in self._sets)
        index_entries = sum(len(lst) for lst in self._member_of)
        return int(sets_bytes + 8 * index_entries + self._coverage.nbytes)


def legacy_greedy_max_coverage(
    sets: list[np.ndarray],
    num_nodes: int,
    k: int,
    *,
    eligible=None,
) -> tuple[list[int], int]:
    """The seed list-based greedy Max k-Cover."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    collection = LegacyRRSetCollection(num_nodes)
    collection.add_sets(sets)
    coverage = collection.coverage()
    mask = None
    if eligible is not None:
        mask = np.asarray(eligible, dtype=bool)
        if mask.shape != (num_nodes,):
            raise ValueError(f"eligible must have shape ({num_nodes},)")
    chosen: list[int] = []
    covered = 0
    for _ in range(min(k, num_nodes)):
        if mask is None:
            best = int(np.argmax(coverage))
        else:
            if not mask.any():
                break
            scores = np.where(mask, coverage, -1)
            best = int(np.argmax(scores))
        if coverage[best] <= 0:
            break
        covered += collection.remove_covered(best)
        chosen.append(best)
        if mask is not None:
            mask[best] = False
    return chosen, covered


@dataclass
class _LegacyAdState(_AdState):
    """The per-ad record plus the lazy selector's max-heap."""

    heap: list[tuple[float, int]] = field(default_factory=list)


class LegacyTIRMAllocator(TIRMAllocator):
    """TIRM wired to the seed collection, sampler path, and greedy.

    The methods that touched the storage engine are overridden with
    their original (pre-pool) bodies, and ``_allocate`` itself is the
    frozen pre-sharding loop — per-ad serial initialisation, the
    scan-order ``drop > best + 1e-12`` argmax, and single-ad growth —
    so any engine- or loop-level divergence shows up as a different
    allocation.
    """

    name = "TIRM-legacy"

    def _allocate(self, problem):
        import math

        from repro.advertising.allocation import Allocation
        from repro.algorithms.base import AllocationResult
        from repro.utils.rng import spawn_generators

        h, n = problem.num_ads, problem.num_nodes
        budgets = problem.catalog.budgets()
        cpes = problem.catalog.cpes()
        allocation = Allocation(h, n)
        rngs = spawn_generators(self._seed, h)

        states = [self._initial_state(problem, ad, rngs[ad]) for ad in range(h)]
        for ad in range(h):
            self._rebuild_heap(problem, ad, states[ad])

        iterations = 0
        while True:
            best_ad = -1
            best_drop = 0.0
            best_node = -1
            best_cov = 0
            for ad in range(h):
                state = states[ad]
                if not state.active:
                    continue
                candidate = self._best_candidate(
                    problem, ad, state, allocation, budgets, cpes
                )
                if candidate is None:
                    continue
                node, cov, _, drop = candidate
                if drop > best_drop + 1e-12:
                    best_ad, best_drop = ad, drop
                    best_node, best_cov = node, cov
            if best_ad < 0:
                break

            state = states[best_ad]
            marginal = self._marginal_revenue(
                problem, best_ad, state, best_node, best_cov, cpes
            )
            allocation.assign(best_node, best_ad)
            state.seeds_in_order.append(best_node)
            state.marginal_coverage[best_node] = best_cov
            state.revenue += marginal
            state.collection.remove_covered(best_node)
            iterations += 1

            if len(state.seeds_in_order) == state.seed_size_estimate:
                self._grow_sample(problem, best_ad, state, budgets, cpes, marginal)

        revenues = np.asarray([s.revenue for s in states])
        return AllocationResult(
            algorithm=self.name,
            allocation=allocation,
            estimated_revenues=revenues,
            budgets=budgets,
            penalty=problem.penalty,
            stats={
                "iterations": iterations,
                "theta_per_ad": [s.theta for s in states],
                "seed_size_estimates": [s.seed_size_estimate for s in states],
                "total_rr_sets": int(sum(s.theta for s in states)),
                "rr_memory_bytes": int(
                    sum(s.collection.memory_bytes() for s in states)
                ),
                "epsilon": self.epsilon,
                "select_rule": self.select_rule,
                "sampler_mode": self.sampler_mode,
            },
        )

    def _initial_state(self, problem, ad: int, rng) -> _LegacyAdState:
        sampler = RRSetSampler(
            problem.graph, problem.ad_edge_probabilities(ad), seed=rng
        )
        collection = LegacyRRSetCollection(problem.num_nodes)
        pilot = max(
            min(self.initial_pilot, self.max_rr_sets_per_ad), self.min_rr_sets_per_ad
        )
        collection.add_sets(sampler.sample(pilot))
        state = _LegacyAdState(sampler=sampler, collection=collection)
        target = self._theta_for(problem, state, s=1)
        if target > state.theta:
            collection.add_sets(sampler.sample(target - state.theta))
        return state

    def _theta_for(self, problem, state: _AdState, s: int) -> int:
        n = problem.num_nodes
        s = min(max(s, 1), n)
        pilot = state.collection.all_sets()[: self._OPT_PILOT_SETS]
        _, covered = legacy_greedy_max_coverage(pilot, n, s)
        opt_lower = max(n * covered / len(pilot), float(min(s, n)), 1.0)
        theta = required_rr_sets(n, s, self.epsilon, opt_lower, ell=self.ell)
        return int(min(max(theta, self.min_rr_sets_per_ad), self.max_rr_sets_per_ad))

    def _grow_sample(self, problem, ad: int, state: _AdState, budgets, cpes,
                     last_marginal: float) -> None:
        import math

        from repro.advertising.regret import regret_of

        regret = regret_of(
            budgets[ad], state.revenue, problem.penalty, len(state.seeds_in_order)
        )
        if last_marginal > 0:
            growth = int(math.floor(regret / last_marginal))
        else:
            growth = 0
        state.seed_size_estimate += max(growth, 1)

        target = max(
            self._theta_for(problem, state, state.seed_size_estimate), state.theta
        )
        extra = target - state.theta
        if extra <= 0:
            return
        state.collection.add_sets(state.sampler.sample(extra))
        for node in state.seeds_in_order:
            fresh = len(state.collection.sets_containing(node, alive_only=True))
            state.marginal_coverage[node] += fresh
            state.collection.remove_covered(node)
        self._recompute_revenue(problem, ad, state, cpes)
        self._rebuild_heap(problem, ad, state)

    # The lazy max-heap selector (Algorithm 3, lazily), as it ran before
    # the vectorized scan replaced it.
    def _score(self, problem, ad: int, node: int, cov: int) -> float:
        if self.select_rule == "weighted":
            return float(problem.ctps[ad, node]) * cov
        return float(cov)

    def _rebuild_heap(self, problem, ad: int, state) -> None:
        coverage = state.collection.coverage()
        nodes = np.flatnonzero(coverage > 0)
        if self.select_rule == "weighted":
            scores = problem.ctps[ad, nodes] * coverage[nodes]
        else:
            scores = coverage[nodes].astype(np.float64)
        state.heap = [(-float(s), int(v)) for s, v in zip(scores, nodes)]
        heapq.heapify(state.heap)

    def _pop_fresh(self, problem, ad: int, state, allocation):
        """Pop the eligible node with the largest *fresh* score.

        Scores only decrease between heap rebuilds (covered sets are
        removed), so re-pushing stale entries with their current score is
        sound.  Returns ``(node, coverage, score)`` or ``None`` when no
        eligible node with positive score remains.
        """
        heap = state.heap
        while heap:
            neg_score, node = heap[0]
            if not allocation.can_assign(node, ad, problem.attention):
                heapq.heappop(heap)
                continue
            cov = state.collection.coverage_of(node)
            current = self._score(problem, ad, node, cov)
            if current <= 0.0:
                heapq.heappop(heap)
                continue
            if math.isclose(current, -neg_score, rel_tol=1e-12, abs_tol=1e-12):
                heapq.heappop(heap)
                return node, cov, current
            heapq.heapreplace(heap, (-current, node))
        return None

    def _best_candidate(self, problem, ad: int, state, allocation, budgets, cpes):
        """Argmax-drop candidate for one ad: ``(node, cov, marginal, drop)``.

        With the default ``weighted`` rule, candidates come off the heap
        in decreasing marginal-revenue order, so drops first rise toward
        the remaining budget and then only shrink — the scan stops at
        the first candidate whose marginal fits within the remaining
        budget (exact argmax, same argument as Algorithm 1's greedy).
        The ``coverage`` rule reproduces the literal Algorithm 3: only
        the single top-coverage node is considered.
        """
        remaining = budgets[ad] - state.revenue
        if remaining <= 0:
            return None
        num_seeds = len(state.seeds_in_order)
        scanned: list[tuple[float, int]] = []
        best = None
        best_drop = 0.0
        best_fits = False
        while True:
            top = self._pop_fresh(problem, ad, state, allocation)
            if top is None:
                if not scanned and best is None:
                    state.active = False
                break
            node, cov, score = top
            scanned.append((-score, node))
            marginal = self._marginal_revenue(problem, ad, state, node, cov, cpes)
            drop = regret_of(
                budgets[ad], state.revenue, problem.penalty, num_seeds
            ) - regret_of(
                budgets[ad], state.revenue + marginal, problem.penalty, num_seeds + 1
            )
            fits = marginal <= remaining
            if drop > 1e-12 and _beats(drop, fits, best_drop, best_fits):
                best = (node, cov, marginal, drop)
                best_drop, best_fits = drop, fits
            if self.select_rule == "coverage" or fits:
                break
        for entry in scanned:
            heapq.heappush(state.heap, entry)
        return best


class HeapOracleTIRMAllocator(TIRMAllocator):
    """Production TIRM whose selector is the frozen lazy heap.

    It runs through :class:`~repro.algorithms.session.AllocationSession`
    like the production allocator.  The session no longer keeps heaps,
    so the oracle rebuilds an ad's heap itself whenever that ad's
    ``state.theta`` changes: coverage only rises when sets are added,
    which is exactly when the session used to rebuild.  Each non-empty
    pop counts as one scanned candidate, so ``stats`` match the
    production run's ``candidates_scanned`` too.
    """

    _score = LegacyTIRMAllocator._score
    _rebuild_heap = LegacyTIRMAllocator._rebuild_heap
    _heap_best_candidate = LegacyTIRMAllocator._best_candidate

    def _pop_fresh(self, problem, ad: int, state, allocation):
        top = LegacyTIRMAllocator._pop_fresh(self, problem, ad, state, allocation)
        if top is not None:
            state.candidates_scanned += 1
        return top

    def _best_candidate(self, problem, ad: int, state, allocation, budgets, cpes):
        if getattr(state, "heap_theta", None) != state.theta:
            self._rebuild_heap(problem, ad, state)
            state.heap_theta = state.theta
        return self._heap_best_candidate(
            problem, ad, state, allocation, budgets, cpes
        )
