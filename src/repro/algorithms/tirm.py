"""TIRM — Two-phase Iterative Regret Minimization (Algorithms 2–4, §5.2).

TIRM follows Algorithm 1's greedy logic but replaces Monte-Carlo spread
estimation with RR-set coverage (§5.1), resolving the two obstacles a
direct TIM application faces:

* **CTPs** — sampling RRC-sets directly would need ~100× more samples at
  realistic 1–3% CTPs, so plain RR-sets are sampled and marginal
  coverages are multiplied by ``δ(v, i)`` (Theorem 5 guarantees the same
  expectation);
* **unknown seed counts** — the budget, not a seed count, drives how many
  seeds each ad needs, so the per-ad seed-size estimate ``s_i`` (hence
  the sample size ``θ_i = L(s_i, ε)``) is revised iteratively: whenever
  ``|S_i|`` reaches ``s_i``, grow it by ``⌊R_i(S_i) / marginal-revenue⌋``
  (a submodularity-justified lower bound on the seeds still needed),
  sample the extra RR-sets, and re-estimate existing seeds' coverage
  against them (Algorithm 4) so future marginals stay accurate.

Differences from the pseudocode, documented in ``docs/reproduction.md``
("TIRM deviations from the pseudocode"):

* ``s_i`` grows by at least 1 when triggered (the literal ``⌊·⌋`` can
  return 0, freezing ``θ_i`` forever);
* ``select_rule="weighted"`` (default) ranks candidates by
  ``δ(v, i) · coverage`` — the true marginal-revenue order Algorithm 1
  maximises; ``"coverage"`` gives the literal Algorithm-3 ranking;
* drops within 1e-12 of the best across ads are ties, broken on the
  smaller node id, so the pick does not depend on catalog order.

This module is the **batch facade**: parameter validation, the
checkpoint compatibility record, and engine/cache lifecycle.  The loop
itself lives in :mod:`repro.algorithms.session` as the resumable
:class:`~repro.algorithms.session.AllocationSession` state machine —
``allocate()`` builds one engine, runs one session to completion, and
closes the engine, byte-identical to the historical monolithic loop by
the equivalence suite.  Long-lived callers (the :mod:`repro.service`
tier) drive sessions directly over pooled engines instead.
"""

from __future__ import annotations

import os

import numpy as np

from repro.advertising.problem import AdAllocationProblem
from repro.advertising.regret import regret_of
from repro.algorithms.base import AllocationResult, Allocator
from repro.algorithms.greedy import _beats

# Re-exported for compatibility: the per-ad state record and the
# cross-ad tie-break moved to the session module with the loop.
from repro.algorithms.session import (  # noqa: F401
    AllocationSession,
    _AdState,
    _select_candidate,
)
from repro.errors import ConfigurationError
from repro.rrset.backends import BACKEND_MODES, SamplingBackend, resolve_backend
from repro.rrset.checkpoint import TIRMCheckpoint
from repro.rrset.sampler import DEFAULT_CHUNK_SIZE
from repro.rrset.sharded import (
    ENGINE_MODES,
    RNG_MODES,
    START_METHODS,
    TRANSPORT_BY_ENGINE,
    ShardedSamplingEngine,
)
from repro.rrset.tim import greedy_max_coverage, required_rr_sets
from repro.utils.rng import spawn_generators
from repro.utils.timing import Timer

#: Engine substrates the allocator accepts: the sharded engine's
#: in-process modes plus the distributed coordinator/worker tier
#: (:mod:`repro.dist`).  All byte-identical for the same
#: ``(seed, chunk_size)``.
ALLOCATOR_ENGINE_MODES = ENGINE_MODES + ("dist",)


class TIRMAllocator(Allocator):
    """Algorithm 2 with the Algorithm-3 selector and Algorithm-4 updates.

    Parameters
    ----------
    epsilon:
        RR-set accuracy parameter ε (paper: 0.1 quality / 0.2 scalability).
    ell:
        Confidence parameter ℓ of Eq. (5).
    select_rule:
        ``"weighted"`` (CTP-weighted coverage; default) or ``"coverage"``
        (the literal Algorithm 3).
    sampler_mode:
        ``"blocked"`` (default) draws RR-sets through the vectorized
        batched sampler — RNG in blocks, members written straight into
        the pool; ``"scalar"`` uses the original per-set Mersenne stream,
        which stays bit-compatible with the pre-pool implementation.
        Both are deterministic per ``seed``.
    engine:
        ``"serial"`` (default) samples every ad's RR-sets in-process;
        ``"process"`` fans the sharded engine's chunk tasks — the
        batched pilot phase *and* every single-ad growth top-up — across
        a fork-based process pool.  The two produce identical
        allocations for the same ``(seed, chunk_size)``: every chunk of
        RR sets is a pure function of its ``(seed, ad, set_index)``
        address (``rng="philox"``).  ``"dist"`` scatters the same chunk
        tasks to remote socket workers through a
        :class:`~repro.dist.Coordinator` (pass ``coordinator=``) —
        byte-identical again: topology is provenance, not contract.
    coordinator:
        Required with ``engine="dist"``: a started
        :class:`~repro.dist.Coordinator` (borrowed — the caller owns
        its lifetime) or a spec dict (``{"host": ..., "port": ...}``)
        from which each engine builds a coordinator it owns.  Rejected
        for in-process engines.
    rng:
        ``"philox"`` (default): counter-based streams — every RR set is
        addressed by ``(seed, ad, set_index)``, sampling parallelizes
        within an ad, and a mid-allocation resume is deterministic.
        ``"legacy"``: the historical stateful per-ad streams, bit-exact
        with the pre-pool implementation (and strictly sequential).
    chunk_size:
        Set-index chunk width of the counter-based streams (ignored for
        ``rng="legacy"``).  Part of the determinism contract: the same
        ``(seed, chunk_size)`` reproduces the same allocation.
    backend:
        Blocked-BFS sampling backend (:mod:`repro.rrset.backends`):
        ``"numpy"`` (reference, default), ``"numba"`` (JIT kernel,
        optional extra — raises
        :class:`~repro.errors.ConfigurationError` when not installed),
        ``"auto"`` (numba if importable, else numpy with a one-time
        warning), or a ready backend instance.  Backends produce
        byte-identical samples, so the backend is **not** part of the
        determinism contract — the same seed yields the same allocation
        on every backend, and a checkpoint written under one backend
        resumes under another.  Stats and provenance record the
        *resolved* name.  Stats, provenance and checkpoints also record
        the engine's ``transport`` — ``"inline"``, ``"pickle"`` or
        ``"socket"`` for the serial, process and dist engines — which is
        likewise never part of the determinism contract.
    start_method:
        Worker start method for ``engine="process"``: ``"fork"``,
        ``"spawn"``, or ``"auto"`` (default: fork where available, else
        spawn).  Not part of the determinism contract.
    prefetch:
        When true (default), issue speculative next-θ prefetch hints to
        the engine after each growth event, so RR-set sampling overlaps
        greedy selection under ``engine="process"``.  Purely a pipeline
        knob: chunks are pure functions of their stream address, so the
        allocation is byte-identical with prefetch on or off (no-op for
        ``engine="serial"`` and ``rng="legacy"``).
    initial_pilot:
        RR-sets sampled per ad before the first ``θ_i`` is computed.
    min_rr_sets_per_ad / max_rr_sets_per_ad:
        Clamp on each ``θ_i`` — the max keeps laptop-scale runs bounded
        (the paper ran on a 65 GB server).
    max_workers:
        Process-pool width for ``engine="process"`` (default: cpu count).
    checkpoint_path / checkpoint_every:
        Snapshot the in-flight allocation to ``checkpoint_path`` every
        ``checkpoint_every`` iteration boundaries (default 1 when a path
        is given; atomic overwrite, see :mod:`repro.rrset.checkpoint`).
        Under ``rng="philox"`` the artifact holds no RR members — the
        counter-based streams re-derive them on resume; ``rng="legacy"``
        spills members to an mmap-backed sidecar.
    resume_from:
        Restore a mid-allocation snapshot and continue.  The resumed run
        produces a byte-identical allocation to the uninterrupted one
        for the same ``(seed, rng, chunk_size)``; mismatched parameters
        raise :class:`~repro.errors.ConfigurationError`.
    max_iterations:
        Stop after this many iterations *of this run* (writing a final
        checkpoint when ``checkpoint_path`` is set) and return the
        partial allocation with ``stats["truncated"] = True`` — the
        incremental building block for time-bounded allocation slices.
    dsan:
        Runtime determinism sanitizer (:mod:`repro.rrset.dsan`): when
        enabled the engine records a blake2 digest per ``(ad, chunk)``
        block it splices, and the result carries them in
        ``stats["dsan_digests"]`` plus a whole-run ``dsan_root``
        fingerprint (also in provenance).  ``None`` (default) defers to
        the ``REPRO_DSAN`` environment variable.  Pure observation: the
        allocation is byte-identical with dsan on or off.
    cache:
        Shard cache knob (:mod:`repro.store`): a directory path (or
        open :class:`~repro.store.ShardCache`) makes sampling
        read-through over the content-addressed block store, records
        the finished allocation (with provenance and cache counters) in
        the store's experiment catalog, and registers every checkpoint's
        shard references so ``repro gc`` keeps what a resume would
        re-read.  ``None`` (default) defers to the ``REPRO_CACHE``
        environment variable.  **Not** part of the determinism
        contract: a warm run performs zero sampling-backend invocations
        (``stats["backend_invocations"]``) yet stays byte-identical to
        a cold one.
    dataset:
        Optional label recorded in the experiment catalog's allocation
        row (shown by ``repro ls``).  The problem object carries no
        name, so the caller supplies one; purely informational.
    seed:
        Master RNG seed; per-ad samplers get independent child streams.

    Examples
    --------
    Allocate the paper's Figure-1 gadget; stats record the resolved
    RNG/backend contract that makes the run reproducible::

        >>> from repro.algorithms.tirm import TIRMAllocator
        >>> from repro.datasets.toy import figure1_problem
        >>> allocator = TIRMAllocator(seed=0, max_rr_sets_per_ad=1_000)
        >>> result = allocator.allocate(figure1_problem())
        >>> result.algorithm, result.allocation.total_seeds() > 0
        ('TIRM', True)
        >>> result.stats["rng"], result.stats["backend"]
        ('philox', 'numpy')
    """

    name = "TIRM"

    def __init__(
        self,
        *,
        epsilon: float = 0.1,
        ell: float = 1.0,
        select_rule: str = "weighted",
        sampler_mode: str = "blocked",
        engine: str = "serial",
        coordinator=None,
        rng: str = "philox",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        backend="numpy",
        start_method: str = "auto",
        prefetch: bool = True,
        initial_pilot: int = 1_000,
        min_rr_sets_per_ad: int = 500,
        max_rr_sets_per_ad: int = 200_000,
        max_workers: int | None = None,
        checkpoint_path=None,
        checkpoint_every: int | None = None,
        resume_from=None,
        max_iterations: int | None = None,
        dsan: bool | None = None,
        cache=None,
        dataset: str | None = None,
        seed=None,
    ) -> None:
        if not 0 < epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if ell <= 0:
            raise ConfigurationError(f"ell must be > 0, got {ell}")
        if select_rule not in ("weighted", "coverage"):
            raise ConfigurationError(
                f"select_rule must be 'weighted' or 'coverage', got {select_rule!r}"
            )
        if sampler_mode not in ("blocked", "scalar"):
            raise ConfigurationError(
                f"sampler_mode must be 'blocked' or 'scalar', got {sampler_mode!r}"
            )
        if engine not in ALLOCATOR_ENGINE_MODES:
            raise ConfigurationError(
                f"engine must be one of {ALLOCATOR_ENGINE_MODES}, got {engine!r}"
            )
        if rng not in RNG_MODES:
            raise ConfigurationError(f"rng must be one of {RNG_MODES}, got {rng!r}")
        if engine == "dist":
            if coordinator is None:
                raise ConfigurationError(
                    "engine='dist' needs a coordinator: pass a started "
                    "repro.dist.Coordinator or a spec dict"
                )
            if rng != "philox":
                raise ConfigurationError(
                    "engine='dist' requires rng='philox': legacy streams "
                    "cannot be re-derived on remote workers"
                )
        elif coordinator is not None:
            raise ConfigurationError(
                f"coordinator is only meaningful with engine='dist', "
                f"got engine={engine!r}"
            )
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if not isinstance(backend, SamplingBackend) and backend not in BACKEND_MODES:
            raise ConfigurationError(
                f"backend must be one of {BACKEND_MODES} or a SamplingBackend "
                f"instance, got {backend!r}"
            )
        if start_method not in START_METHODS:
            raise ConfigurationError(
                f"start_method must be one of {START_METHODS}, got {start_method!r}"
            )
        if min_rr_sets_per_ad < 1 or max_rr_sets_per_ad < min_rr_sets_per_ad:
            raise ConfigurationError(
                "need 1 <= min_rr_sets_per_ad <= max_rr_sets_per_ad, got "
                f"{min_rr_sets_per_ad} / {max_rr_sets_per_ad}"
            )
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint_path is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_path to write to"
            )
        if max_iterations is not None and max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        self.epsilon = float(epsilon)
        self.ell = float(ell)
        self.select_rule = select_rule
        self.sampler_mode = sampler_mode
        self.engine = engine
        self.coordinator = coordinator
        self.rng = rng
        self.chunk_size = int(chunk_size)
        self.backend = backend
        self.start_method = start_method
        self.prefetch = bool(prefetch)
        self.initial_pilot = int(initial_pilot)
        self.min_rr_sets_per_ad = int(min_rr_sets_per_ad)
        self.max_rr_sets_per_ad = int(max_rr_sets_per_ad)
        self.max_workers = max_workers
        self.checkpoint_path = (
            os.fspath(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = (
            int(checkpoint_every)
            if checkpoint_every is not None
            else (1 if self.checkpoint_path is not None else None)
        )
        self.resume_from = os.fspath(resume_from) if resume_from is not None else None
        self.max_iterations = (
            int(max_iterations) if max_iterations is not None else None
        )
        # Tri-state: None defers to REPRO_DSAN at engine construction.
        self.dsan = dsan
        # Tri-state likewise: None defers to REPRO_CACHE at allocate().
        self.cache = cache
        # Pure catalog label (the problem object carries no name): shown
        # in `repro ls`, never part of any contract.
        self.dataset = dataset
        self._seed = seed
        # Resolved at allocate() (or by the session guard): "auto"
        # commits to a substrate before any sampling so stats/
        # provenance/checkpoints record the resolved name.
        self._backend_obj = None

    # ------------------------------------------------------------------
    def allocate(self, problem: AdAllocationProblem) -> AllocationResult:
        with Timer() as timer:
            result = self._allocate(problem)
        result.runtime_seconds = timer.elapsed
        return result

    # ------------------------------------------------------------------
    def _allocate(self, problem: AdAllocationProblem) -> AllocationResult:
        # Resolve the shard cache here, above the engine: the catalog
        # records (allocation row, checkpoint references) land after
        # sampling finishes, so TIRM owns what it opens and the engine
        # only shares (and flushes) the instance.  Imported lazily so a
        # cache-less allocation never touches repro.store.
        from repro.store.cache import resolve_cache

        cache, cache_owned = resolve_cache(self.cache)
        try:
            return self._allocate_with_cache(problem, cache)
        finally:
            if cache_owned and cache is not None:
                cache.close()

    def _allocate_with_cache(
        self, problem: AdAllocationProblem, cache
    ) -> AllocationResult:
        # Resolve the sampling backend up front: "auto" commits to a
        # substrate (and warns if it degrades) before any sampling, an
        # unavailable explicit "numba" fails here with a clean
        # ConfigurationError, and stats/provenance/checkpoints all
        # record the *resolved* name.  Backends are byte-identical, so
        # resolution never affects the allocation — only throughput.
        self._backend_obj = resolve_backend(self.backend)
        checkpoint = self._load_checkpoint(problem)
        engine = self._build_engine(problem, cache, checkpoint)
        with engine:
            session = AllocationSession(
                problem, self, engine=engine, cache=cache, checkpoint=checkpoint
            )
            return session.run()

    # ------------------------------------------------------------------
    # Engine / checkpoint plumbing (shared with the service tier)
    # ------------------------------------------------------------------
    def _load_checkpoint(self, problem) -> TIRMCheckpoint | None:
        """Load and validate ``resume_from``, or ``None`` for a fresh run."""
        if self.resume_from is None:
            return None
        checkpoint = TIRMCheckpoint.load(self.resume_from)
        checkpoint.validate_config(self._checkpoint_config(problem))
        return checkpoint

    def _build_engine(
        self, problem, cache, checkpoint=None, **engine_kwargs
    ) -> ShardedSamplingEngine:
        """Construct the sharded engine for one run of ``problem``.

        ``engine_kwargs`` pass through to the engine constructor — the
        service tier uses this to enable ``retain_blocks`` on pooled
        engines; the batch facade passes nothing extra.
        """
        h = problem.num_ads
        # Counter-based streams take the master seed directly (per-ad
        # separation happens in the spawn key); the legacy streams keep
        # the historical per-ad child generators for bit-exactness.  On
        # resume the checkpoint's entropy roots are authoritative: they
        # rebuild the exact streams the snapshot was sampled from.
        if self.rng == "legacy":
            seeds = spawn_generators(self._seed, h)
        elif checkpoint is not None:
            seeds = list(checkpoint.entropies)
        else:
            seeds = self._seed
        if self.engine == "dist":
            # Imported lazily: the distributed tier is an optional layer
            # over the engine seam, and an in-process allocation never
            # touches repro.dist.
            from repro.dist.engine import DistributedEngine

            return DistributedEngine(
                problem.graph,
                [problem.ad_edge_probabilities(ad) for ad in range(h)],
                coordinator=self.coordinator,
                seeds=seeds,
                mode=self.sampler_mode,
                rng=self.rng,
                chunk_size=self.chunk_size,
                backend=self._backend_obj if self._backend_obj is not None
                else self.backend,
                dsan=self.dsan,
                cache=cache,
                max_workers=self.max_workers,
                **engine_kwargs,
            )
        return ShardedSamplingEngine(
            problem.graph,
            [problem.ad_edge_probabilities(ad) for ad in range(h)],
            seeds=seeds,
            mode=self.sampler_mode,
            engine=self.engine,
            max_workers=self.max_workers,
            rng=self.rng,
            chunk_size=self.chunk_size,
            backend=self._backend_obj if self._backend_obj is not None
            else self.backend,
            start_method=self.start_method,
            dsan=self.dsan,
            cache=cache,
            **engine_kwargs,
        )

    def _checkpoint_config(self, problem) -> dict:
        """The compatibility record stored in (and validated against)
        every checkpoint artifact: resuming under different allocator
        parameters or a different problem would silently converge to a
        different allocation, so mismatches are refused up front.

        ``backend`` and ``transport`` are recorded as provenance but
        deliberately *not* matched on resume — both are byte-identical
        substrates, so a numpy checkpoint from a serial run resumes
        under numba on the process engine (and vice versa) unchanged.
        """
        seed = int(self._seed) if isinstance(self._seed, (int, np.integer)) else None
        if self._backend_obj is None:
            self._backend_obj = resolve_backend(self.backend)
        return {
            "algorithm": self.name,
            "rng": self.rng,
            "chunk_size": self.chunk_size if self.rng == "philox" else None,
            "backend": self._backend_obj.name,
            "transport": TRANSPORT_BY_ENGINE[self.engine],
            "sampler_mode": self.sampler_mode,
            "select_rule": self.select_rule,
            "epsilon": self.epsilon,
            "ell": self.ell,
            "initial_pilot": self.initial_pilot,
            "min_rr_sets_per_ad": self.min_rr_sets_per_ad,
            "max_rr_sets_per_ad": self.max_rr_sets_per_ad,
            "num_ads": problem.num_ads,
            "num_nodes": problem.num_nodes,
            "num_edges": problem.graph.num_edges,
            "seed": seed,
        }

    # ------------------------------------------------------------------
    # Selection / θ policy (Algorithm 3 as a vectorized scan)
    # ------------------------------------------------------------------
    # These are the *policy* half of the refactor: pure functions of the
    # run state with no engine or lifecycle coupling, kept on the config
    # object (old signatures, ``problem`` passed in) so the session
    # delegates to them and subclasses — including the frozen legacy
    # harness in the equivalence suite — can override them.

    #: Greedy-cover pilot size for OPT_s estimation: the cover runs on an
    #: i.i.d. prefix of the sample, so a fixed-size pilot estimates the
    #: same coverage fraction at O(1) cost per growth event.
    _OPT_PILOT_SETS = 2_000

    def _theta_for(self, problem, state: _AdState, s: int) -> int:
        """``θ_i = L(s, ε)`` with a greedy-pilot OPT_s lower bound.

        The pilot is a zero-copy CSR window over the first sets of the
        pool, so each growth event costs O(pilot), not O(θ).
        """
        n = problem.num_nodes
        s = min(max(s, 1), n)
        pilot = state.collection.prefix_view(self._OPT_PILOT_SETS)
        _, covered = greedy_max_coverage(pilot, n, s)
        opt_lower = max(n * covered / pilot.num_sets, float(min(s, n)), 1.0)
        theta = required_rr_sets(n, s, self.epsilon, opt_lower, ell=self.ell)
        return int(min(max(theta, self.min_rr_sets_per_ad), self.max_rr_sets_per_ad))

    def _recompute_revenue(self, problem, ad: int, state: _AdState, cpes) -> None:
        """``Π_i(S_i) = Σ_v cpe·n·δ(v,i)·cov(v)/θ_i`` over chosen seeds."""
        n = problem.num_nodes
        delta = problem.ad_ctps(ad)
        theta = state.theta
        state.revenue = float(
            sum(
                cpes[ad] * n * delta[node] * count / theta
                for node, count in state.marginal_coverage.items()
            )
        )

    def _best_candidate(self, problem, ad: int, state: _AdState, allocation, budgets, cpes):
        """Argmax-drop candidate for one ad: ``(node, cov, marginal, drop)``.

        One numpy scan over the pool's coverage counters.  Candidates are
        the users in ``allocation.eligible_mask`` with a positive score
        (``δ(v, i) · cov(v)`` under ``weighted``, ``cov(v)`` under
        ``coverage``), visited in (score desc, node asc) order.  Under
        ``weighted`` drops first rise toward the remaining budget and then
        only shrink, so the scan stops at the first candidate whose
        marginal fits it (exact argmax, as in Algorithm 1's greedy).  That
        is the top-scoring fitting candidate, so only the overshooting
        prefix before it needs sorting.  Under ``coverage`` (the literal
        Algorithm 3) the prefix is the top candidate.  The winner is the ``_beats``
        fold over the prefix in scan order, skipping drops ≤ 1e-12, which
        never win it.  The prefix length is added to
        ``state.candidates_scanned``; ``state.active`` drops only when
        the ad has no candidate at all.
        """
        remaining = budgets[ad] - state.revenue
        if remaining <= 0:
            return None
        coverage = state.collection.coverage()
        scores = (
            problem.ctps[ad] * coverage if self.select_rule == "weighted" else coverage
        )
        eligible = allocation.eligible_mask(ad, problem.attention)
        nodes = np.flatnonzero(eligible & (scores > 0))
        if nodes.size == 0:
            state.active = False
            return None
        scores = scores[nodes]
        covs = coverage[nodes]
        # The float operations of _marginal_revenue, in the same order.
        marginals = (
            cpes[ad] * problem.num_nodes * problem.ctps[ad, nodes] * covs / state.theta
        )
        fits = marginals <= remaining
        if self.select_rule == "coverage":
            prefix = np.argmax(scores, keepdims=True)
        elif fits.any():
            # argmax returns the first maximum: the smallest node id.
            stop = int(np.argmax(np.where(fits, scores, -np.inf)))
            top = scores[stop]
            prefix = np.flatnonzero(
                (scores > top) | ((scores == top) & (np.arange(nodes.size) <= stop))
            )
        else:
            prefix = np.arange(nodes.size)
        # Candidates sit in node order: a stable sort on -score gives the
        # scan order.
        prefix = prefix[np.argsort(-scores[prefix], kind="stable")]
        state.candidates_scanned += int(prefix.size)
        num_seeds = len(state.seeds_in_order)
        drops = regret_of(
            budgets[ad], state.revenue, problem.penalty, num_seeds
        ) - (
            np.abs(budgets[ad] - (state.revenue + marginals[prefix]))
            + float(problem.penalty) * (num_seeds + 1)
        )
        positive = drops > 1e-12
        keep = prefix[positive]
        best = None
        best_drop = 0.0
        best_fits = False
        for node, cov, marginal, drop, fit in zip(
            nodes[keep].tolist(), covs[keep].tolist(), marginals[keep].tolist(),
            drops[positive].tolist(), fits[keep].tolist(),
        ):
            if _beats(drop, fit, best_drop, best_fits):
                best = (node, cov, marginal, drop)
                best_drop, best_fits = drop, fit
        return best

    def _marginal_revenue(self, problem, ad: int, state: _AdState, node: int,
                          cov: int, cpes) -> float:
        """Theorem 5: ``cpe(i) · n · δ(v, i) · cov(v)/θ_i``."""
        return float(
            cpes[ad] * problem.num_nodes * problem.ctps[ad, node] * cov / state.theta
        )
