"""Per-advertiser sharded RR-set sampling engine.

TIRM (Algorithms 2–4, §5.2) keeps one independent RR-set collection and
sampler per advertiser.  :class:`ShardedSamplingEngine` makes that
structure explicit: it owns one :class:`~repro.rrset.pool.RRSetPool`
*shard* per advertiser and serves batched sampling requests — the
initial pilots for all ``h`` ads, and every Algorithm-4 ``θ_i`` top-up —
either serially in-process or concurrently across a
``concurrent.futures`` process pool.

Counter-based streams (``rng="philox"``, the default)
-----------------------------------------------------

Every RR set is addressed by ``(global_seed, ad, set_index)``: set
indices are grouped into fixed-size *chunks*, and chunk ``c`` of ad
``i`` owns the private generator
``Philox(SeedSequence(entropy, spawn_key=(i, c)))`` (see
:class:`~repro.rrset.sampler.StreamPlan`).  A request — *including a
single ad's θ top-up* — therefore decomposes into independent
``(ad, chunk)`` tasks that are fanned across the process pool and
spliced back in set-index order.  Because every chunk is a pure function
of its address, the shards are **bit-identical for serial, 1-worker and
N-worker execution**, no matter how requests are split across calls.
No RNG state round-trips through workers: each task ships only
``(engine id, ad, mode, chunk)``, and the worker returns the chunk's
packed ``(members, lengths)`` block over the executor's result pipe.

Start methods
-------------

Under ``fork`` (preferred where available) workers inherit the payload
— graph CSR, per-ad probability rows, stream entropies — by
copy-on-write from a module registry.  Under ``spawn`` the same payload
arrays (:func:`_payload_parts`) travel once per worker as the executor
initializer's arguments, so spawn platforms (macOS/Windows) run at full
parallelism.  Only when neither fork nor spawn exists does
``engine="process"`` degrade to serial sampling, with a warning per
engine.

Prefetch pipeline
-----------------

:meth:`ShardedSamplingEngine.prefetch` submits upcoming ``(ad, chunk)``
tasks without blocking; :meth:`sample`/:meth:`ensure` harvest matching
in-flight futures before submitting the remainder, so sampling can
overlap the caller's own work (TIRM overlaps its greedy selection).
Speculation is legal because chunks are pure functions of their
``(entropy, ad, chunk)`` address: a speculative chunk is byte-identical
whether or not it ends up needed, and one that is never consumed is
simply discarded at close.

Shard cache (``cache=...`` / ``REPRO_CACHE``)
---------------------------------------------

With a cache directory configured, the engine is *read-through* over
the content-addressed shard store (:mod:`repro.store`): every sampling
path — :meth:`sample`, :meth:`ensure`, :meth:`prefetch` — consults the
cache **before** submitting compute, splices verified hits through the
single-copy ``add_flat_from_buffer`` path, and stores freshly computed
blocks for the next run.  Keys address what determines the bytes
(graph/probs content, stream entropy, chunk size, sampler mode) and
exclude the byte-identical substrate knobs (engine, workers, backend,
start method) — so a warm run performs **zero** sampling-backend
invocations (``backend_invocations`` counts them) while remaining
byte-identical to a cold one.  Every hit is integrity-checked against
its stored dsan digest on load; a poisoned entry is quarantined with a
warning and the block recomputed, never spliced.  Like prefetch, the
cache is **not** part of the determinism contract.

Legacy streams (``rng="legacy"``)
---------------------------------

The historical per-ad stateful streams (Mersenne scalar / PCG64
blocked), kept for bit-exact reproduction of the seed implementation.
They are strictly sequential — set ``k`` cannot be drawn without first
drawing sets ``0..k-1`` — so legacy requests are always served serially
in ad order, exactly like the pre-engine ``TIRMAllocator`` loop, even
under ``engine="process"`` (a warning says so).  Cached legacy entries
carry the post-request stream state, so a hit both splices the block
and advances the restored stream exactly as sampling would have; a
request sequence that diverges from the cached one stops consulting
the cache for that ad (the stream history no longer matches).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import warnings
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, wait
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.digraph import DirectedGraph
from repro.rrset.backends import resolve_backend
from repro.rrset.dsan import DsanRecorder, dsan_enabled
from repro.rrset.pool import MEMBER_DTYPE, RRSetPool
from repro.rrset.sampler import (
    DEFAULT_CHUNK_SIZE,
    RRSetSampler,
    StreamPlan,
    _slice_flat,
)
from repro.utils.rng import seed_entropy, spawn_generators

ENGINE_MODES = ("serial", "process")
SAMPLER_MODES = ("scalar", "blocked")
RNG_MODES = ("philox", "legacy")
START_METHODS = ("auto", "fork", "spawn")

#: How chunk results reach the parent, per engine mode — provenance
#: only, never part of the determinism contract: serial engines splice
#: in-process, the process pool returns pickled blocks over its result
#: pipe, and the distributed tier (:mod:`repro.dist`) uses its sockets.
TRANSPORT_BY_ENGINE = {"serial": "inline", "process": "pickle", "dist": "socket"}

_LENGTH_ITEMSIZE = np.dtype(np.int64).itemsize
_MEMBER_ITEMSIZE = np.dtype(MEMBER_DTYPE).itemsize

#: Engine-id allocator: payloads of concurrently live engines must not
#: collide in the worker-side registries.
_ENGINE_IDS = itertools.count()

#: Worker-visible payload registry.  Maps engine id -> (graph, per-ad
#: probability rows, per-ad entropies, chunk size, resolved sampling
#: backend).  Under fork the parent registers before creating the
#: executor and children inherit the entry copy-on-write; under spawn
#: the executor initializer fills the (fresh) worker-side registry from
#: the shipped payload arrays (:func:`_spawn_worker_init`).
_FORK_PAYLOADS: dict[int, tuple] = {}

#: Worker-side sampler cache, keyed by (engine id, ad).  Samplers are
#: rebuilt lazily per worker so the O(m) scalar adjacency flattening is
#: paid at most once per (worker, ad); chunk streams come from the
#: StreamPlan, so the cache seed is irrelevant.
_WORKER_SAMPLERS: dict[tuple[int, int], RRSetSampler] = {}


def _worker_sample_chunk(engine_id: int, ad: int, mode: str, chunk_index: int):
    """Run one chunk task in a worker: rebuild the ad's plan from the
    engine payload and return the chunk's full packed block.  The parent
    slices out the requested subrange and caches partial tail blocks, so
    a chunk is computed at most once per engine lifetime."""
    key = (engine_id, ad)
    graph, probs_per_ad, entropies, chunk_size, backend = _FORK_PAYLOADS[engine_id]
    sampler = _WORKER_SAMPLERS.get(key)
    if sampler is None:
        sampler = RRSetSampler(graph, probs_per_ad[ad], seed=0, backend=backend)
        _WORKER_SAMPLERS[key] = sampler
    plan = StreamPlan(entropies[ad], ad, chunk_size)
    members, lengths = sampler.sample_chunk_block(plan, chunk_index, mode=mode)
    return ad, chunk_index, members, lengths


def _payload_parts(
    graph: DirectedGraph, samplers: Sequence,
) -> list[tuple[str, np.ndarray]]:
    """The engine payload as named contiguous arrays — the graph in-CSR
    plus one canonical probability row per advertiser.  Single source of
    truth for every payload shipment: the spawn initializer arguments
    (:meth:`ShardedSamplingEngine._spawn_initargs`) carry exactly this
    list, the distributed tier's session PAYLOAD frame (:mod:`repro.dist`)
    packs it, and workers on either substrate rebuild identical arrays."""
    parts: list[tuple[str, np.ndarray]] = [
        ("in_indptr", np.ascontiguousarray(graph.in_indptr)),
        ("in_sources", np.ascontiguousarray(graph.in_sources)),
        ("in_edge_ids", np.ascontiguousarray(graph.in_edge_ids)),
    ]
    for ad, sampler in enumerate(samplers):
        parts.append(
            (f"probs_{ad}", np.ascontiguousarray(sampler.edge_probabilities))
        )
    return parts


def _payload_layout(
    parts: list[tuple[str, np.ndarray]],
) -> tuple[list[tuple[str, str, int, int]], int]:
    """8-byte-aligned ``(key, dtype, count, offset)`` layout for a flat
    payload buffer holding ``parts``, plus the buffer's total size."""
    layout: list[tuple[str, str, int, int]] = []
    offset = 0
    for key, array in parts:
        offset = (offset + 7) & ~7  # 8-byte align every block
        layout.append((key, array.dtype.str, int(array.size), offset))
        offset += array.nbytes
    return layout, max(offset, 1)


def _graph_from_arrays(
    num_nodes: int, num_edges: int, arrays: Mapping[str, np.ndarray],
) -> DirectedGraph:
    """Rebuild a sampling-sufficient graph from payload views.  The
    sampling paths only touch the in-CSR (plus the two dims), so the
    payload ships exactly that; bypass the sorting/validating
    constructor and bind the views directly to the slots."""
    graph = object.__new__(DirectedGraph)
    graph.num_nodes = int(num_nodes)
    graph.num_edges = int(num_edges)
    graph.in_indptr = arrays["in_indptr"]
    graph.in_sources = arrays["in_sources"]
    graph.in_edge_ids = arrays["in_edge_ids"]
    return graph


def _spawn_worker_init(
    engine_id: int,
    parts: list[tuple[str, np.ndarray]],
    graph_dims: tuple[int, int, int],
    entropies: tuple[int, ...],
    chunk_size: int,
    backend_spec,
) -> None:
    """Executor initializer under the spawn start method: rebuild the
    payload registry entry from the :func:`_payload_parts` arrays, which
    the executor pickles once per worker along with the other arguments.

    ``backend_spec`` is a backend name (re-resolved here, since resolved
    backends may hold unpicklable compiled kernels) or, for custom
    backends, a picklable instance.
    """
    arrays = dict(parts)
    num_nodes, num_edges, h = graph_dims
    graph = _graph_from_arrays(num_nodes, num_edges, arrays)
    probs_per_ad = [arrays[f"probs_{ad}"] for ad in range(h)]
    backend = (
        resolve_backend(backend_spec) if isinstance(backend_spec, str) else backend_spec
    )
    _FORK_PAYLOADS[engine_id] = (graph, probs_per_ad, entropies, chunk_size, backend)


def _release_engine_resources(resources: dict) -> None:
    """Teardown shared by ``close()`` and the GC finalizer: cancel
    in-flight prefetch futures, shut the worker pool down, and drop the
    payload registry entry.  Runs at most once per engine
    (``weakref.finalize`` guarantees it), in whichever comes first —
    explicit close, context-manager exit, or garbage collection.  Every
    step is idempotent and exception-safe."""
    inflight = resources.get("inflight")
    if inflight:
        for future in inflight.values():
            future.cancel()
        inflight.clear()
    executor = resources.get("executor")
    if executor is not None:
        resources["executor"] = None
        executor.shutdown(wait=True)
    payload_key = resources.get("payload_key")
    if payload_key is not None:
        resources["payload_key"] = None
        _FORK_PAYLOADS.pop(payload_key, None)
    # Distributed session (repro.dist): release the payload held by the
    # coordinator — and the coordinator itself when this engine built it
    # from a spec (a borrowed coordinator belongs to the caller).
    dist = resources.get("dist")
    if dist is not None:
        resources["dist"] = None
        coordinator, session_id, owned = dist
        try:
            coordinator.release_session(session_id)
        except Exception:  # pragma: no cover - teardown must not raise
            pass
        if owned:
            try:
                coordinator.close()
            except Exception:  # pragma: no cover - teardown must not raise
                pass
    # Shard cache last: an engine-owned cache is closed (flush + catalog
    # close); a shared one (TIRM owns it) is only flushed, so its batched
    # catalog rows land before the owner reads or closes it.
    cache = resources.get("cache")
    if cache is not None:
        resources["cache"] = None
        try:
            if resources.get("cache_owned"):
                cache.close()
            else:
                cache.flush()
        except Exception:  # pragma: no cover - interpreter-shutdown race
            pass


class ShardedSamplingEngine:
    """One RR-set pool shard per advertiser, with chunk-parallel sampling.

    Parameters
    ----------
    graph:
        The social graph shared by every shard.
    probs_per_ad:
        One per-canonical-edge probability array per advertiser.
    seeds:
        With ``rng="philox"``: a single seed-like whose
        :func:`~repro.utils.rng.seed_entropy` becomes the global stream
        root (per-ad streams are separated by the ``spawn_key``), or a
        sequence of ``h`` seed-likes for explicit per-ad roots.  With
        ``rng="legacy"``: a sequence of ``h`` per-ad seeds, or a single
        seed split into ``h`` child streams — exactly the historical
        behavior.
    mode:
        ``"blocked"`` (vectorized batched BFS) or ``"scalar"`` (the
        per-set Python BFS) — the same knob as
        ``TIRMAllocator(sampler_mode=...)``.
    engine:
        ``"serial"`` samples in-process; ``"process"`` fans chunk tasks
        across a process pool.  Both produce bit-identical shards for
        the same ``(seeds, chunk_size)``.
    max_workers:
        Process-pool width (default: ``os.cpu_count()``).
    rng:
        ``"philox"`` (counter-based, chunk-parallel; default) or
        ``"legacy"`` (the historical stateful streams, always serial).
    chunk_size:
        Set-index chunk width of the counter-based streams.  Part of the
        determinism contract — resampling with a different chunk size
        yields different (equally valid) sets.
    backend:
        Blocked-BFS backend (:mod:`repro.rrset.backends`): ``"numpy"``
        (reference, default), ``"numba"`` (JIT kernel), ``"auto"``, or
        a :class:`~repro.rrset.backends.SamplingBackend` instance.
        Resolved once here; workers inherit (fork) or rebuild (spawn)
        the resolved backend with the payload.  **Not** part of the
        determinism contract — every backend yields byte-identical
        shards.
    start_method:
        Process start method for the worker pool: ``"fork"``,
        ``"spawn"``, or ``"auto"`` (default: fork where available, else
        spawn).  Spawn workers receive the payload once, through the
        executor initializer, so they run at full parallelism; if the
        requested method does not exist, the engine degrades to serial
        sampling with a warning.  **Not** part of the determinism
        contract.
    dsan:
        Runtime determinism sanitizer (:mod:`repro.rrset.dsan`):
        ``True`` keeps a blake2 digest per ``(ad, chunk)`` over every
        block spliced into the shards, readable via
        :meth:`dsan_digests` / :meth:`dsan_root`.  ``None`` (default)
        defers to the ``REPRO_DSAN`` environment variable.  Recording
        is pure observation — a sanitized run is byte-identical to an
        unsanitized one.
    dsan_expected:
        Optional reference digest map (a prior run's
        :meth:`dsan_digests`).  Implies ``dsan``; every recorded chunk
        is checked inline and the first divergence raises
        :class:`~repro.errors.DeterminismError` naming its
        ``(ad, chunk)``.
    cache:
        Shard cache knob (:mod:`repro.store`): a directory path opens a
        cache the engine owns (and closes), a ready
        :class:`~repro.store.ShardCache` is shared (the engine only
        flushes it), and ``None`` (default) defers to the
        ``REPRO_CACHE`` environment variable.  With a cache, every
        sampling path checks the store before computing and stores what
        it computes; ``backend_invocations`` counts actual compute.
        **Not** part of the determinism contract — hits are verified
        against their stored digests, so cached and uncached runs are
        byte-identical (see the module notes above).

    Examples
    --------
    Two advertisers, ten RR-sets each, served serially in-process::

        >>> from repro.graph.generators import erdos_renyi
        >>> from repro.graph.probabilities import constant_probabilities
        >>> from repro.rrset import ShardedSamplingEngine
        >>> graph = erdos_renyi(40, 0.1, seed=2)
        >>> probs = constant_probabilities(graph, 0.1)
        >>> with ShardedSamplingEngine(
        ...     graph, [probs, probs], seeds=11, chunk_size=8
        ... ) as engine:
        ...     engine.ensure({0: 10, 1: 10})   # grow shards to 10 sets
        ...     engine.total_sets()
        20
    """

    def __init__(
        self,
        graph: DirectedGraph,
        probs_per_ad: Sequence,
        *,
        seeds=None,
        mode: str = "blocked",
        engine: str = "serial",
        max_workers: int | None = None,
        rng: str = "philox",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        backend="numpy",
        start_method: str = "auto",
        dsan: bool | None = None,
        dsan_expected: Mapping | None = None,
        cache=None,
        retain_blocks: bool = False,
    ) -> None:
        if mode not in SAMPLER_MODES:
            raise ConfigurationError(
                f"mode must be one of {SAMPLER_MODES}, got {mode!r}"
            )
        if engine not in ENGINE_MODES:
            raise ConfigurationError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        if rng not in RNG_MODES:
            raise ConfigurationError(f"rng must be one of {RNG_MODES}, got {rng!r}")
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if start_method not in START_METHODS:
            raise ConfigurationError(
                f"start_method must be one of {START_METHODS}, got {start_method!r}"
            )
        probs_per_ad = list(probs_per_ad)
        if not probs_per_ad:
            raise ConfigurationError("need at least one advertiser")
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.graph = graph
        self.mode = mode
        self.engine = engine
        self.rng = rng
        self.chunk_size = int(chunk_size)
        # Resolve once, up front: "auto" picks its substrate here (and
        # warns here if it degrades), workers inherit the *resolved*
        # backend via the payload, and provenance records its name
        # (`backend_name`, mirroring RRSetSampler.backend/.backend_name).
        self.backend = resolve_backend(backend)
        # Provenance only: how worker results reach the parent follows
        # from the engine mode (see TRANSPORT_BY_ENGINE).
        self.transport = TRANSPORT_BY_ENGINE[engine]
        self._start_method = (
            self._resolve_start_method(start_method) if engine == "process" else None
        )
        h = len(probs_per_ad)
        if isinstance(seeds, (list, tuple)) and len(seeds) != h:
            raise ConfigurationError(
                f"got {len(seeds)} per-ad seeds for {h} advertisers"
            )
        if rng == "philox":
            if isinstance(seeds, (list, tuple)):
                entropies = [seed_entropy(s) for s in seeds]
            else:
                root = seed_entropy(seeds)
                entropies = [root] * h
            self._entropies: list[int] | None = entropies
            self._plans = [
                StreamPlan(entropies[ad], ad, self.chunk_size) for ad in range(h)
            ]
            # Chunk streams come from the plans; the sampler seed is inert.
            self._samplers = [
                RRSetSampler(graph, probs_per_ad[ad], seed=0, backend=self.backend)
                for ad in range(h)
            ]
        else:
            if isinstance(seeds, (list, tuple)):
                per_ad_seeds = list(seeds)
            else:
                per_ad_seeds = spawn_generators(seeds, h)
            self._entropies = None
            self._plans = None
            self._samplers = [
                RRSetSampler(
                    graph, probs_per_ad[ad], seed=per_ad_seeds[ad],
                    backend=self.backend,
                )
                for ad in range(h)
            ]
        # Captured before any sampling: reset_for_reuse rewinds the
        # stateful legacy streams to these states so a reused engine
        # replays the exact per-ad sequences a fresh engine would.
        # (Philox streams need no capture — they are stateless functions
        # of (entropy, ad, chunk); only num_sampled is rewound.)
        self._legacy_initial_states = (
            [sampler.legacy_state() for sampler in self._samplers]
            if rng == "legacy"
            else None
        )
        self._shards = [RRSetPool(graph.num_nodes) for _ in range(h)]
        # Per-ad cache of the last *partial* tail chunk's full block:
        # chunks are pure, so a θ continuation that re-enters the chunk
        # can reuse the block instead of resampling it.  Bounded by one
        # block per ad; with it, every chunk is computed exactly once
        # per engine lifetime.  ad -> (chunk_index, (members, lengths)).
        self._tail_blocks: dict[int, tuple[int, tuple[np.ndarray, np.ndarray]]] = {}
        # In-memory chunk-block memo for pooled (resident) engines: with
        # ``retain_blocks`` every full chunk block ever spliced is kept,
        # keyed by its pure ``(ad, chunk)`` stream address, and consulted
        # before the shard cache and the backend.  This is what makes a
        # warm-pool resubmit perform *zero* backend invocations even
        # without a disk cache: :meth:`reset_for_reuse` empties the
        # shards but keeps the memo, because chunk addresses — unlike
        # shard contents — are independent of run history.  Off by
        # default (batch engines die after one run; the memo would only
        # duplicate the shards' memory).
        self._retain_blocks = bool(retain_blocks)
        self._block_memo: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._max_workers = max_workers
        self._engine_id = next(_ENGINE_IDS)
        self._warned_degraded = False
        # Determinism sanitizer: an explicit expected map implies dsan
        # (there is nothing to check the map against otherwise).
        self._dsan_expected = dsan_expected
        self._dsan: DsanRecorder | None = (
            DsanRecorder(
                expected=dsan_expected, label=f"engine#{self._engine_id}"
            )
            if dsan_enabled(dsan) or dsan_expected is not None
            else None
        )
        # Legacy streams have no chunk addresses; dsan keys them by the
        # per-ad request ordinal instead (see repro.rrset.dsan).
        self._legacy_ordinals: dict[int, int] = {}
        #: Sampling-backend invocations this engine actually performed
        #: (serial chunk computes, worker submits, legacy draws).  The
        #: warm-start headline: a fully cached run keeps this at zero.
        self.backend_invocations = 0
        # Read-through shard cache.  Imported lazily: repro.store imports
        # repro.rrset for the block format and digests, so a module-level
        # import here would be circular.
        from repro.store.cache import resolve_cache

        self._cache, self._cache_owned = resolve_cache(cache)
        self._shard_keys: list[str] | None = None
        self._cache_meta: list[dict] | None = None
        # Ads whose legacy request sequence diverged from the cached one
        # (membership tests only — never iterated).
        self._legacy_diverged: set[int] = set()
        if self._cache is not None:
            self._init_shard_keys()
        # Speculative prefetch ledger: (ad, chunk) -> in-flight future.
        # Shared with the teardown resources so close() can cancel and
        # drain it even from the GC finalizer (which cannot see self).
        self._inflight: dict[tuple[int, int], Future] = {}
        self._resources: dict = {
            "executor": None,
            "payload_key": None,
            "inflight": self._inflight,
            "cache": self._cache,
            "cache_owned": self._cache_owned,
        }
        if engine == "process" and rng == "philox" and self._start_method != "spawn":
            _FORK_PAYLOADS[self._engine_id] = (
                graph, probs_per_ad, entropies, self.chunk_size, self.backend,
            )
            self._resources["payload_key"] = self._engine_id
        try:
            # GC-safe teardown: __del__ runs in arbitrary GC order (flaky
            # under pytest-xdist), finalize does not.  close() triggers the
            # same callback, so teardown is idempotent by construction.
            self._finalizer = weakref.finalize(
                self, _release_engine_resources, self._resources
            )
            if engine == "process" and rng == "legacy":
                warnings.warn(
                    f"ShardedSamplingEngine #{self._engine_id}: rng='legacy' streams "
                    "are stateful and strictly sequential, so engine='process' will "
                    "sample serially; use rng='philox' for chunk-parallel sampling",
                    RuntimeWarning,
                    stacklevel=2,
                )
        except BaseException:
            # Construction failed after the fork payload was registered
            # (e.g. an error-filtered warning): a half-built engine has no
            # finalizer yet, so release its resources here instead of
            # leaking the payload (and any executor) forever.
            _release_engine_resources(self._resources)
            raise

    def _init_shard_keys(self) -> None:
        """Content addresses for every ad's stream (key schema:
        :mod:`repro.store.keys`).  Keys pin what determines the bytes —
        graph content, edge probabilities, stream entropy (philox) or
        initial stream state (legacy), chunk size, sampler mode — and
        exclude the byte-identical substrate (engine / backend /
        start method / workers)."""
        from repro.store.keys import legacy_shard_key, philox_shard_key, state_hash
        from repro.utils.hashing import array_digest, graph_digest

        graph_hash = graph_digest(self.graph)
        keys: list[str] = []
        meta: list[dict] = []
        for ad, sampler in enumerate(self._samplers):
            probs_hash = array_digest(sampler.edge_probabilities, label="probs")
            if self.rng == "philox":
                key = philox_shard_key(
                    graph_hash=graph_hash, probs_hash=probs_hash,
                    entropy=self._entropies[ad], ad=ad,
                    chunk_size=self.chunk_size, mode=self.mode,
                )
                entropy = str(self._entropies[ad])
            else:
                # The legacy key pins the *initial* stream state: entries
                # are keyed by request ordinal and carry the post-request
                # state, so hits replay the exact sampling sequence.
                key = legacy_shard_key(
                    graph_hash=graph_hash, probs_hash=probs_hash,
                    state_hash=state_hash(sampler.legacy_state()),
                    ad=ad, mode=self.mode,
                )
                entropy = None
            keys.append(key)
            meta.append({
                "ad": ad,
                "rng": self.rng,
                "mode": self.mode,
                "chunk_size": self.chunk_size,
                "entropy": entropy,
                "graph_hash": graph_hash,
            })
        self._shard_keys = keys
        self._cache_meta = meta

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_ads(self) -> int:
        """Number of shards ``h``."""
        return len(self._shards)

    @property
    def backend_name(self) -> str:
        """The resolved backend's name (stats/provenance string; the
        backend *instance* is ``self.backend``)."""
        return self.backend.name

    @property
    def start_method(self) -> str | None:
        """The resolved worker start method (``"fork"`` or ``"spawn"``),
        or ``None`` for serial engines and degraded process engines."""
        return self._start_method

    @property
    def dsan(self) -> bool:
        """Whether the determinism sanitizer is recording on this engine."""
        return self._dsan is not None

    def dsan_digests(self) -> dict[tuple[int, int], str]:
        """Copy of the sanitizer's digest map (``{}`` when dsan is off).

        Keys are ``(ad, chunk_index)`` stream addresses under
        ``rng="philox"`` and ``(ad, request_ordinal)`` under
        ``rng="legacy"``; values are blake2 hexdigests of the full
        packed chunk block.  Two engines asked to reach the same targets
        must produce equal maps (:func:`repro.rrset.dsan.compare_digests`
        raises at the first divergent chunk when they do not).
        """
        return {} if self._dsan is None else dict(self._dsan.digests)

    def dsan_root(self) -> str | None:
        """One digest over the whole digest map — the compact run
        fingerprint recorded in TIRM stats/provenance (``None`` when
        dsan is off)."""
        return None if self._dsan is None else self._dsan.root_digest()

    @property
    def cache(self):
        """The engine's shard cache (:class:`repro.store.ShardCache`),
        or ``None`` when caching is off."""
        return self._cache

    def cache_stats(self) -> dict | None:
        """Copy of the cache's hit/miss/store/corrupt counters plus its
        directory under ``"path"`` (``None`` when caching is off)."""
        if self._cache is None:
            return None
        stats = dict(self._cache.stats)
        stats["path"] = self._cache.directory
        return stats

    def shard_cache_refs(self) -> list[tuple[str, int]]:
        """The cache blocks this engine's shards were (or could have
        been) served from: one ``(shard_key, max_index)`` pair per
        non-empty ad.  TIRM registers these against each checkpoint so
        ``repro gc`` keeps the blocks a warm resume would re-read.
        Empty without a cache."""
        if self._shard_keys is None:
            return []
        refs: list[tuple[str, int]] = []
        for ad, key in enumerate(self._shard_keys):
            if self.rng == "philox":
                total = self._shards[ad].num_total
                if total:
                    refs.append((key, (total - 1) // self.chunk_size))
            else:
                ordinal = self._legacy_ordinals.get(ad, 0)
                if ordinal:
                    refs.append((key, ordinal - 1))
        return refs

    def shard(self, ad: int) -> RRSetPool:
        """The advertiser's RR-set pool shard."""
        return self._shards[ad]

    def sampler(self, ad: int) -> RRSetSampler:
        """The advertiser's sampler (the parent-side BFS core)."""
        return self._samplers[ad]

    def plan(self, ad: int) -> StreamPlan | None:
        """The advertiser's counter-based stream plan (``None`` under
        ``rng="legacy"``)."""
        return None if self._plans is None else self._plans[ad]

    def stream_entropy(self, ad: int) -> int | None:
        """The ad's stream entropy root (``None`` under ``rng="legacy"``)."""
        return None if self._entropies is None else self._entropies[ad]

    def total_sets(self) -> int:
        """Σ over shards of sets ever sampled."""
        return int(sum(s.num_total for s in self._shards))

    def memory_bytes(self) -> int:
        """Σ over shards of bytes held (the Table-4 figure), plus the
        resident chunk-block memo of a ``retain_blocks`` engine — honest
        accounting for the warm-pool residency."""
        memo_bytes = sum(
            int(members.nbytes) + int(lengths.nbytes)
            for members, lengths in self._block_memo.values()
        )
        return int(sum(s.memory_bytes() for s in self._shards)) + int(memo_bytes)

    # ------------------------------------------------------------------
    # Warm reuse
    # ------------------------------------------------------------------
    def reset_for_reuse(self) -> None:
        """Rewind the engine to its just-constructed state so a second
        run over it is byte-identical to a fresh-engine run.

        This is the leasing contract of the service tier's engine pool:
        everything *run-scoped* is cleared — shards (fresh empty pools:
        ``θ = num_total`` must restart at zero), per-ad tail-block
        caches, in-flight prefetch futures (cancelled or drained), dsan
        digests (a fresh recorder with the original ``expected`` map),
        legacy request ordinals and divergence marks (the stateful
        legacy streams are rewound to their captured initial states),
        sampler positions, and the ``backend_invocations`` counter —
        while everything *engine-scoped* stays warm: the worker pool
        with its payload and JIT-compiled backend state, the shard cache
        handle and content keys, and the ``retain_blocks`` chunk-block
        memo (chunks are pure functions of ``(entropy, ad, chunk)``,
        which reuse does not change).

        Without this, a second allocation against a reused engine
        inherits the previous run's tail blocks and dsan state — stale
        θ accounting and false divergence reports.  Raises
        :class:`~repro.errors.ConfigurationError` on a closed engine.
        """
        if not self._finalizer.alive:
            raise ConfigurationError(
                f"cannot reset ShardedSamplingEngine #{self._engine_id}: "
                "the engine is closed"
            )
        # Drain the prefetch ledger in place — the dict object is shared
        # with the teardown resources, so it must be cleared, not
        # replaced.
        self._drain_futures(self._inflight.values())
        self._inflight.clear()
        self._shards = [RRSetPool(self.graph.num_nodes) for _ in self._shards]
        self._tail_blocks.clear()
        self._legacy_ordinals.clear()
        self._legacy_diverged.clear()
        if self._dsan is not None:
            self._dsan = DsanRecorder(
                expected=self._dsan_expected, label=f"engine#{self._engine_id}"
            )
        self.backend_invocations = 0
        if self.rng == "legacy":
            for sampler, state in zip(
                self._samplers, self._legacy_initial_states
            ):
                sampler.set_legacy_state(state)
        else:
            for sampler in self._samplers:
                sampler.num_sampled = 0

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, requests: Mapping[int, int]) -> None:
        """Top up shards: draw ``requests[ad]`` extra sets into each
        listed ad's shard.

        This is the engine's single entry point — TIRM routes both the
        initial pilot phase (all ads at once) and every Algorithm-4
        growth top-up through it.  Under ``rng="philox"`` the request is
        decomposed into fixed-size ``(ad, chunk)`` tasks — a single ad's
        θ top-up included — which process mode fans across the worker
        pool; blocks are spliced back in ascending ``(ad, chunk)`` order
        regardless of completion order, so results are bit-identical for
        serial, 1-worker, and N-worker execution.
        """
        cleaned: dict[int, int] = {}
        for ad, count in requests.items():
            ad, count = int(ad), int(count)
            if not 0 <= ad < self.num_ads:
                raise ConfigurationError(f"ad {ad} out of range [0, {self.num_ads})")
            if count < 0:
                raise ConfigurationError(f"count must be >= 0, got {count} for ad {ad}")
            if count:
                cleaned[ad] = count
        if not cleaned:
            return
        if self.rng == "legacy":
            self._sample_serial_legacy(cleaned)
            return
        tasks: list[tuple[int, int, int, int]] = []
        for ad in sorted(cleaned):
            start = self._shards[ad].num_total
            for chunk_index, lo, hi in self._plans[ad].chunk_tasks(
                start, start + cleaned[ad]
            ):
                tasks.append((ad, chunk_index, lo, hi))
        self._dispatch_tasks(tasks)

    def _dispatch_tasks(self, tasks: list[tuple[int, int, int, int]]) -> None:
        """Execution seam: route a decomposed ``(ad, chunk, lo, hi)``
        task list to a substrate.  The base engine picks between the
        in-process path and the worker pool; subclasses (the distributed
        engine, :mod:`repro.dist`) override this single method to scatter
        the same tasks elsewhere — splice order, dsan recording, and the
        cache write-through all live above this seam, so every substrate
        is byte-identical by construction."""
        # A closed engine has no pool or payload left — serve in-process.
        # (A closed engine also has no in-flight futures: close drained
        # them.)  Any in-flight prefetch future matching a task must be
        # harvested through the pool path even for single-task requests.
        needs_pool = len(tasks) > 1 or any(
            (ad, chunk) in self._inflight for ad, chunk, _, _ in tasks
        )
        use_pool = (
            self.engine == "process" and needs_pool and self._finalizer.alive
        )
        if use_pool and self._start_method is None:
            if not self._warned_degraded:
                self._warned_degraded = True
                self._warn_degraded()
            use_pool = False
        if use_pool:
            self._run_tasks_process(tasks)
        else:
            self._run_tasks_serial(tasks)

    def ensure(self, targets: Mapping[int, int]) -> None:
        """Grow shards to *absolute* set counts: for each ad, sample
        exactly the missing index range ``[num_total, target)``.

        This is the index-addressed form of :meth:`sample`: callers name
        the sample-size target (TIRM's ``θ_i``) instead of a delta from
        the current stream position, which — together with the pure
        chunk streams — makes a mid-allocation resume deterministic: any
        engine with the same ``(seeds, chunk_size)`` asked to reach the
        same targets holds the same shards, no matter how the requests
        were split.  Targets at or below the current count are no-ops.
        In-flight chunks submitted by :meth:`prefetch` are harvested
        before any remainder is submitted.
        """
        self.sample(self._targets_to_extras(targets))

    def prefetch(self, targets: Mapping[int, int]) -> int:
        """Speculatively submit the chunk tasks needed to reach the
        given *absolute* per-ad targets, without blocking; returns how
        many tasks were submitted.

        A later :meth:`ensure`/:meth:`sample` harvests matching
        in-flight futures before submitting anything new, so sampling
        overlaps whatever the caller does in between (TIRM overlaps its
        greedy selection).  Speculation cannot change results: chunks
        are pure functions of their ``(entropy, ad, chunk)`` address, so
        a speculative chunk is byte-identical whether or not it ends up
        needed — and one never consumed is discarded at :meth:`close`.

        No-op (returns 0) for serial engines, legacy streams, degraded
        or closed engines, and for chunks already pooled, cached, or in
        flight.
        """
        extras = self._targets_to_extras(targets)
        if (
            self.rng != "philox"
            or self.engine != "process"
            or self._start_method is None
            or not self._finalizer.alive
            or not extras
        ):
            return 0
        submitted = 0
        executor = None
        for ad in sorted(extras):
            start = self._shards[ad].num_total
            for chunk_index, _, _ in self._plans[ad].chunk_tasks(
                start, start + extras[ad]
            ):
                key = (ad, chunk_index)
                if (
                    key in self._inflight
                    or self._cached_block(ad, chunk_index) is not None
                    or (
                        self._cache is not None
                        and self._cache.has(self._shard_keys[ad], chunk_index)
                    )
                ):
                    continue
                if executor is None:
                    # Lazy: a fully cache-warm prefetch spawns no pool.
                    executor = self._ensure_executor()
                self._inflight[key] = executor.submit(
                    _worker_sample_chunk, self._engine_id, ad, self.mode,
                    chunk_index,
                )
                self.backend_invocations += 1
                submitted += 1
        return submitted

    def _targets_to_extras(self, targets: Mapping[int, int]) -> dict[int, int]:
        extras: dict[int, int] = {}
        for ad, target in targets.items():
            ad, target = int(ad), int(target)
            if not 0 <= ad < self.num_ads:
                raise ConfigurationError(f"ad {ad} out of range [0, {self.num_ads})")
            if target < 0:
                raise ConfigurationError(
                    f"target must be >= 0, got {target} for ad {ad}"
                )
            current = self._shards[ad].num_total
            if target > current:
                extras[ad] = target - current
        return extras

    def _sample_serial_legacy(self, requests: dict[int, int]) -> None:
        for ad in sorted(requests):
            sampler, shard, count = self._samplers[ad], self._shards[ad], requests[ad]
            if self._cache is not None:
                self._sample_legacy_cached(ad, sampler, shard, count)
            elif self._dsan is not None:
                # Same streams and same pool state as the *_into paths
                # (sample_flat is the documented bit-exact equivalent),
                # but routed through a packed block so it can be hashed.
                # Legacy streams have no chunk addresses, so the digest
                # key is the per-ad request ordinal.
                members, lengths = sampler.sample_flat(count, mode=self.mode)
                ordinal = self._legacy_ordinals.get(ad, 0)
                self._legacy_ordinals[ad] = ordinal + 1
                self._dsan.record(ad, ordinal, members, lengths)
                shard.add_flat(members, lengths)
                self.backend_invocations += 1
            elif self.mode == "blocked":
                sampler.sample_blocked_into(shard, count)
                self.backend_invocations += 1
            else:
                sampler.sample_into(shard, count)
                self.backend_invocations += 1

    def _sample_legacy_cached(self, ad, sampler, shard, count: int) -> None:
        """One legacy request through the shard cache.

        Entries are keyed by the per-ad request ordinal under the
        *initial-state* shard key and carry the post-request stream
        state, so a hit both splices the block and advances the stream
        exactly as sampling would have.  A request sequence that
        diverges from the cached one (an entry exists but its set count
        differs) permanently stops consulting — and extending — this
        ad's cached sequence: every later cached entry assumes a stream
        history this run no longer shares.
        """
        ordinal = self._legacy_ordinals.get(ad, 0)
        self._legacy_ordinals[ad] = ordinal + 1
        diverged = ad in self._legacy_diverged
        if not diverged:
            entry = self._cache.load(self._shard_keys[ad], ordinal)
            if entry is not None:
                try:
                    if entry.num_sets != count or entry.state is None:
                        self._legacy_diverged.add(ad)
                        diverged = True
                    else:
                        if self._dsan is not None:
                            self._dsan.record(
                                ad, ordinal, entry.members, entry.lengths
                            )
                        shard.add_flat_from_buffer(
                            entry.buffer,
                            num_sets=entry.num_sets,
                            num_members=entry.num_members,
                            lengths_offset=entry.lengths_offset,
                            members_offset=entry.members_offset,
                        )
                        sampler.set_legacy_state(entry.state)
                        return
                finally:
                    entry.release()
        members, lengths = sampler.sample_flat(count, mode=self.mode)
        self.backend_invocations += 1
        if self._dsan is not None:
            self._dsan.record(ad, ordinal, members, lengths)
        if not diverged:
            # A plain miss extends the cached sequence: every earlier
            # ordinal hit (or was stored), so the stream state matches.
            self._cache.store(
                self._shard_keys[ad], ordinal, members, lengths,
                state=sampler.legacy_state(), meta=self._cache_meta[ad],
            )
        shard.add_flat(members, lengths)

    def _cached_block(self, ad: int, chunk_index: int):
        cached = self._tail_blocks.get(ad)
        if cached is not None and cached[0] == chunk_index:
            return cached[1]
        if self._retain_blocks:
            return self._block_memo.get((ad, chunk_index))
        return None

    def _retain_block(
        self, ad: int, chunk_index: int, block, *, copy: bool = False
    ) -> None:
        """Memoize a full chunk block for the resident-engine memo (see
        ``retain_blocks``); ``copy`` when the arrays view a buffer that
        dies with the caller (a cache entry)."""
        if not self._retain_blocks:
            return
        if copy:
            block = (block[0].copy(), block[1].copy())
        self._block_memo[(ad, chunk_index)] = block

    def _store_chunk(self, ad: int, chunk_index: int, block) -> None:
        """Write one freshly computed *full* chunk block through to the
        shard cache (no-op without one; write failures warn once inside
        the cache and never fail the run)."""
        if self._cache is not None:
            self._cache.store(
                self._shard_keys[ad], chunk_index, block[0], block[1],
                meta=self._cache_meta[ad],
            )

    def _splice_from_cache(
        self, ad: int, chunk_index: int, lo: int, hi: int
    ) -> bool:
        """Serve sets ``[lo, hi)`` of a chunk from the shard cache.

        The load verifies the entry against its stored digest
        (:meth:`repro.store.ShardCache.load`); a verified block is
        spliced through the pool's single-copy buffer path and recorded
        with dsan exactly like a computed block.  Returns ``False`` on
        miss or quarantined corruption, and the caller recomputes: the
        cache can only ever save work, never change bytes."""
        entry = self._cache.load(self._shard_keys[ad], chunk_index)
        if entry is None:
            return False
        try:
            if entry.num_sets != self.chunk_size:
                # Impossible under the key schema (chunk size is part of
                # the key); refuse to splice rather than trust it.
                return False
            if self._dsan is not None:
                self._dsan.record(ad, chunk_index, entry.members, entry.lengths)
            self._retain_block(
                ad, chunk_index, (entry.members, entry.lengths), copy=True
            )
            bounds = np.zeros(entry.num_sets + 1, dtype=np.int64)
            np.cumsum(entry.lengths, out=bounds[1:])
            self._shards[ad].add_flat_from_buffer(
                entry.buffer,
                num_sets=hi - lo,
                num_members=int(bounds[hi] - bounds[lo]),
                lengths_offset=entry.lengths_offset + lo * _LENGTH_ITEMSIZE,
                members_offset=(
                    entry.members_offset + int(bounds[lo]) * _MEMBER_ITEMSIZE
                ),
            )
            self._samplers[ad].num_sampled += hi - lo
            if hi < self.chunk_size:
                # The tail cache must own its block: the mapping dies now.
                self._tail_blocks[ad] = (
                    chunk_index, (entry.members.copy(), entry.lengths.copy())
                )
            else:
                self._tail_blocks.pop(ad, None)
            return True
        finally:
            entry.release()

    def _splice_block(
        self, ad: int, chunk_index: int, lo: int, hi: int, block
    ) -> None:
        """Append sets ``[lo, hi)`` of the chunk to the ad's shard and
        cache the block when the chunk is still partially consumed."""
        if self._dsan is not None:
            # Digest the *full* chunk block (workers always compute whole
            # chunks), so serial, worker and tail-cache arrivals of the
            # same chunk hash the same bytes by construction.
            self._dsan.record(ad, chunk_index, block[0], block[1])
        self._retain_block(ad, chunk_index, block)
        members, lengths = _slice_flat(block[0], block[1], lo, hi)
        self._shards[ad].add_flat(members, lengths)
        self._samplers[ad].num_sampled += hi - lo
        if hi < self.chunk_size:
            self._tail_blocks[ad] = (chunk_index, block)
        else:
            self._tail_blocks.pop(ad, None)

    def _run_tasks_serial(self, tasks: list[tuple[int, int, int, int]]) -> None:
        for ad, chunk_index, lo, hi in tasks:
            block = self._cached_block(ad, chunk_index)
            if block is None:
                if self._cache is not None and self._splice_from_cache(
                    ad, chunk_index, lo, hi
                ):
                    continue
                block = self._samplers[ad].sample_chunk_block(
                    self._plans[ad], chunk_index, mode=self.mode
                )
                self.backend_invocations += 1
                self._store_chunk(ad, chunk_index, block)
            self._splice_block(ad, chunk_index, lo, hi, block)

    def _run_tasks_process(self, tasks: list[tuple[int, int, int, int]]) -> None:
        executor = None
        blocks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        pending: dict[tuple[int, int], Future] = {}
        cache_hits: set[tuple[int, int]] = set()
        try:
            for ad, chunk_index, lo, hi in tasks:
                key = (ad, chunk_index)
                inflight = self._inflight.pop(key, None)
                if inflight is not None:
                    pending[key] = inflight  # harvest prefetched work
                    continue
                block = self._cached_block(ad, chunk_index)
                if block is not None:
                    blocks[key] = block
                    continue
                if self._cache is not None and self._cache.has(
                    self._shard_keys[ad], chunk_index
                ):
                    # Submit-or-skip on a cheap existence probe; the
                    # splice loop below does the verified load (and
                    # recomputes in-process if the entry fails it).
                    cache_hits.add(key)
                    continue
                if executor is None:
                    # Lazy: a fully cache-warm request spawns no pool.
                    executor = self._ensure_executor()
                pending[key] = executor.submit(
                    _worker_sample_chunk, self._engine_id, ad, self.mode,
                    chunk_index,
                )
                self.backend_invocations += 1
            # Deterministic splice order (ascending ad, then chunk — the
            # order the task list was built in), independent of which
            # worker finished first.  Each result is consumed as soon as
            # *its* future resolves — no barrier on the whole batch.
            for ad, chunk_index, lo, hi in tasks:
                key = (ad, chunk_index)
                future = pending.pop(key, None)
                if future is None:
                    block = blocks.get(key)
                    if block is None and key in cache_hits:
                        if self._splice_from_cache(ad, chunk_index, lo, hi):
                            continue
                        # The probed entry vanished or failed its digest
                        # check: recompute in-process — correctness over
                        # throughput for a should-never-happen path.
                        block = self._samplers[ad].sample_chunk_block(
                            self._plans[ad], chunk_index, mode=self.mode
                        )
                        self.backend_invocations += 1
                        self._store_chunk(ad, chunk_index, block)
                    self._splice_block(ad, chunk_index, lo, hi, block)
                    continue
                _, _, members, lengths = future.result()
                block = (members, lengths)
                self._store_chunk(ad, chunk_index, block)
                self._splice_block(ad, chunk_index, lo, hi, block)
        except BaseException:
            # A failed batch (worker crash, submit error, splice error)
            # leaves the request partially applied; don't also leak the
            # worker pool — drain what's still pending here, then route
            # through the idempotent close() (which drains the prefetch
            # ledger the same way).
            self._drain_futures(pending.values())
            self.close()
            raise

    def _drain_futures(self, futures) -> None:
        """Cancel a set of in-flight futures and wait for whatever could
        not be cancelled (its result is discarded)."""
        futures = list(futures)
        for future in futures:
            future.cancel()
        wait(futures)

    # ------------------------------------------------------------------
    # Process-pool plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _available_start_methods() -> list[str]:
        return multiprocessing.get_all_start_methods()

    @classmethod
    def _resolve_start_method(cls, requested: str) -> str | None:
        """Resolve the start-method knob to ``"fork"``/``"spawn"``, or
        ``None`` when the requested method does not exist here (degrade
        to serial)."""
        methods = cls._available_start_methods()
        if requested in ("auto", "fork") and "fork" in methods:
            return "fork"
        if requested in ("auto", "spawn") and "spawn" in methods:
            return "spawn"
        return None

    def _spawn_initargs(self) -> tuple:
        """The spawn executor initializer's arguments: the payload arrays
        (graph in-CSR + per-ad canonical probability rows) and what a
        worker needs to rebuild its registry entry around them."""
        backend_spec = (
            self.backend.name
            if self.backend.name in ("numpy", "numba")
            else self.backend
        )
        return (
            self._engine_id,
            _payload_parts(self.graph, self._samplers),
            (self.graph.num_nodes, self.graph.num_edges, self.num_ads),
            tuple(self._entropies),
            self.chunk_size,
            backend_spec,
        )

    def _ensure_executor(self) -> ProcessPoolExecutor:
        executor = self._resources["executor"]
        if executor is None:
            workers = self._max_workers
            if workers is None:
                workers = max(1, os.cpu_count() or 1)
            context = multiprocessing.get_context(self._start_method)
            if self._start_method == "spawn":
                executor = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=context,
                    initializer=_spawn_worker_init,
                    initargs=self._spawn_initargs(),
                )
            else:
                executor = ProcessPoolExecutor(
                    max_workers=workers, mp_context=context
                )
            self._resources["executor"] = executor
        return executor

    def close(self) -> None:
        """Cancel in-flight prefetch futures, shut down the worker pool,
        and release the payload.

        Idempotent and exception-safe: the teardown callback is shared
        with the GC finalizer and runs at most once however many times
        it is triggered.
        """
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "ShardedSamplingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _warn_degraded(self) -> None:
        # The engine id makes the message unique per instance, so the
        # warnings registry's once-per-location dedup cannot swallow the
        # warning for every engine after the first in a process.
        warnings.warn(
            f"no usable process start method (neither fork nor spawn is "
            f"available); ShardedSamplingEngine #{self._engine_id} "
            f"(engine='process') will sample serially",
            RuntimeWarning,
            stacklevel=4,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(h={self.num_ads}, mode={self.mode!r}, "
            f"engine={self.engine!r}, rng={self.rng!r}, "
            f"chunk_size={self.chunk_size}, backend={self.backend_name!r}, "
            f"transport={self.transport!r}, total_sets={self.total_sets()})"
        )
