"""The experiment catalog: a WAL-mode SQLite index over the store.

One ``catalog.sqlite`` per cache directory, holding four tables:

``shards``
    One row per cached block file — its content address
    ``(shard_key, block_index)``, provenance fields (ad, rng, mode,
    chunk size, entropy, graph hash), sizes, the dsan digest, and the
    LRU bookkeeping (``created_at`` / ``last_used_at`` / ``uses``) that
    drives ``repro gc``.
``allocations``
    One row per completed allocation run — full provenance
    (seed/rng/chunk/backend/engine/transport/dsan_root), headline stats,
    and cache-effectiveness counters; ``repro ls/show/diff`` read it.
``checkpoints`` / ``checkpoint_shards``
    Checkpoint lineage plus the shard references that *protect* cached
    blocks from eviction: ``repro gc`` refuses to drop a shard a live
    checkpoint would re-derive its pool from.
``benchmarks``
    Bench-section history (``bench_rrset_engine.py --json`` records its
    rows here when a cache is configured), read by
    ``repro ls --benchmarks``.

Concurrency: the database opens in WAL journal mode with a generous
busy timeout, every write runs in a short implicit transaction, and
shard registration uses ``INSERT OR REPLACE`` — two processes
populating the same cache directory serialize cleanly at the SQLite
layer while their block writes race benignly at the rename layer.
Within one process the connection is shared across threads (the
allocation service records finished jobs from worker threads), so it
opens with ``check_same_thread=False`` and every statement runs under
one internal lock — cross-thread access serializes here, not in
sqlite3's error path.

This module is the store's one timestamp seam: ``created_at`` /
``last_used_at`` are wall-clock *provenance data* about the cache, not
seeds, and never feed any sampling path — the repo's R102 rule
sanctions exactly this module for them (``AnalysisConfig``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time

from repro.errors import StoreError

#: Catalog filename inside a cache directory.
CATALOG_FILENAME = "catalog.sqlite"

#: How long a writer waits on a locked database before erroring (ms).
BUSY_TIMEOUT_MS = 30_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS shards (
    shard_key    TEXT NOT NULL,
    block_index  INTEGER NOT NULL,
    ad           INTEGER,
    rng          TEXT,
    mode         TEXT,
    chunk_size   INTEGER,
    entropy      TEXT,
    graph_hash   TEXT,
    num_sets     INTEGER NOT NULL,
    num_members  INTEGER NOT NULL,
    nbytes       INTEGER NOT NULL,
    digest       TEXT NOT NULL,
    created_at   REAL NOT NULL,
    last_used_at REAL NOT NULL,
    uses         INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (shard_key, block_index)
);
CREATE TABLE IF NOT EXISTS allocations (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at    REAL NOT NULL,
    algorithm     TEXT,
    dataset       TEXT,
    seed          INTEGER,
    rng           TEXT,
    chunk_size    INTEGER,
    engine        TEXT,
    backend       TEXT,
    transport     TEXT,
    dsan_root     TEXT,
    iterations    INTEGER,
    total_rr_sets INTEGER,
    cache_hits    INTEGER,
    cache_misses  INTEGER,
    backend_invocations INTEGER,
    job_id        TEXT,
    provenance_json TEXT,
    stats_json    TEXT
);
CREATE TABLE IF NOT EXISTS checkpoints (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    path         TEXT NOT NULL UNIQUE,
    created_at   REAL NOT NULL,
    iterations   INTEGER,
    config_json  TEXT
);
CREATE TABLE IF NOT EXISTS checkpoint_shards (
    checkpoint_id INTEGER NOT NULL,
    shard_key     TEXT NOT NULL,
    max_index     INTEGER NOT NULL,
    PRIMARY KEY (checkpoint_id, shard_key)
);
CREATE TABLE IF NOT EXISTS benchmarks (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    created_at REAL NOT NULL,
    phase      TEXT,
    variant    TEXT,
    n          INTEGER,
    ads        INTEGER,
    theta      INTEGER,
    wall_s     REAL,
    speedup    TEXT,
    report     TEXT
);
"""


class ExperimentCatalog:
    """Connection wrapper over one cache directory's catalog database."""

    def __init__(self, directory: str) -> None:
        self.directory = os.fspath(directory)
        self.path = os.path.join(self.directory, CATALOG_FILENAME)
        self._conn = None
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
            self._conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
            self._enable_wal()
            self._conn.execute("PRAGMA synchronous = NORMAL")
            with self._lock, self._conn:
                self._conn.executescript(_SCHEMA)
            # Schema migration for catalogs created before the service
            # tier existed: CREATE TABLE IF NOT EXISTS never *adds*
            # columns, so older databases need the job_id column bolted
            # on.  A duplicate-column error means the schema is current.
            try:
                with self._lock, self._conn:
                    self._conn.execute(
                        "ALTER TABLE allocations ADD COLUMN job_id TEXT"
                    )
            except sqlite3.OperationalError:
                pass
        except sqlite3.Error as exc:
            raise StoreError(
                f"cannot open experiment catalog at {self.path}: {exc}"
            ) from exc

    def _enable_wal(self) -> None:
        """Switch the database to WAL mode.  When two processes create
        the same catalog at once, SQLite can report the loser's lock
        conflict on this switch at once instead of waiting out the busy
        timeout, so the switch is retried until that timeout."""
        deadline = time.monotonic() + BUSY_TIMEOUT_MS / 1000
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode = WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "ExperimentCatalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shards
    # ------------------------------------------------------------------
    def record_shards(self, rows: list[dict]) -> None:
        """Register (or refresh) cached block files, one dict per row
        with keys matching the ``shards`` columns sans timestamps."""
        if not rows:
            return
        now = time.time()
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO shards (shard_key, block_index, ad, "
                "rng, mode, chunk_size, entropy, graph_hash, num_sets, "
                "num_members, nbytes, digest, created_at, last_used_at, uses) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                [
                    (
                        row["shard_key"], row["block_index"], row.get("ad"),
                        row.get("rng"), row.get("mode"), row.get("chunk_size"),
                        row.get("entropy"), row.get("graph_hash"),
                        row["num_sets"], row["num_members"], row["nbytes"],
                        row["digest"], now, now,
                    )
                    for row in rows
                ],
            )

    def touch_shards(self, keys: list[tuple[str, int]]) -> None:
        """LRU bookkeeping: bump ``last_used_at``/``uses`` for hit
        entries (a no-op for rows another process already evicted)."""
        if not keys:
            return
        now = time.time()
        with self._lock, self._conn:
            self._conn.executemany(
                "UPDATE shards SET last_used_at = ?, uses = uses + 1 "
                "WHERE shard_key = ? AND block_index = ?",
                [(now, key, index) for key, index in keys],
            )

    def forget_shard(self, shard_key: str, block_index: int) -> None:
        """Drop one shard row (evicted or quarantined entry)."""
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM shards WHERE shard_key = ? AND block_index = ?",
                (shard_key, block_index),
            )

    def list_shards(self) -> list[dict]:
        """Every shard row, LRU-oldest first."""
        with self._lock:
            cursor = self._conn.execute(
                "SELECT shard_key, block_index, ad, rng, mode, chunk_size, "
                "entropy, graph_hash, num_sets, num_members, nbytes, digest, "
                "created_at, last_used_at, uses FROM shards "
                "ORDER BY last_used_at, shard_key, block_index"
            )
            columns = [d[0] for d in cursor.description]
            return [dict(zip(columns, row)) for row in cursor.fetchall()]

    def total_shard_bytes(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(SUM(nbytes), 0) FROM shards"
            ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    # Allocations
    # ------------------------------------------------------------------
    def record_allocation(self, record: dict) -> int:
        """Insert one allocation row; returns its catalog id."""
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "INSERT INTO allocations (created_at, algorithm, dataset, "
                "seed, rng, chunk_size, engine, backend, transport, "
                "dsan_root, iterations, total_rr_sets, cache_hits, "
                "cache_misses, backend_invocations, job_id, "
                "provenance_json, stats_json) VALUES (?, ?, ?, ?, ?, ?, ?, "
                "?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    time.time(), record.get("algorithm"), record.get("dataset"),
                    record.get("seed"), record.get("rng"),
                    record.get("chunk_size"), record.get("engine"),
                    record.get("backend"), record.get("transport"),
                    record.get("dsan_root"), record.get("iterations"),
                    record.get("total_rr_sets"), record.get("cache_hits"),
                    record.get("cache_misses"),
                    record.get("backend_invocations"),
                    record.get("job_id"),
                    json.dumps(record.get("provenance", {}), default=str),
                    json.dumps(record.get("stats", {}), default=str),
                ),
            )
        return int(cursor.lastrowid)

    def list_allocations(self) -> list[dict]:
        with self._lock:
            cursor = self._conn.execute(
                "SELECT id, created_at, algorithm, dataset, seed, rng, "
                "chunk_size, engine, backend, transport, dsan_root, "
                "iterations, total_rr_sets, cache_hits, cache_misses, "
                "backend_invocations, job_id FROM allocations ORDER BY id"
            )
            columns = [d[0] for d in cursor.description]
            return [dict(zip(columns, row)) for row in cursor.fetchall()]

    def get_allocation(self, allocation_id: int) -> dict | None:
        with self._lock:
            cursor = self._conn.execute(
                "SELECT * FROM allocations WHERE id = ?", (int(allocation_id),)
            )
            row = cursor.fetchone()
        if row is None:
            return None
        record = dict(zip([d[0] for d in cursor.description], row))
        record["provenance"] = json.loads(record.pop("provenance_json") or "{}")
        record["stats"] = json.loads(record.pop("stats_json") or "{}")
        return record

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def record_checkpoint(
        self, path: str, *, iterations: int, config: dict,
        shard_refs: list[tuple[str, int]],
    ) -> int:
        """Register a checkpoint artifact and the shard prefixes it
        pins: ``shard_refs`` lists ``(shard_key, max_index)`` pairs —
        a resume re-derives its pools from blocks ``0..max_index`` of
        each key, so gc must keep them.  Re-registering the same path
        (the artifact is atomically overwritten each boundary) replaces
        the row and its references."""
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM checkpoint_shards WHERE checkpoint_id IN "
                "(SELECT id FROM checkpoints WHERE path = ?)", (path,)
            )
            self._conn.execute("DELETE FROM checkpoints WHERE path = ?", (path,))
            cursor = self._conn.execute(
                "INSERT INTO checkpoints (path, created_at, iterations, "
                "config_json) VALUES (?, ?, ?, ?)",
                (path, time.time(), int(iterations),
                 json.dumps(config, default=str)),
            )
            checkpoint_id = int(cursor.lastrowid)
            self._conn.executemany(
                "INSERT OR REPLACE INTO checkpoint_shards "
                "(checkpoint_id, shard_key, max_index) VALUES (?, ?, ?)",
                [(checkpoint_id, key, int(index)) for key, index in shard_refs],
            )
        return checkpoint_id

    def list_checkpoints(self) -> list[dict]:
        with self._lock:
            cursor = self._conn.execute(
                "SELECT id, path, created_at, iterations "
                "FROM checkpoints ORDER BY id"
            )
            columns = [d[0] for d in cursor.description]
            return [dict(zip(columns, row)) for row in cursor.fetchall()]

    def protected_shards(self, *, live_paths_only: bool = True) -> dict[str, int]:
        """``shard_key -> max protected block index`` over checkpoints.

        With ``live_paths_only`` (the gc default), references from
        checkpoint rows whose artifact no longer exists on disk are
        pruned first — a deleted checkpoint stops pinning blocks.
        """
        if live_paths_only:
            dead = [
                row["id"] for row in self.list_checkpoints()
                if not os.path.exists(row["path"])
            ]
            if dead:
                with self._lock, self._conn:
                    marks = ",".join("?" for _ in dead)
                    self._conn.execute(
                        f"DELETE FROM checkpoint_shards WHERE checkpoint_id IN ({marks})",
                        dead,
                    )
                    self._conn.execute(
                        f"DELETE FROM checkpoints WHERE id IN ({marks})", dead
                    )
        protected: dict[str, int] = {}
        with self._lock:
            rows = self._conn.execute(
                "SELECT shard_key, MAX(max_index) FROM checkpoint_shards "
                "GROUP BY shard_key"
            ).fetchall()
        for key, max_index in rows:
            protected[key] = int(max_index)
        return protected

    # ------------------------------------------------------------------
    # Benchmarks
    # ------------------------------------------------------------------
    def record_benchmarks(self, rows: list[dict], *, report: str | None = None) -> None:
        """Append bench-section rows (``bench_rrset_engine.py`` record
        shape: phase/n/variant/ads/theta/wall_s/speedup)."""
        if not rows:
            return
        now = time.time()
        with self._lock, self._conn:
            self._conn.executemany(
                "INSERT INTO benchmarks (created_at, phase, variant, n, ads, "
                "theta, wall_s, speedup, report) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        now, row.get("phase"), row.get("variant"), row.get("n"),
                        row.get("ads"), row.get("theta"), row.get("wall_s"),
                        str(row.get("speedup")), report,
                    )
                    for row in rows
                ],
            )

    def list_benchmarks(self) -> list[dict]:
        with self._lock:
            cursor = self._conn.execute(
                "SELECT id, created_at, phase, variant, n, ads, theta, "
                "wall_s, speedup, report FROM benchmarks ORDER BY id"
            )
            columns = [d[0] for d in cursor.description]
            return [dict(zip(columns, row)) for row in cursor.fetchall()]
