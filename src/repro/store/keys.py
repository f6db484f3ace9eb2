"""Shard-cache key schema: what addresses a cached RR-set block.

A cached block must be reusable by *any* run that would compute the
same bytes, and by no other.  The key therefore digests exactly the
inputs the block bytes are a pure function of — and deliberately
excludes everything the determinism contract says is byte-identical
substrate (engine and its transport, worker count, backend, start
method, prefetch): those are provenance, recorded in the catalog, never
part of the address (the provenance-not-contract rule of
``docs/architecture.md``).

Philox entries (``rng="philox"``)
    ``sample_chunk_block`` is a pure function of
    ``(entropy, ad, chunk_size, chunk_index, mode)`` given the graph
    and the ad's edge probabilities.  The key digests
    ``(graph_digest, probs_digest, entropy, ad, chunk_size, mode)``;
    the chunk index addresses entries *within* the key's directory.

Legacy entries (``rng="legacy"``)
    Streams are stateful, so a block's bytes depend on the stream state
    at the start of the request.  The key digests the *initial* per-ad
    stream state (plus graph/probs/mode); entries are addressed by the
    per-ad request ordinal and each carries the request ``count`` and
    the post-request stream state, so a hit both splices the block and
    advances the restored stream exactly as sampling would have.
"""

from __future__ import annotations

import hashlib
import json

#: blake2b key width (bytes): 16 matches the dsan / content digests.
KEY_DIGEST_SIZE = 16


def philox_shard_key(
    *, graph_hash: str, probs_hash: str, entropy: int, ad: int,
    chunk_size: int, mode: str,
) -> str:
    """Content address of one ad's philox chunk stream."""
    text = (
        f"philox|graph={graph_hash}|probs={probs_hash}|entropy={int(entropy)}"
        f"|ad={int(ad)}|chunk_size={int(chunk_size)}|mode={mode}"
    )
    return hashlib.blake2b(text.encode(), digest_size=KEY_DIGEST_SIZE).hexdigest()


def legacy_shard_key(
    *, graph_hash: str, probs_hash: str, state_hash: str, ad: int, mode: str,
) -> str:
    """Content address of one ad's legacy request sequence."""
    text = (
        f"legacy|graph={graph_hash}|probs={probs_hash}|state={state_hash}"
        f"|ad={int(ad)}|mode={mode}"
    )
    return hashlib.blake2b(text.encode(), digest_size=KEY_DIGEST_SIZE).hexdigest()


def state_hash(state: dict) -> str:
    """Digest of a legacy stream-state snapshot (canonical JSON, so the
    live snapshot and its JSON round-trip hash identically)."""
    text = json.dumps(state, sort_keys=True, separators=(",", ":"), default=int)
    return hashlib.blake2b(text.encode(), digest_size=KEY_DIGEST_SIZE).hexdigest()
