"""Deterministic shard partitioning for million-site worlds.

Sharding is the unit of parallelism and of memory bounding for the
scale plane: population build and snapshot collection fan out one
worker per shard, and the columnar snapshot archive keeps one
self-contained directory per shard so aggregations can stream shard by
shard at O(shard) memory.

The assignment is a pure function of the domain: ``sha256`` of the
"www."-normalized host modulo the shard count.  Two invariants follow:

* **Shard-count independence.**  Every per-site sampler in the world
  model is keyed ``(seed, domain)``, never by shard or worker, so the
  shard map only decides *where* a site is computed -- any shard count
  (and any worker count) yields byte-identical worlds and snapshots.
* **Variant co-residency.**  ``example.com`` and ``www.example.com``
  hash to the same shard, so the analysis layer's "www."-variant
  record fallback (Appendix B.1) never has to look outside one shard.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, TypeVar

__all__ = [
    "shard_of",
    "shard_count_for",
    "partition_domains",
    "record_shard_balance",
]

T = TypeVar("T")

#: Target sites per shard when the caller does not pick a shard count:
#: small enough that one shard's records and unique bodies stay cheap,
#: large enough that per-shard overhead (worker spawn, archive files)
#: amortizes.
SITES_PER_SHARD = 512


def normalize_host(domain: str) -> str:
    """The shard-assignment key for *domain* (case- and www-insensitive).

    Stripping a leading ``"www."`` keeps variant pairs in one shard,
    which is what makes the www-fallback record lookup shard-local.
    """
    host = domain.lower()
    if host.startswith("www."):
        host = host[4:]
    return host


def shard_of(domain: str, n_shards: int) -> int:
    """The shard index for *domain* under *n_shards* shards.

    >>> shard_of("example.com", 1)
    0
    >>> shard_of("example.com", 8) == shard_of("www.example.com", 8)
    True
    """
    if n_shards <= 1:
        return 0
    digest = hashlib.sha256(normalize_host(domain).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def shard_count_for(n_sites: int, shards: Optional[int] = None) -> int:
    """Resolve a shard count: explicit, or sized for *n_sites*.

    ``None``/``0`` picks ``ceil(n_sites / SITES_PER_SHARD)`` so
    per-shard size stays roughly constant as the population grows --
    the knob behind flat-memory streaming.
    """
    if shards is not None and shards > 0:
        return shards
    return max(1, -(-n_sites // SITES_PER_SHARD))


def partition_domains(
    domains: Sequence[T],
    n_shards: int,
    key: Optional[Iterable[str]] = None,
) -> List[List[T]]:
    """Split *domains* into *n_shards* lists, input order preserved.

    *key* supplies the domain string per item when the items themselves
    are richer objects (e.g. :class:`~repro.web.site.SimSite`); by
    default the items are the domain strings.
    """
    parts: List[List[T]] = [[] for _ in range(max(1, n_shards))]
    keys = list(key) if key is not None else None
    for index, item in enumerate(domains):
        host = keys[index] if keys is not None else item  # type: ignore[assignment]
        parts[shard_of(host, n_shards)].append(item)
    return parts


def record_shard_balance(
    parts: Sequence[Sequence[object]], stage: str
) -> Dict[int, int]:
    """Publish ``shard.sites{shard,stage}`` counters for a partition.

    Emitted parent-side (the partition is deterministic, so the
    counters stay inside the cross-mode determinism contract).  Returns
    the per-shard site counts for callers that also want them.
    """
    from ..obs.metrics import metrics_enabled, shared_registry

    sizes = {index: len(part) for index, part in enumerate(parts)}
    if metrics_enabled():
        registry = shared_registry()
        for index, size in sizes.items():
            if size:
                registry.counter(
                    "shard.sites", shard=str(index), stage=stage
                ).inc(size)
    return sizes
