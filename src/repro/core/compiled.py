"""Compiled robots.txt policies and the content-addressed compile cache.

The measurement pipelines evaluate the *same* robots.txt bodies against
the *same* user agents thousands of times: every figure re-visits every
site in every snapshot, and most sites never change between snapshots.
Two layers remove that redundancy:

* :class:`CompiledRobots` -- a drop-in :class:`RobotsPolicy` whose
  per-agent rule resolution is memoized and whose rule patterns are
  percent-normalized **once** at compile time (see
  :class:`~repro.core.matcher.CompiledPattern`), so each query only
  normalizes the request path.
* :class:`CompiledPolicyCache` -- a content-addressed cache keyed by
  ``sha256(robots_bytes)``: each unique robots.txt body in a process is
  parsed and compiled exactly once, no matter how many domains,
  snapshots, crawlers, or figures reference it.

A process-wide shared cache (:func:`shared_policy_cache`) serves both
the analysis pipelines (:mod:`repro.measure`) and the crawl testbed
(:mod:`repro.crawlers.engine`), so the same compiled object answers for
a given body everywhere.  Compiled policies are immutable after parse
and safe to share across threads; the cache serializes its writers
behind a lock (hits are a lock-free dict probe) so parallel snapshot
collection can use it.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from .matcher import CompiledRule, Verdict, compile_rules, evaluate_compiled
from .parser import ParsedRobots
from .policy import AgentRules, RobotsPolicy

__all__ = [
    "CompiledRuleSet",
    "CompiledRobots",
    "CompiledPolicyCache",
    "compile_rules",
    "evaluate_compiled",
    "shared_policy_cache",
]


@dataclass(frozen=True)
class CompiledRuleSet:
    """The compiled form of one agent's merged rules.

    Attributes:
        rules: Compiled rules in merge order.
        explicit: Mirrors :attr:`~repro.core.policy.AgentRules.explicit`.
        crawl_delay: Mirrors
            :attr:`~repro.core.policy.AgentRules.crawl_delay`.
    """

    rules: Tuple[CompiledRule, ...]
    explicit: bool
    crawl_delay: Optional[float] = None


class CompiledRobots(RobotsPolicy):
    """A :class:`RobotsPolicy` with memoized, pre-compiled agent rules.

    Group resolution (:meth:`rules_for`) runs once per distinct user
    agent; path verdicts evaluate against compiled patterns.  All
    answers are identical to the base class -- this is purely a
    performance representation.

    >>> policy = CompiledRobots("User-agent: GPTBot\\nDisallow: /")
    >>> policy.is_allowed("GPTBot", "/page")
    False
    """

    #: SHA-256 content address of the source body, stamped by
    #: :class:`CompiledPolicyCache` (None for directly constructed
    #: policies, which never pass through a digest computation).
    content_digest: Optional[str] = None

    def __init__(self, source: Union[str, bytes, ParsedRobots]):
        super().__init__(source)
        self._agent_rules: Dict[str, AgentRules] = {}
        self._compiled_rules: Dict[str, CompiledRuleSet] = {}

    def rules_for(self, user_agent: str) -> AgentRules:
        """Memoized group resolution (see the base class for semantics)."""
        cached = self._agent_rules.get(user_agent)
        if cached is None:
            cached = super().rules_for(user_agent)
            self._agent_rules[user_agent] = cached
        return cached

    def compiled_rules_for(self, user_agent: str) -> CompiledRuleSet:
        """The compiled rule set applying to *user_agent* (memoized)."""
        cached = self._compiled_rules.get(user_agent)
        if cached is None:
            agent_rules = self.rules_for(user_agent)
            cached = CompiledRuleSet(
                rules=compile_rules(agent_rules.rules),
                explicit=agent_rules.explicit,
                crawl_delay=agent_rules.crawl_delay,
            )
            self._compiled_rules[user_agent] = cached
        return cached

    def verdict(self, user_agent: str, path: str) -> Verdict:
        """Full evaluation result, via the compiled representation."""
        return evaluate_compiled(self.compiled_rules_for(user_agent).rules, path)


def policy_digest(source: Union[str, bytes]) -> str:
    """Content address of a robots.txt body: hex SHA-256 of its bytes."""
    data = source if isinstance(source, bytes) else source.encode("utf-8", "surrogateescape")
    return hashlib.sha256(data).hexdigest()


class CompiledPolicyCache:
    """Content-addressed cache of :class:`CompiledRobots` objects.

    ``cache.policy(text)`` parses and compiles each distinct body once
    per cache; subsequent calls with byte-identical content return the
    same object.  Thread-safe.

    ``max_policies`` bounds the number of distinct compiled bodies held
    (None = unbounded, the default): when full, the oldest-inserted
    policy is evicted, counted in :attr:`evictions`.  Hit/miss/eviction
    tallies are kept as plain ints on the hot path -- they are
    scheduling-dependent for shared caches, so :meth:`publish` exports
    them to the metrics registry as **gauges** (process-local
    observations), never as deterministic counters.
    """

    def __init__(self, max_policies: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self._by_digest: Dict[str, CompiledRobots] = {}
        self._by_source: Dict[Union[str, bytes], CompiledRobots] = {}
        self.max_policies = max_policies
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._by_digest)

    def _evict_oldest(self) -> None:
        """Drop the oldest-inserted policy (lock held by caller)."""
        digest, evicted = next(iter(self._by_digest.items()))
        del self._by_digest[digest]
        for source in [s for s, p in self._by_source.items() if p is evicted]:
            del self._by_source[source]
        self.evictions += 1

    def policy(self, source: Union[str, bytes]) -> CompiledRobots:
        """The compiled policy for *source*, compiling on first sight."""
        # Exact-text fast path: CPython caches str hashes and the crawl
        # pipelines intern bodies, so a repeated query is one dict probe
        # with no SHA-256 pass and no lock (a single ``dict.get`` is
        # atomic; writers below hold the lock).  The unlocked tally may
        # drop an increment under thread races; it is a gauge.
        cached = self._by_source.get(source)
        if cached is not None:
            self.hits += 1
            return cached
        key = policy_digest(source)
        with self._lock:
            cached = self._by_digest.get(key)
            if cached is not None:
                self.hits += 1
                self._by_source[source] = cached
                return cached
            self.misses += 1
        compiled = CompiledRobots(source)
        # Stamp the content address: persistent caches key on it, and
        # stamping here means they never re-hash the body text.
        compiled.content_digest = key
        with self._lock:
            if (
                self.max_policies is not None
                and key not in self._by_digest
                and len(self._by_digest) >= self.max_policies
            ):
                self._evict_oldest()
            # setdefault: a racing thread may have compiled the same
            # body; both results are equivalent, keep the first.
            compiled = self._by_digest.setdefault(key, compiled)
            self._by_source[source] = compiled
            return compiled

    def publish(self, registry=None, prefix: str = "policy_cache") -> None:
        """Export occupancy and hit/miss/eviction tallies as gauges."""
        from ..obs.metrics import shared_registry

        registry = registry if registry is not None else shared_registry()
        registry.set_gauge(f"{prefix}.hits", self.hits)
        registry.set_gauge(f"{prefix}.misses", self.misses)
        registry.set_gauge(f"{prefix}.evictions", self.evictions)
        registry.set_gauge(f"{prefix}.entries", len(self._by_digest))

    def clear(self) -> None:
        """Drop every cached policy and reset the hit/miss counters."""
        with self._lock:
            self._by_digest.clear()
            self._by_source.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


_SHARED_CACHE = CompiledPolicyCache()


def shared_policy_cache() -> CompiledPolicyCache:
    """The process-wide compile cache shared by analysis and crawlers."""
    return _SHARED_CACHE
