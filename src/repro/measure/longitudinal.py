"""Section 3: longitudinal robots.txt analysis over snapshots.

Pipeline: take a web population, run the Common-Crawl-style snapshotter
over the 15 snapshot specs shard by shard (optionally on a fork pool --
every record is a pure function of ``(site, month)``, so shards are
embarrassingly parallel),
filter to the Stable-with-robots set (the paper's "Stable Top 100K":
ranked every month *and* a robots.txt in every snapshot), then compute
the statistics behind Figures 2-4 and Tables 3-4:

* per-snapshot % of sites fully disallowing >= 1 AI user agent, split
  by Top-5K tier (Figure 2),
* per-snapshot per-agent % partially-or-fully disallowing (Figure 3),
* explicit-allow counts and restriction removals per period (Figure 4),
* domains explicitly allowing GPTBot with first-allow snapshot
  (Table 4),
* snapshot coverage statistics (Table 3).

Performance architecture: the series numbers its distinct robots.txt
bodies once and keeps one body-id column per snapshot.  Every
aggregation computes one verdict per distinct body through the series'
content-addressed :class:`~repro.measure.cache.PolicyCache` (Figure 3:
one agent bitmask per body) and then counts over the id columns,
instead of re-classifying identical text per domain per snapshot per
figure.  All outputs are bit-identical to the per-domain formulation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..agents.darkvisitors import AI_USER_AGENT_TOKENS
from ..core.classify import RestrictionLevel
from ..crawlers.commoncrawl import (
    SNAPSHOT_SPECS,
    SiteRecord,
    Snapshot,
    SnapshotCrawler,
    SnapshotSpec,
    carry_forward_snapshot,
)
from ..fanout import fan_out, resolve_mode
from ..net import chaos
from ..net.logstore import log_stream
from ..net.transport import Network
from ..obs import live as _live
from ..obs.metrics import metrics_enabled
from ..obs.series import shared_series
from ..obs.trace import span
from ..web.archive import ShardWriter, merge_error_budgets
from ..web.population import WebPopulation
from ..web.sharding import partition_domains, record_shard_balance, shard_count_for
from .cache import PolicyCache

__all__ = [
    "SnapshotSeries",
    "collect_snapshots",
    "collect_shard_archives",
    "delta_fetch_plan",
    "stable_with_robots",
    "full_disallow_trend",
    "per_agent_trend",
    "allow_and_removal_trend",
    "first_allow_table",
    "snapshot_coverage_table",
]

#: Agents plotted individually in Figure 3.
FIGURE3_AGENTS = [
    "GPTBot",
    "CCBot",
    "ChatGPT-User",
    "anthropic-ai",
    "Google-Extended",
    "Bytespider",
    "ClaudeBot",
    "PerplexityBot",
]


@dataclass
class SnapshotSeries:
    """All snapshots for a population plus derived site sets.

    Attributes:
        snapshots: One :class:`Snapshot` per spec, in time order.
        stable_domains: Domains of the population's stable set.
        analysis_domains: Stable domains with a robots.txt in *every*
            snapshot -- the paper's Stable Top 100K analogue.
        cache: Content-addressed classification cache shared by every
            aggregation over this series.
    """

    snapshots: List[Snapshot]
    stable_domains: List[str]
    analysis_domains: List[str]
    cache: PolicyCache = field(default_factory=PolicyCache, repr=False, compare=False)
    _bodies: List[Optional[str]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _body_ids: Dict[str, List[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def robots_for(self, domain: str, snapshot: Snapshot) -> Optional[str]:
        """robots.txt content for *domain* in *snapshot* (www fallback)."""
        record = snapshot.record_for(domain)
        if record is None or not record.ok:
            return None
        return record.robots_txt

    def _intern(self) -> None:
        """Number the distinct analysis bodies, once per series."""
        if self._body_ids:
            return
        index: Dict[Optional[str], int] = {}
        for snapshot in self.snapshots:
            self._body_ids[snapshot.spec.snapshot_id] = [
                index.setdefault(self.robots_for(domain, snapshot), len(index))
                for domain in self.analysis_domains
            ]
        self._bodies = list(index)

    @property
    def bodies(self) -> List[Optional[str]]:
        """The distinct robots bodies of the analysis set, by body id."""
        self._intern()
        return self._bodies

    def body_ids(self, snapshot: Snapshot) -> List[int]:
        """Per-domain body ids aligned with ``analysis_domains``.

        Aggregations compute one verdict per distinct body (indexed by
        id into :attr:`bodies`) and count over these columns, so each
        body is classified once however many domains and snapshots
        serve it.
        """
        self._intern()
        return self._body_ids[snapshot.spec.snapshot_id]


def delta_fetch_plan(
    population: WebPopulation, specs: Sequence[SnapshotSpec]
) -> List[List["SimSite"]]:
    """Per-spec site subsets a delta crawl must actually refetch.

    The first spec always fetches the full stable set; every later spec
    fetches only the sites whose *served* robots state differs from the
    previous spec's month (see
    :meth:`~repro.web.site.SimSite.robots_changed_between`).  Records
    for every other site carry forward unchanged: their handlers are
    memoized per effective robots text and serving is
    response-stateless, so refetching would reproduce the same record
    byte for byte.  Blocking/proxy configuration is month-invariant in
    this world model (it is not keyed by month anywhere), so robots
    state is the only time-varying fetch input.

    The plan depends only on the population's evolution schedules --
    not on any fetched data -- so delta snapshots stay embarrassingly
    parallel.
    """
    return _site_fetch_plan(list(population.stable), specs, use_delta=True)


def _site_fetch_plan(
    sites: List["SimSite"], specs: Sequence[SnapshotSpec], use_delta: bool
) -> List[List["SimSite"]]:
    """Per-spec fetch subsets for *sites* (the shard-local delta plan).

    The plan is a pure per-site filter, so partitioning sites into
    shards and planning per shard yields exactly the global plan,
    partitioned.
    """
    if not use_delta:
        return [list(sites) for _ in specs]
    plan: List[List[SimSite]] = []
    previous: Optional[SnapshotSpec] = None
    for spec in specs:
        if previous is None:
            plan.append(list(sites))
        else:
            plan.append(
                [
                    site
                    for site in sites
                    if site.robots_changed_between(
                        previous.month_index, spec.month_index
                    )
                ]
            )
        previous = spec
    return plan


def _use_delta(specs: Sequence[SnapshotSpec], delta: Optional[bool]) -> bool:
    """Whether delta collection is sound (and wanted) for this crawl."""
    # Chaos faults are month- and host-windowed at the *transport*
    # layer, invisible to the evolution model the delta plan reads, so
    # carried-forward records could mask injected errors.  Never delta
    # under an armed plan.
    use = len(specs) > 1 and chaos.active_plan() is None
    if delta is not None:
        use = use and delta
    return use


def collect_snapshots(
    population: WebPopulation,
    specs: Sequence[SnapshotSpec] = tuple(SNAPSHOT_SPECS),
    workers: Optional[int] = None,
    delta: Optional[bool] = None,
    shards: Optional[int] = None,
    mode: str = "auto",
) -> SnapshotSeries:
    """Run the snapshot crawler over the population's stable set.

    Each snapshot materializes the population at the snapshot's month
    and crawls every stable site's robots.txt with the CCBot client.
    Sites are partitioned by :func:`repro.web.sharding.shard_of` and
    each shard crawls *every* spec; every record is a pure function of
    ``(site, month)``, so any shards x workers x mode combination
    assembles a byte-identical series, laid down in canonical stable
    order.

    Args:
        workers: Shards crawled at once, on a fork pool when *mode*
            allows (``None``/``1`` = sequential).
        delta: Diff-aware collection: refetch only sites whose robots
            state changed since the previous spec and carry every other
            record forward (bit-identical output, O(changed) work).
            ``None`` (the default) enables delta whenever it is sound:
            more than one spec and no armed chaos plan.  An armed
            :class:`~repro.net.chaos.FaultPlan` forces a full crawl even
            when ``delta=True``, because injected faults break the
            purity argument that makes carry-forward safe.
        shards: Shard count (``None``/``0`` = sized from the site
            count, never from *workers*).
        mode: ``"auto"``, ``"serial"`` or ``"process"`` (see
            :func:`repro.fanout.resolve_mode`).
    """
    specs = list(specs)
    domains = [site.domain for site in population.stable]
    shard_snapshots = _run_shard_collection(
        population, specs, shards=shards or 0, workers=workers, mode=mode,
        delta=delta,
    )
    # The batch pipeline's simulated-month clock drives the live
    # telemetry plane: one scrape per month, in spec order, once the
    # crawl has landed.  Costs a single None check when no pipeline is
    # installed.
    for spec in specs:
        _live.month_tick(spec.month_index)
    snapshots: List[Snapshot] = []
    for spec_index, spec in enumerate(specs):
        combined: Dict[str, SiteRecord] = {}
        budgets = []
        for per_shard in shard_snapshots:
            shard_snapshot = per_shard[spec_index]
            combined.update(shard_snapshot.records)
            budgets.append(shard_snapshot.error_budget)
        # Lay records down in canonical stable order so iteration
        # matches an unsharded crawl exactly.
        snapshots.append(
            Snapshot(
                spec=spec,
                records={domain: combined[domain] for domain in domains},
                error_budget=merge_error_budgets(budgets),
            )
        )
    # Intern robots bodies across the whole series: fifteen snapshots of
    # a mostly-unchanged population collapse to one string per distinct
    # body, and downstream grouping hashes each body once.
    body_pool: Dict[str, str] = {}
    for snapshot in snapshots:
        snapshot.intern_bodies(body_pool)
    analysis = stable_with_robots(snapshots, domains)
    return SnapshotSeries(
        snapshots=snapshots, stable_domains=domains, analysis_domains=analysis
    )


def _crawl_shard(
    population: WebPopulation,
    specs: Sequence[SnapshotSpec],
    sites: List["SimSite"],
    use_delta: bool,
) -> List[Snapshot]:
    """Crawl every spec for one shard's sites (full per-shard snapshots).

    Per-spec fetch plan, a fresh :class:`Network` per spec, shard-local
    carry-forward.  Because every record is a pure function of ``(site,
    month)`` -- chaos faults included, they key on ``(rule, host)``
    counters -- the union of shard crawls equals an unsharded crawl
    record for record.
    """
    domains = [site.domain for site in sites]
    plan = _site_fetch_plan(sites, specs, use_delta)
    snapshots: List[Snapshot] = []
    for spec, fetch_sites in zip(specs, plan):
        # The span carries both clocks: wall time plus the simulated
        # month the snapshot pertains to (the logical clock).
        with span(
            "collect_snapshot",
            logical=spec.month_index,
            snapshot=spec.snapshot_id,
            n_domains=len(fetch_sites),
        ):
            network = Network()
            population.materialize(
                network, month=spec.month_index, sites=fetch_sites
            )
            crawler = SnapshotCrawler(network)
            snapshot = crawler.snapshot(
                spec, [site.domain for site in fetch_sites]
            )
            network.publish_request_histogram()
        if metrics_enabled():
            # Per-shard refetch counts sum into the same per-month
            # series points, so totals do not depend on the shard
            # count.  In a full crawl every site counts as refetched,
            # so the series shows how much work delta collection avoids.
            shared_series().add(
                "delta.sites_refetched", spec.month_index, len(fetch_sites)
            )
        snapshots.append(snapshot)
    if use_delta:
        # Each month's records dict lays down the shard's domains in
        # canonical order, taking the freshly fetched record when the
        # site was in the plan and the previous month's otherwise.
        assembled = [snapshots[0]]
        for fetched in snapshots[1:]:
            assembled.append(
                carry_forward_snapshot(fetched, assembled[-1], domains)
            )
        snapshots = assembled
    return snapshots


def _run_shard_collection(
    population: WebPopulation,
    specs: List[SnapshotSpec],
    shards: int,
    workers: Optional[int],
    mode: str,
    delta: Optional[bool],
    archive: Optional[Tuple[str, str]] = None,
) -> List[list]:
    """Fan the shard crawl out; each shard's payload, in shard order.

    Without *archive* a shard's payload is its per-spec snapshots.  With
    ``archive=(root, config_digest)`` each shard commits a
    :class:`~repro.web.archive.ShardWriter` directory instead and only
    its per-spec error budgets travel back, not the records.
    """
    sites = list(population.stable)
    n_shards = shard_count_for(len(sites), shards if shards > 0 else None)
    parts = partition_domains(
        sites, n_shards, key=(site.domain for site in sites)
    )
    record_shard_balance(parts, stage="collect")
    use_delta = _use_delta(specs, delta)

    def crawl(index: int) -> list:
        # One wide-event stream per shard: the shard crawls all specs
        # sequentially in one worker, so the stream is single-writer.
        with log_stream(f"collect-shard:{index:04d}"):
            snapshots = _crawl_shard(population, specs, parts[index], use_delta)
        if archive is None:
            return snapshots
        writer = ShardWriter(archive[0], index, n_shards, archive[1])
        writer.set_sites(
            [site.domain for site in parts[index]],
            [site.rank for site in parts[index]],
            [site.tier for site in parts[index]],
        )
        for snapshot in snapshots:
            writer.add_snapshot(
                snapshot.spec, snapshot.records, snapshot.error_budget
            )
        writer.commit()
        return [snapshot.error_budget for snapshot in snapshots]

    n_workers = max(1, workers or 1)
    with span(
        "collect_snapshots",
        n_specs=len(specs),
        workers=n_workers,
        delta=use_delta,
        shards=n_shards,
        mode=resolve_mode(mode, min(n_workers, n_shards)),
    ):
        outputs = fan_out(
            crawl, range(n_shards), n_workers, mode,
            lambda index: span(f"collect_shard:{index:04d}"),
        )
    return [payload for payload, _ in outputs]


def collect_shard_archives(
    population: WebPopulation,
    root: Union[str, Path],
    specs: Sequence[SnapshotSpec] = tuple(SNAPSHOT_SPECS),
    shards: int = 0,
    workers: Optional[int] = None,
    mode: str = "auto",
    delta: Optional[bool] = None,
    config_digest: str = "",
) -> Path:
    """Crawl the population straight into a columnar shard archive.

    The write-only twin of :func:`collect_snapshots`: each shard's
    crawl commits a :class:`~repro.web.archive.ShardWriter` directory
    under *root*; records never accumulate in the parent, so peak
    memory is O(largest shard) regardless of population size.
    Streaming aggregations (:mod:`repro.measure.streaming`) then
    consume the archive shard by shard.

    Returns *root*; open the result with
    :class:`repro.web.archive.ArchiveSet`.
    """
    root = Path(root)
    _run_shard_collection(
        population, list(specs), shards=shards, workers=workers, mode=mode,
        delta=delta, archive=(str(root), config_digest),
    )
    return root


def stable_with_robots(
    snapshots: Sequence[Snapshot], domains: Sequence[str]
) -> List[str]:
    """Domains with a successfully fetched robots.txt in every snapshot."""
    keep: List[str] = []
    for domain in domains:
        ok_everywhere = True
        for snapshot in snapshots:
            record = snapshot.record_for(domain)
            if record is None or not record.ok:
                ok_everywhere = False
                break
        if ok_everywhere:
            keep.append(domain)
    return keep


def full_disallow_trend(
    series: SnapshotSeries,
    top5k_domains: Set[str],
    agents: Sequence[str] = tuple(AI_USER_AGENT_TOKENS),
    require_explicit: bool = True,
) -> List[Tuple[str, float, float]]:
    """Figure 2: % of sites fully disallowing >= 1 AI UA per snapshot.

    Returns rows ``(snapshot_id, pct_top5k, pct_other)`` in time order,
    percentages in [0, 100].
    """
    in_top = [d in top5k_domains for d in series.analysis_domains]
    n_top = sum(in_top)
    n_other = len(series.analysis_domains) - n_top
    cache = series.cache
    rows: List[Tuple[str, float, float]] = []
    with span(
        "measure.full_disallow_trend",
        n_sites=len(series.analysis_domains),
        n_agents=len(agents),
    ):
        flags = [
            cache.fully_disallows_any(body, agents, require_explicit=require_explicit)
            for body in series.bodies
        ]
        for snapshot in series.snapshots:
            body_ids = series.body_ids(snapshot)
            hits_top = sum(flags[i] for i, is_top in zip(body_ids, in_top) if is_top)
            hits_other = sum(flags[i] for i in body_ids) - hits_top
            if metrics_enabled():
                month = snapshot.spec.month_index
                series_registry = shared_series()
                series_registry.add(
                    "measure.sites_full_disallow", month, hits_top, tier="top5k"
                )
                series_registry.add(
                    "measure.sites_full_disallow", month, hits_other, tier="other"
                )
            rows.append(
                (
                    snapshot.spec.snapshot_id,
                    100.0 * hits_top / n_top if n_top else 0.0,
                    100.0 * hits_other / n_other if n_other else 0.0,
                )
            )
    return rows


def per_agent_trend(
    series: SnapshotSeries,
    agents: Sequence[str] = tuple(FIGURE3_AGENTS),
) -> Dict[str, List[Tuple[str, float]]]:
    """Figure 3: per-agent % of sites partially or fully disallowing.

    Returns, per agent, rows ``(snapshot_id, pct)`` over the analysis
    set.
    """
    out: Dict[str, List[Tuple[str, float]]] = {agent: [] for agent in agents}
    population = series.analysis_domains
    cache = series.cache
    # One bitmask per distinct body: bit i set when agents[i] is
    # partially or fully disallowed.
    masks = [
        sum(
            1 << bit
            for bit, agent in enumerate(agents)
            if cache.classification(body, agent).level.disallows
        )
        for body in series.bodies
    ]
    for snapshot in series.snapshots:
        histogram = Counter(masks[body_id] for body_id in series.body_ids(snapshot))
        for bit, agent in enumerate(agents):
            hits = sum(
                count for mask, count in histogram.items() if mask >> bit & 1
            )
            if metrics_enabled():
                shared_series().add(
                    "measure.sites_disallowing",
                    snapshot.spec.month_index,
                    hits,
                    agent=agent,
                )
            pct = 100.0 * hits / len(population) if population else 0.0
            out[agent].append((snapshot.spec.snapshot_id, pct))
    return out


@dataclass
class AllowRemovalTrend:
    """Figure 4's two series plus per-domain detail.

    Attributes:
        explicit_allow_counts: ``(snapshot_id, count)`` of sites
            explicitly allowing >= 1 AI agent.
        removals_per_period: ``(snapshot_id, count)`` of sites that had
            an explicit full restriction on an agent in the previous
            snapshot and no restriction in this one.
        removal_domains: Domains that removed restrictions, with the
            snapshot where the removal was first observed.
    """

    explicit_allow_counts: List[Tuple[str, int]] = field(default_factory=list)
    removals_per_period: List[Tuple[str, int]] = field(default_factory=list)
    removal_domains: Dict[str, str] = field(default_factory=dict)


def allow_and_removal_trend(
    series: SnapshotSeries,
    agents: Sequence[str] = tuple(AI_USER_AGENT_TOKENS),
    removal_agent: str = "GPTBot",
) -> AllowRemovalTrend:
    """Figure 4: explicit allows over time and removals per period."""
    trend = AllowRemovalTrend()
    cache = series.cache
    allows = [cache.allows_any(body, agents) for body in series.bodies]
    full = [
        cache.classification(body, removal_agent).level is RestrictionLevel.FULL
        for body in series.bodies
    ]
    previous: Optional[List[int]] = None
    for snapshot in series.snapshots:
        body_ids = series.body_ids(snapshot)
        removed_now = 0
        if previous is not None:
            for domain, before, now in zip(
                series.analysis_domains, previous, body_ids
            ):
                if full[before] and not full[now]:
                    removed_now += 1
                    trend.removal_domains.setdefault(
                        domain, snapshot.spec.snapshot_id
                    )
        trend.explicit_allow_counts.append(
            (snapshot.spec.snapshot_id, sum(allows[i] for i in body_ids))
        )
        trend.removals_per_period.append((snapshot.spec.snapshot_id, removed_now))
        previous = body_ids
    return trend


def first_allow_table(
    series: SnapshotSeries, agent: str = "GPTBot"
) -> List[Tuple[str, str]]:
    """Table 4: domains explicitly allowing *agent*, with the first
    snapshot where the allow was observed."""
    rows: List[Tuple[str, str]] = []
    seen: Set[str] = set()
    cache = series.cache
    allows = [cache.explicitly_allows(body, agent) for body in series.bodies]
    for snapshot in series.snapshots:
        for domain, body_id in zip(series.analysis_domains, series.body_ids(snapshot)):
            if allows[body_id] and domain not in seen:
                rows.append((domain, snapshot.spec.snapshot_id))
                seen.add(domain)
    return rows


def snapshot_coverage_table(series: SnapshotSeries) -> List[Tuple[str, str, int, int]]:
    """Table 3: per snapshot, sites present and sites with robots.txt.

    Returns rows ``(snapshot_id, label, n_sites, n_with_robots)``.
    """
    rows = []
    for snapshot in series.snapshots:
        n_sites = sum(
            1
            for domain in series.stable_domains
            if (record := snapshot.record_for(domain)) is not None
            and (record.ok or record.missing)
        )
        n_robots = sum(
            1
            for domain in series.stable_domains
            if (record := snapshot.record_for(domain)) is not None and record.ok
        )
        rows.append((snapshot.spec.snapshot_id, snapshot.spec.label, n_sites, n_robots))
    return rows
