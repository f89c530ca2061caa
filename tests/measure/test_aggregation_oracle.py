"""Independent oracles for the Section 3 aggregators and the core fast paths.

The aggregators behind Figures 2-4 and Table 4 count over per-body
verdicts and body-id columns.  The reference here recomputes every
figure the slow way: for each analysis domain in each snapshot it parses
the raw text into a fresh :class:`~repro.core.policy.RobotsPolicy` and
asks the uncached core functions.

The core answers explicit-only queries on bodies naming no agent
without resolving a group.  The differential test checks those answers,
and the cache's agent sweeps, against a classification built from the
naive group selector of ``tests/core/test_policy.py``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.agents.darkvisitors import AI_USER_AGENT_TOKENS
from repro.core.classify import (
    Classification,
    RestrictionLevel,
    classify,
    classify_rules,
    explicitly_allows,
    fully_disallows_any,
)
from repro.core.compiled import CompiledPolicyCache
from repro.core.matcher import pattern_matches
from repro.core.parser import parse
from repro.core.policy import RobotsPolicy
from repro.measure.cache import PolicyCache
from repro.measure.longitudinal import (
    FIGURE3_AGENTS,
    allow_and_removal_trend,
    collect_snapshots,
    first_allow_table,
    full_disallow_trend,
    per_agent_trend,
)
from repro.web.population import PopulationConfig, build_web_population
from tests.core.test_policy import _BODY_LINES, _CRAWLERS, _reference_rules_for

AGENTS = tuple(AI_USER_AGENT_TOKENS)


def _naive_figures(population, series):
    """Figures 2-4 and Table 4, one fresh policy per (domain, snapshot)."""
    top5k = {site.domain for site in population.stable_top5k}
    domains = series.analysis_domains
    n_top = sum(domain in top5k for domain in domains)
    n_other = len(domains) - n_top
    fig2 = {True: [], False: []}
    fig3 = {agent: [] for agent in FIGURE3_AGENTS}
    allow_counts, removals, removal_domains = [], [], {}
    table4, seen = [], set()
    previous_full = None
    for snapshot in series.snapshots:
        sid = snapshot.spec.snapshot_id
        hits = {True: [0, 0], False: [0, 0]}
        agent_hits = dict.fromkeys(FIGURE3_AGENTS, 0)
        allows = 0
        full_now = {}
        for domain in domains:
            record = snapshot.record_for(domain)
            text = record.robots_txt if record is not None and record.ok else None
            policy = RobotsPolicy(text) if text is not None else None
            tier = 0 if domain in top5k else 1
            for explicit in (True, False):
                if fully_disallows_any(policy, AGENTS, require_explicit=explicit):
                    hits[explicit][tier] += 1
            for agent in FIGURE3_AGENTS:
                agent_hits[agent] += classify(policy, agent).level.disallows
            if policy is not None and any(
                explicitly_allows(policy, agent) for agent in AGENTS
            ):
                allows += 1
            full_now[domain] = (
                classify(policy, "GPTBot").level is RestrictionLevel.FULL
            )
            if (
                domain not in seen
                and policy is not None
                and explicitly_allows(policy, "GPTBot")
            ):
                table4.append((domain, sid))
                seen.add(domain)
        for explicit in (True, False):
            top, other = hits[explicit]
            fig2[explicit].append(
                (
                    sid,
                    100.0 * top / n_top if n_top else 0.0,
                    100.0 * other / n_other if n_other else 0.0,
                )
            )
        for agent in FIGURE3_AGENTS:
            fig3[agent].append((sid, 100.0 * agent_hits[agent] / len(domains)))
        removed = 0
        if previous_full is not None:
            for domain in domains:
                if previous_full[domain] and not full_now[domain]:
                    removed += 1
                    removal_domains.setdefault(domain, sid)
        allow_counts.append((sid, allows))
        removals.append((sid, removed))
        previous_full = full_now
    return fig2, fig3, allow_counts, removals, removal_domains, table4


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_aggregators_match_naive_per_domain_loop(seed):
    config = PopulationConfig(
        universe_size=450, list_size=300, top5k_cut=40, audit_size=80, seed=seed
    )
    population = build_web_population(config)
    series = collect_snapshots(population)
    top5k = {site.domain for site in population.stable_top5k}
    fig2, fig3, allow_counts, removals, removal_domains, table4 = _naive_figures(
        population, series
    )
    assert series.analysis_domains
    assert full_disallow_trend(series, top5k) == fig2[True]
    assert full_disallow_trend(series, top5k, require_explicit=False) == fig2[False]
    assert per_agent_trend(series) == fig3
    trend = allow_and_removal_trend(series)
    assert trend.explicit_allow_counts == allow_counts
    assert trend.removals_per_period == removals
    assert list(trend.removal_domains.items()) == list(removal_domains.items())
    assert first_allow_table(series) == table4


# -- the fast paths against the naive group selector -------------------------


def _reference_classify(parsed, agent, require_explicit):
    """Classification from the naive selector, with no shortcut."""
    agent_rules = _reference_rules_for(parsed, agent)
    if require_explicit and not agent_rules.explicit:
        return Classification(level=RestrictionLevel.NO_RESTRICTIONS)
    level = classify_rules(agent_rules.rules)
    allow = (
        agent_rules.explicit
        and level is RestrictionLevel.NO_RESTRICTIONS
        and any(
            rule.allow and pattern_matches(rule.path, "/")
            for rule in agent_rules.rules
        )
    )
    return Classification(level, agent_rules.explicit, allow)


_PROBE_AGENTS = AGENTS + tuple(_CRAWLERS)


@settings(max_examples=60, deadline=None)
@given(body=st.lists(st.sampled_from(_BODY_LINES), max_size=12).map("\n".join))
@example(body="")
@example(body="User-agent: *\nDisallow: /")
@example(body="User-agent: *\nAllow: /\nDisallow: /a")
@example(body="User-agent:\nDisallow: /")
@example(body="User-agent: foo\nUser-agent: foobot\nDisallow: /")
@example(body="User-agent: Kangaroo Bot\nAllow: /")
@example(body="User-agent: GPTBot\nAllow: /\n\nUser-agent: *\nDisallow: /")
def test_fast_paths_match_reference_selector(body):
    parsed = parse(body)
    cache = PolicyCache(compiled=CompiledPolicyCache())
    for require_explicit in (True, False):
        expected = {
            agent: _reference_classify(parsed, agent, require_explicit)
            for agent in _PROBE_AGENTS
        }
        for agent, reference in expected.items():
            assert classify(body, agent, require_explicit) == reference, agent
        assert cache.fully_disallows_any(body, _PROBE_AGENTS, require_explicit) is any(
            c.level is RestrictionLevel.FULL for c in expected.values()
        )
    explicit = {
        agent: _reference_classify(parsed, agent, True).explicit_allow
        for agent in _PROBE_AGENTS
    }
    for agent, reference in explicit.items():
        assert explicitly_allows(body, agent) is reference, agent
        assert cache.explicitly_allows(body, agent) is reference, agent
    assert cache.allows_any(body, _PROBE_AGENTS) is any(explicit.values())
