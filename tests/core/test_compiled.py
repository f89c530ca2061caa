"""Compiled policies must agree exactly with the uncompiled engine."""

import sys
import threading

import pytest

from repro.core.compiled import (
    CompiledPolicyCache,
    CompiledRobots,
    compile_rules,
    evaluate_compiled,
    shared_policy_cache,
)
from repro.core.matcher import (
    Rule,
    compile_pattern,
    evaluate,
    match_priority,
    normalize_path,
    pattern_matches,
)
from repro.core.policy import RobotsPolicy

# Appendix B.2-style edge patterns: wildcards, anchors, percent
# encodings, specials -- the corpus the micro-benchmark also uses.
EDGE_PATTERNS = [
    "/",
    "/fish",
    "/fish/",
    "/fish*",
    "/fish*.php",
    "/*.php",
    "/*.php$",
    "/fish*.php$",
    "/a%3cd.html",
    "/a%3Cd.html",
    "/a<d.html",
    "/p%2Bq",
    "/b/*/c",
    "*",
    "*/x",
    "/*/*/*/deep",
    "/$",
    "/x$",
    "/x$y",
    "/%e3%81%82",
    "/foo?bar",
    "/**",
    "/a**b",
]

EDGE_PATHS = [
    "/",
    "/fish",
    "/fish.html",
    "/fish/salmon.html",
    "/fishheads/catfish.php?id=2",
    "/catfish",
    "/filename.php",
    "/filename.php/",
    "/filename.php?parameters",
    "/a%3cd.html",
    "/a%3Cd.html",
    "/a<d.html",
    "/p+q",
    "/b/x/y/c",
    "/x",
    "/x$y",
    "/%E3%81%82",
    "/foo?bar=baz",
    "/a/b",
    "/ab",
]


class TestCompiledPattern:
    @pytest.mark.parametrize("pattern", EDGE_PATTERNS)
    def test_matches_agrees_with_pattern_matches(self, pattern):
        compiled = compile_pattern(pattern)
        assert compiled is not None
        for path in EDGE_PATHS:
            expected = pattern_matches(pattern, path)
            assert compiled.matches(normalize_path(path)) == expected, (
                pattern,
                path,
            )

    @pytest.mark.parametrize("pattern", EDGE_PATTERNS)
    def test_priority_agrees_with_match_priority(self, pattern):
        compiled = compile_pattern(pattern)
        assert compiled.priority == match_priority(pattern)

    def test_empty_pattern_compiles_to_none(self):
        assert compile_pattern("") is None


class TestEvaluateCompiled:
    def _rules(self):
        return [
            Rule(allow=False, path="/"),
            Rule(allow=True, path="/fish"),
            Rule(allow=False, path="/fish*.php$"),
            Rule(allow=True, path=""),  # empty: matches nothing
            Rule(allow=False, path="/a%3cd"),
            Rule(allow=True, path="/*.html"),
        ]

    @pytest.mark.parametrize("path", EDGE_PATHS)
    def test_verdicts_identical(self, path):
        rules = self._rules()
        compiled = compile_rules(rules)
        expected = evaluate(rules, path)
        got = evaluate_compiled(compiled, path)
        assert got.allowed == expected.allowed
        assert got.rule == expected.rule

    def test_allow_wins_tie_break_preserved(self):
        rules = [Rule(allow=False, path="/a"), Rule(allow=True, path="/a")]
        compiled = compile_rules(rules)
        assert evaluate_compiled(compiled, "/a/x").allowed
        assert evaluate(rules, "/a/x").allowed

    def test_no_match_allows(self):
        compiled = compile_rules([Rule(allow=False, path="/private")])
        verdict = evaluate_compiled(compiled, "/public")
        assert verdict.allowed and verdict.rule is None


ROBOTS_SAMPLES = [
    "User-agent: GPTBot\nDisallow: /\n",
    "User-agent: *\nDisallow: /private\nAllow: /private/ok\n",
    "User-agent: FooBot\nUser-agent: BarBot\nDisallow: /a\nCrawl-delay: 2\n",
    "User-agent: FooBot-News\nDisallow: /\nUser-agent: FooBot\nAllow: /\n",
    "Disallow: /orphan\nUser-agent: x\nDisallow: /b\n",
    "",
]

AGENTS = ["GPTBot", "FooBot", "FooBot-News", "BarBot", "randombot", "x"]
PATHS = ["/", "/private", "/private/ok", "/a/b", "/b"]


class TestCompiledRobots:
    @pytest.mark.parametrize("text", ROBOTS_SAMPLES)
    def test_drop_in_agreement_with_robots_policy(self, text):
        base = RobotsPolicy(text)
        compiled = CompiledRobots(text)
        for agent in AGENTS:
            assert compiled.rules_for(agent) == base.rules_for(agent)
            assert compiled.has_explicit_group(agent) == base.has_explicit_group(agent)
            assert compiled.crawl_delay(agent) == base.crawl_delay(agent)
            for path in PATHS:
                assert compiled.is_allowed(agent, path) == base.is_allowed(agent, path)
                assert compiled.verdict(agent, path) == base.verdict(agent, path)

    def test_rules_for_is_memoized(self):
        compiled = CompiledRobots(ROBOTS_SAMPLES[0])
        assert compiled.rules_for("GPTBot") is compiled.rules_for("GPTBot")
        assert (
            compiled.compiled_rules_for("GPTBot")
            is compiled.compiled_rules_for("GPTBot")
        )


class TestCompiledPolicyCache:
    def test_same_bytes_same_object(self):
        cache = CompiledPolicyCache()
        a = cache.policy("User-agent: *\nDisallow: /\n")
        b = cache.policy("User-agent: *\nDisallow: /\n")
        assert a is b
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_bodies_distinct_objects(self):
        cache = CompiledPolicyCache()
        a = cache.policy("User-agent: *\nDisallow: /a\n")
        b = cache.policy("User-agent: *\nDisallow: /b\n")
        assert a is not b
        assert len(cache) == 2

    def test_str_and_bytes_share_an_entry(self):
        cache = CompiledPolicyCache()
        a = cache.policy("User-agent: *\nDisallow: /\n")
        b = cache.policy(b"User-agent: *\nDisallow: /\n")
        assert a is b

    def test_clear_resets(self):
        cache = CompiledPolicyCache()
        cache.policy("User-agent: *\nDisallow: /\n")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_concurrent_first_sights_keep_one_policy_per_body(self):
        # Hits skip the lock; racing first sights of a body must still
        # publish one compiled policy that every thread then sees.
        bodies = [f"User-agent: bot{i}\nDisallow: /{i}\n" for i in range(40)]
        cache = CompiledPolicyCache()
        seen = [dict() for _ in range(8)]

        def worker(n):
            order = bodies[n * 5:] + bodies[: n * 5]
            for _ in range(20):
                for body in order:
                    seen[n].setdefault(body, set()).add(id(cache.policy(body)))

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(cache) == len(bodies)
        for body in bodies:
            ids = set().union(*(per_thread[body] for per_thread in seen))
            assert ids == {id(cache.policy(body))}

    def test_shared_cache_is_a_singleton(self):
        assert shared_policy_cache() is shared_policy_cache()
