"""Tests for repro.core.matcher, including RFC 9309 examples."""

import re
from urllib.parse import quote, unquote

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.matcher import (
    _SAFE,
    Rule,
    compile_pattern,
    evaluate,
    first_match,
    match_priority,
    normalize_path,
    pattern_matches,
)


class TestNormalizePath:
    def test_empty_becomes_root(self):
        assert normalize_path("") == "/"

    def test_plain_path_unchanged(self):
        assert normalize_path("/a/b.html") == "/a/b.html"

    def test_percent_encoding_canonicalized(self):
        assert normalize_path("/a%3cd.html") == normalize_path("/a%3Cd.html")

    def test_decoded_and_encoded_forms_equal(self):
        assert normalize_path("/a<d.html") == normalize_path("/a%3Cd.html")

    def test_query_string_preserved(self):
        assert normalize_path("/search?q=1") == "/search%3Fq=1"

    @given(
        path=st.text(
            alphabet=st.one_of(
                st.sampled_from("%?# /*$;=~ab09AF"),
                st.characters(min_codepoint=0x80, max_codepoint=0x2FFF),
            ),
            max_size=20,
        )
    )
    @example("/%41%3c/ü?q#x")
    @example("/plain/path-1_~.html")
    def test_fast_path_agrees_with_quote_unquote(self, path):
        reference = quote(unquote(path), safe=_SAFE) if path else "/"
        assert normalize_path(path) == reference

    def test_compiled_patterns_are_memoized(self):
        assert compile_pattern("/memo*x$") is compile_pattern("/memo*x$")
        assert compile_pattern.cache_info().maxsize is not None


class TestPatternMatches:
    # Examples adapted from the Google robots.txt documentation.
    @pytest.mark.parametrize(
        "pattern,path,expected",
        [
            ("/", "/", True),
            ("/", "/anything", True),
            ("/fish", "/fish", True),
            ("/fish", "/fish.html", True),
            ("/fish", "/fishheads/yummy.html", True),
            ("/fish", "/Fish.asp", False),
            ("/fish", "/catfish", False),
            ("/fish*", "/fish", True),
            ("/fish*", "/fishheads", True),
            ("/fish/", "/fish/", True),
            ("/fish/", "/fish/salmon.htm", True),
            ("/fish/", "/fish", False),
            ("/*.php", "/filename.php", True),
            ("/*.php", "/folder/filename.php", True),
            ("/*.php", "/folder/filename.php?parameters", True),
            ("/*.php", "/folder/any.php.file.html", True),
            ("/*.php", "/", False),
            ("/*.php", "/windows.PHP", False),
            ("/*.php$", "/filename.php", True),
            ("/*.php$", "/folder/filename.php", True),
            ("/*.php$", "/filename.php?parameters", False),
            ("/*.php$", "/filename.php/", False),
            ("/fish*.php", "/fish.php", True),
            ("/fish*.php", "/fishheads/catfish.php?parameters", True),
            ("/fish*.php", "/Fish.PHP", False),
        ],
    )
    def test_google_documented_examples(self, pattern, path, expected):
        assert pattern_matches(pattern, path) is expected

    def test_empty_pattern_matches_nothing(self):
        assert not pattern_matches("", "/")

    def test_dollar_alone_matches_empty_normalized_root(self):
        # "$" anchors an empty pattern: only path "" (normalized "/")
        # of length zero would match; "/" does not end-match "".
        assert pattern_matches("/$", "/")
        assert not pattern_matches("/$", "/a")

    def test_multiple_wildcards(self):
        assert pattern_matches("/a*/b*/c", "/axx/byy/c")
        assert not pattern_matches("/a*/b*/c", "/axx/c")

    def test_wildcard_pieces_must_appear_in_order(self):
        assert not pattern_matches("/*b*a$", "/a-b")
        assert pattern_matches("/*b*a$", "/xbxa")

    def test_anchored_suffix_cannot_overlap_middle_match(self):
        # Pattern /*abc$ against /abc: the "abc" must come after pos 1.
        assert pattern_matches("/*abc$", "/abc")
        assert pattern_matches("/x*yz$", "/xAyz")
        assert not pattern_matches("/x*yzq$", "/xyz")

    def test_percent_encoding_in_pattern_and_path(self):
        assert pattern_matches("/a%3Cd.html", "/a<d.html")
        assert pattern_matches("/a<d.html", "/a%3cd.html")


class TestMatchPriority:
    def test_longer_pattern_higher_priority(self):
        assert match_priority("/fish/salmon") > match_priority("/fish")

    def test_priority_uses_normalized_length(self):
        assert match_priority("/a%3Cd") == match_priority("/a<d")


class TestEvaluate:
    def test_no_rules_allows(self):
        verdict = evaluate([], "/x")
        assert verdict.allowed and verdict.rule is None

    def test_single_disallow(self):
        verdict = evaluate([Rule(False, "/")], "/x")
        assert not verdict.allowed

    def test_longest_match_wins(self):
        rules = [Rule(False, "/"), Rule(True, "/public/")]
        assert evaluate(rules, "/public/page").allowed
        assert not evaluate(rules, "/private").allowed

    def test_tie_goes_to_allow(self):
        rules = [Rule(False, "/page"), Rule(True, "/page")]
        assert evaluate(rules, "/page").allowed

    def test_allow_root_vs_disallow_root_tie(self):
        rules = [Rule(True, "/"), Rule(False, "/")]
        assert evaluate(rules, "/anything").allowed

    def test_more_specific_disallow_beats_allow(self):
        rules = [Rule(True, "/folder"), Rule(False, "/folder/secret")]
        assert not evaluate(rules, "/folder/secret/x").allowed
        assert evaluate(rules, "/folder/open").allowed

    def test_empty_disallow_means_no_restriction(self):
        assert evaluate([Rule(False, "")], "/x").allowed

    def test_rule_order_irrelevant_for_longest_match(self):
        rules_a = [Rule(False, "/"), Rule(True, "/p/")]
        rules_b = [Rule(True, "/p/"), Rule(False, "/")]
        assert evaluate(rules_a, "/p/x").allowed == evaluate(rules_b, "/p/x").allowed

    def test_winning_rule_reported(self):
        rule = Rule(False, "/admin")
        assert evaluate([rule], "/admin/x").rule is rule


class TestFirstMatch:
    def test_first_match_order_dependent(self):
        rules = [Rule(False, "/"), Rule(True, "/p/")]
        assert not first_match(rules, "/p/x").allowed
        assert first_match(list(reversed(rules)), "/p/x").allowed

    def test_first_match_default_allow(self):
        assert first_match([], "/x").allowed


# -- Independent oracle -----------------------------------------------------


def _reference_matches(pattern, path):
    """RFC 9309 pattern matching as a regex, independent of CompiledPattern."""
    pattern, path = normalize_path(pattern), normalize_path(path)
    anchored = pattern.endswith("$")
    body = pattern[:-1] if anchored else pattern
    regex = ".*".join(re.escape(piece) for piece in body.split("*"))
    return re.match(regex + (r"\Z" if anchored else ""), path, re.DOTALL) is not None


def _reference_evaluate(rules, path):
    """Longest match, allow wins ties, first rule among equals; default allow."""
    matching = [r for r in rules if r.path and _reference_matches(r.path, path)]
    if not matching:
        return True, None
    top = max(len(normalize_path(r.path)) for r in matching)
    best = [r for r in matching if len(normalize_path(r.path)) == top]
    winner = next((r for r in best if r.allow), best[0])
    return winner.allow, winner


_oracle_text = st.text(alphabet=st.sampled_from("/ab*$%3c?"), max_size=8)
_oracle_rules = st.lists(
    st.tuples(st.booleans(), _oracle_text).map(lambda t: Rule(t[0], t[1])), max_size=6
)


class TestAgainstReference:
    @given(rules=_oracle_rules, path=_oracle_text)
    @example(rules=[Rule(False, "/a*a$")], path="/a")
    @example(rules=[Rule(True, "/a$"), Rule(True, "/*a"), Rule(False, "/a*")], path="/a")
    def test_evaluate_matches_reference(self, rules, path):
        verdict = evaluate(rules, path)
        assert (verdict.allowed, verdict.rule) == _reference_evaluate(rules, path)

    @given(rules=_oracle_rules, path=_oracle_text)
    def test_first_match_matches_reference(self, rules, path):
        expected = next(
            (r for r in rules if r.path and _reference_matches(r.path, path)), None
        )
        verdict = first_match(rules, path)
        assert verdict.rule is expected
        assert verdict.allowed == (expected is None or expected.allow)


# -- Property-based tests ---------------------------------------------------

_paths = st.text(
    alphabet=st.sampled_from("abcdef/.-_0123456789"), min_size=0, max_size=30
).map(lambda s: "/" + s)


class TestProperties:
    @given(path=_paths)
    def test_root_disallow_blocks_every_path(self, path):
        assert not evaluate([Rule(False, "/")], path).allowed

    @given(path=_paths)
    def test_no_rules_always_allows(self, path):
        assert evaluate([], path).allowed

    @given(path=_paths)
    def test_prefix_pattern_matches_itself(self, path):
        assert pattern_matches(path, path)

    @given(path=_paths)
    def test_anchored_self_match(self, path):
        assert pattern_matches(path + "$", path)

    @given(path=_paths, suffix=st.text(alphabet="xyz", min_size=1, max_size=5))
    def test_prefix_match_extends(self, path, suffix):
        assert pattern_matches(path, path + suffix)

    @given(path=_paths)
    def test_normalize_idempotent(self, path):
        assert normalize_path(normalize_path(path)) == normalize_path(path)

    @given(
        path=_paths,
        rules=st.lists(
            st.tuples(st.booleans(), _paths).map(lambda t: Rule(t[0], t[1])),
            max_size=8,
        ),
    )
    def test_adding_matching_allow_never_blocks(self, path, rules):
        """Adding Allow rules can only flip verdicts toward allowed."""
        before = evaluate(rules, path).allowed
        after = evaluate(rules + [Rule(True, path)], path).allowed
        assert after or not before
        # In fact an exact allow always wins ties at max priority for
        # this path unless a longer disallow matches.
        if before:
            assert after
