"""Path matching for robots.txt rules per RFC 9309 section 2.2.3.

Rule paths may contain two metacharacters:

* ``*`` matches any sequence of characters (including none), and
* ``$`` at the end of the pattern anchors the match to the end of the
  request path.

Matching is performed against the percent-decoded-then-re-encoded form
of both pattern and path so that equivalent encodings compare equal
(``/a%3Cd.html`` and ``/a<d.html`` must match each other).

Rule precedence follows the "longest match" rule used by Google's
open-source parser: the applicable rule is the one whose pattern is the
longest, and when an allow and a disallow rule tie in length, the allow
rule wins (least-restrictive tie break).
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import quote, unquote

__all__ = [
    "Rule",
    "CompiledPattern",
    "CompiledRule",
    "compile_pattern",
    "compile_rules",
    "normalize_path",
    "pattern_matches",
    "match_priority",
    "evaluate",
    "evaluate_compiled",
    "Verdict",
]

#: Characters that stay verbatim when paths are re-encoded.  This mirrors
#: the set that mainstream parsers leave untouched: RFC 3986 unreserved
#: plus sub-delims plus the path/query structural characters.
_SAFE = "/~!$&'()*+,;=:@%-._"

#: Characters ``quote`` never escapes (RFC 3986 unreserved plus
#: :data:`_SAFE`), minus ``%``: a path made only of these is already in
#: canonical form, since ``unquote`` leaves it alone and so does ``quote``.
_VERBATIM = frozenset(
    string.ascii_letters + string.digits + "_.-~" + _SAFE.replace("%", "")
)

#: Bound of the process-wide compiled-pattern memo.  Patterns repeat
#: across bodies (operator templates) and across queries: the whole
#: battery compiles under two dozen distinct ones.
_PATTERN_MEMO_SIZE = 4096


def normalize_path(path: str) -> str:
    """Return a canonical percent-encoded form of *path*.

    The path is percent-decoded and re-encoded with a fixed safe set so
    that two spellings of the same path compare equal.  An empty path is
    normalized to ``/`` as required by the RFC.

    >>> normalize_path("/a%3cd.html")
    '/a%3Cd.html'
    >>> normalize_path("")
    '/'
    """
    if not path:
        return "/"
    if _VERBATIM.issuperset(path):
        return path
    return quote(unquote(path), safe=_SAFE)


@dataclass(frozen=True)
class Rule:
    """A single allow/disallow rule attached to a group.

    Attributes:
        allow: True for ``Allow``, False for ``Disallow``.
        path: The raw pattern as written in the file.
        line_number: Source line, for diagnostics (0 when synthetic).
    """

    allow: bool
    path: str
    line_number: int = 0

    @property
    def is_empty(self) -> bool:
        """An empty pattern matches nothing; ``Disallow:`` means allow all."""
        return self.path == ""


class CompiledPattern(NamedTuple):
    """A rule pattern normalized and decomposed once, at compile time.

    Attributes:
        priority: Length of the full normalized pattern (including a
            trailing ``$``), i.e. :func:`match_priority` of the source.
        anchored: Whether the pattern ended with ``$``.
        pieces: The normalized pattern (sans ``$``) split on ``*``; a
            single-element tuple means the pattern has no wildcards.
    """

    priority: int
    anchored: bool
    pieces: Tuple[str, ...]

    def matches(self, path: str) -> bool:
        """Whether this pattern matches an already-normalized *path*.

        Callers must pass the output of :func:`normalize_path`; skipping
        re-normalization per query is the point of compiling.
        """
        pieces = self.pieces
        if len(pieces) == 1:
            if self.anchored:
                return path == pieces[0]
            return path.startswith(pieces[0])

        # Greedy segment scan: the first piece must be a prefix, the
        # last piece (when anchored) must be a suffix, and intermediate
        # pieces must appear in order.
        if not path.startswith(pieces[0]):
            return False
        pos = len(pieces[0])
        last = pieces[-1]
        for piece in pieces[1:-1]:
            if piece == "":
                continue
            found = path.find(piece, pos)
            if found == -1:
                return False
            pos = found + len(piece)
        if self.anchored:
            return path.endswith(last) and len(path) - len(last) >= pos
        if last == "":
            return True
        return path.find(last, pos) != -1


@functools.lru_cache(maxsize=_PATTERN_MEMO_SIZE)
def compile_pattern(pattern: str) -> Optional[CompiledPattern]:
    """Normalize *pattern* once and precompute its match structure.

    Returns None for the empty pattern, which matches nothing (per RFC
    an empty ``Disallow`` value imposes no restriction).  A pure
    function of the pattern string, so it is memoized process-wide.
    """
    if pattern == "":
        return None
    normalized = normalize_path(pattern)
    priority = len(normalized)
    anchored = normalized.endswith("$")
    if anchored:
        normalized = normalized[:-1]
    return CompiledPattern(
        priority=priority, anchored=anchored, pieces=tuple(normalized.split("*"))
    )


def pattern_matches(pattern: str, path: str) -> bool:
    """Whether a robots.txt *pattern* matches a normalized request *path*.

    Both arguments are normalized internally, so callers may pass raw
    strings.  Empty patterns match nothing (per RFC an empty ``Disallow``
    value imposes no restriction).

    >>> pattern_matches("/fish*.php", "/fishheads/catfish.php?id=2")
    True
    >>> pattern_matches("/*.php$", "/filename.php/")
    False
    """
    compiled = compile_pattern(pattern)
    if compiled is None:
        return False
    return compiled.matches(normalize_path(path))


def match_priority(pattern: str) -> int:
    """Priority of a matching rule: the length of its normalized pattern.

    Longer patterns are considered more specific.  This mirrors the
    byte-length priority used by Google's matcher.
    """
    return len(normalize_path(pattern))


@dataclass(frozen=True)
class Verdict:
    """Outcome of evaluating a path against a rule set.

    Attributes:
        allowed: Final decision.
        rule: The winning rule, or None when no rule matched.
    """

    allowed: bool
    rule: Optional[Rule] = None


#: A compiled rule: the precomputed pattern plus the original rule (the
#: original is retained so verdicts can report the winning source line).
CompiledRule = Tuple[CompiledPattern, Rule]


def compile_rules(rules: Iterable[Rule]) -> Tuple[CompiledRule, ...]:
    """Compile a merged rule set, dropping empty (match-nothing) rules."""
    compiled = ((compile_pattern(rule.path), rule) for rule in rules)
    return tuple(entry for entry in compiled if entry[0] is not None)


def evaluate(rules: Iterable[Rule], path: str) -> Verdict:
    """Evaluate *path* against *rules* using longest-match precedence.

    Returns an allow verdict when no rule matches (the protocol default)
    and applies the allow-wins tie break for equal-priority matches.
    """
    return evaluate_compiled(compile_rules(rules), path)


def evaluate_compiled(compiled_rules: Iterable[CompiledRule], path: str) -> Verdict:
    """Longest-match evaluation over rules from :func:`compile_rules`.

    Only *path* is normalized per query: the patterns were normalized
    once, at compile time.
    """
    path = normalize_path(path)
    best_priority = -1
    best_rule: Optional[Rule] = None
    for pattern, rule in compiled_rules:
        if not pattern.matches(path):
            continue
        if best_rule is None or pattern.priority > best_priority or (
            pattern.priority == best_priority and rule.allow and not best_rule.allow
        ):
            best_priority = pattern.priority
            best_rule = rule
    if best_rule is None:
        return Verdict(allowed=True, rule=None)
    return Verdict(allowed=best_rule.allow, rule=best_rule)


def first_match(rules: Sequence[Rule], path: str) -> Verdict:
    """Evaluate using pre-RFC "first matching rule wins" semantics.

    The original 1994 robots.txt draft specified first-match evaluation;
    some home-grown parsers still implement it.  Exposed so the legacy
    parser and the ablation benchmarks can compare the two disciplines.
    """
    path = normalize_path(path)
    for compiled, rule in compile_rules(rules):
        if compiled.matches(path):
            return Verdict(allowed=rule.allow, rule=rule)
    return Verdict(allowed=True, rule=None)
