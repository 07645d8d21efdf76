"""Linear temporal logic over finite traces.

Formulas are evaluated over finite sequences of atom sets (see
``core.trace_view``). Semantics of the binary operators on a trace of length n
at position i:

* ``Next f``   : i+1 < n and f holds at i+1 (strong next: false at the last position)
* ``f Until g``: some j in [i, n) has g, and f holds at every k in [i, j)
* ``f Release g``: dual of Until; g holds up to and including the first
  position where f holds, or to the end if f never holds

Atoms not present in a position's atom set are false; unknown atoms are not an
error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError


class Formula:
    """Base class for formula nodes. Nodes are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    children: tuple


@dataclass(frozen=True)
class Or(Formula):
    children: tuple


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    child: Formula


@dataclass(frozen=True)
class Always(Formula):
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


TRUE = TrueF()
FALSE = FalseF()

_RANK = {
    TrueF: 0,
    FalseF: 1,
    Atom: 2,
    Not: 3,
    Next: 4,
    Eventually: 5,
    Always: 6,
    And: 7,
    Or: 8,
    Until: 9,
    Release: 10,
}


def _key(f: Formula):
    """Deterministic total order on formulas, used to sort conjuncts/disjuncts."""
    rank = _RANK[type(f)]
    if isinstance(f, (TrueF, FalseF)):
        return (rank,)
    if isinstance(f, Atom):
        return (rank, f.name)
    if isinstance(f, (Not, Next, Eventually, Always)):
        return (rank, _key(f.child))
    if isinstance(f, (Until, Release)):
        return (rank, _key(f.left), _key(f.right))
    return (rank, tuple(_key(c) for c in f.children))


def conj(parts: Iterable[Formula]) -> Formula:
    """And with flattening, duplicate removal and canonical ordering.

    The empty conjunction is ``true`` and a singleton collapses to its only
    conjunct.
    """
    flat = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.children)
        else:
            flat.append(p)
    unique = sorted(set(flat), key=_key)
    if not unique:
        return TRUE
    if len(unique) == 1:
        return unique[0]
    return And(tuple(unique))


def disj(parts: Iterable[Formula]) -> Formula:
    """Or, canonicalized the same way; the empty disjunction is ``false``."""
    flat = []
    for p in parts:
        if isinstance(p, Or):
            flat.extend(p.children)
        else:
            flat.append(p)
    unique = sorted(set(flat), key=_key)
    if not unique:
        return FALSE
    if len(unique) == 1:
        return unique[0]
    return Or(tuple(unique))


def canonical(f: Formula) -> Formula:
    """Rebuild a formula with every nested And/Or flattened and sorted.

    Structural equality of canonical forms is the module's formula-equality
    relation: ``canonical(And((a, b))) == canonical(And((b, a)))``.
    """
    if isinstance(f, (TrueF, FalseF, Atom)):
        return f
    if isinstance(f, Not):
        return Not(canonical(f.child))
    if isinstance(f, Next):
        return Next(canonical(f.child))
    if isinstance(f, Eventually):
        return Eventually(canonical(f.child))
    if isinstance(f, Always):
        return Always(canonical(f.child))
    if isinstance(f, Until):
        return Until(canonical(f.left), canonical(f.right))
    if isinstance(f, Release):
        return Release(canonical(f.left), canonical(f.right))
    if isinstance(f, And):
        return conj(canonical(c) for c in f.children)
    if isinstance(f, Or):
        return disj(canonical(c) for c in f.children)
    raise TypeError(f"not a formula: {f!r}")


# --- concrete syntax ---------------------------------------------------------
#
# Precedence, loosest first: Until/Release (right associative), Or, And,
# unary (!, X, F, G), then atoms/parentheses. `true`/`false` are literals and
# X U R F G true false are reserved words, not atoms.

_TOKEN_RE = re.compile(r"\s*(?:(?P<word>[A-Za-z0-9_-]+)|(?P<punct>[()&|!]))")
_KEYWORDS = {"X", "U", "R", "F", "G", "true", "false"}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(
                f"unexpected character {stripped[0]!r}", position=at, expected="token"
            )
        if m.group("word") is not None:
            tokens.append((m.group("word"), m.start("word")))
        else:
            tokens.append((m.group("punct"), m.start("punct")))
        pos = m.end()
    tokens.append((None, len(text)))  # end marker
    return tokens


# Deepest nesting of parentheses, unary operators and right-nested U/R that
# parse_formula accepts. Each level costs the recursive parser up to five
# stack frames, so this keeps well inside Python's default recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, token: str):
        got, at = self.take()
        if got != token:
            raise ParseError(f"got {got!r}", position=at, expected=token)

    def nested(self, parse) -> Formula:
        """``parse()`` one level deeper; too deep raises ParseError, not RecursionError."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"formula nested more than {MAX_NESTING} levels deep",
                position=self.pos(),
                expected="shallower nesting",
            )
        self.depth += 1
        got = parse()
        self.depth -= 1
        return got

    def formula(self) -> Formula:
        left = self.or_level()
        if self.peek() in ("U", "R"):
            op, _ = self.take()
            right = self.nested(self.formula)  # right associative
            return Until(left, right) if op == "U" else Release(left, right)
        return left

    def or_level(self) -> Formula:
        parts = [self.and_level()]
        while self.peek() == "|":
            self.take()
            parts.append(self.and_level())
        return disj(parts) if len(parts) > 1 else parts[0]

    def and_level(self) -> Formula:
        parts = [self.unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.unary())
        return conj(parts) if len(parts) > 1 else parts[0]

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.nested(self.unary))
        if tok in ("X", "F", "G"):
            self.take()
            child = self.nested(self.unary)
            return {"X": Next, "F": Eventually, "G": Always}[tok](child)
        return self.primary()

    def primary(self) -> Formula:
        tok, at = self.take()
        if tok == "(":
            inner = self.nested(self.formula)
            self.expect(")")
            return inner
        if tok == "true":
            return TRUE
        if tok == "false":
            return FALSE
        if tok is None or tok in _KEYWORDS or tok in "()&|!":
            raise ParseError(f"got {tok!r}", position=at, expected="atom or '('")
        return Atom(tok)


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    f = parser.formula()
    tok, at = parser.take()
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", position=at, expected="end of input")
    return f


def _operand(f: Formula) -> str:
    # Binary and n-ary nodes bind loosest, so they need parentheses as operands.
    text = _render(f)
    if isinstance(f, (And, Or, Until, Release)):
        return f"({text})"
    return text


def _render(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + _operand(f.child)
    if isinstance(f, Next):
        return "X " + _operand(f.child)
    if isinstance(f, Eventually):
        return "F " + _operand(f.child)
    if isinstance(f, Always):
        return "G " + _operand(f.child)
    if isinstance(f, And):
        return " & ".join(_operand(c) for c in f.children)
    if isinstance(f, Or):
        return " | ".join(_operand(c) for c in f.children)
    if isinstance(f, Until):
        return f"{_operand(f.left)} U {_operand(f.right)}"
    if isinstance(f, Release):
        return f"{_operand(f.left)} R {_operand(f.right)}"
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f: Formula) -> str:
    """Canonical text form; parsing it back yields ``canonical(f)``."""
    return _render(canonical(f))


def evaluate(f: Formula, view: Sequence, position: int = 0) -> bool:
    """Satisfaction at ``position`` of a finite trace of atom sets."""
    n = len(view)
    if not 0 <= position < n:
        raise ValueError(f"position {position} outside trace of length {n}")
    return _eval(f, view, position, n)


def _eval(f: Formula, view, i: int, n: int) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Atom):
        return f.name in view[i]
    if isinstance(f, Not):
        return not _eval(f.child, view, i, n)
    if isinstance(f, And):
        return all(_eval(c, view, i, n) for c in f.children)
    if isinstance(f, Or):
        return any(_eval(c, view, i, n) for c in f.children)
    if isinstance(f, Next):
        return i + 1 < n and _eval(f.child, view, i + 1, n)
    if isinstance(f, Eventually):
        return any(_eval(f.child, view, j, n) for j in range(i, n))
    if isinstance(f, Always):
        return all(_eval(f.child, view, j, n) for j in range(i, n))
    if isinstance(f, Until):
        for j in range(i, n):
            if _eval(f.right, view, j, n):
                return True
            if not _eval(f.left, view, j, n):
                return False
        return False
    if isinstance(f, Release):
        for j in range(i, n):
            if not _eval(f.right, view, j, n):
                return False
            if _eval(f.left, view, j, n):
                return True
        return True
    raise TypeError(f"not a formula: {f!r}")


def is_latch_monotone(f: Formula, latch_atoms: Iterable[str]) -> bool:
    """Whether satisfaction of ``f`` survives every latch-preserving extension.

    True only for atoms, ``Until(Not a, b)``, or conjunctions of those, where
    every mentioned atom is in ``latch_atoms``. For such formulas,
    satisfaction on a trace prefix is preserved by any extension in which the
    latch atoms never turn false again. The search does not call it: its
    interior pruning compares goal orders, and a behaviour's formula has this
    shape exactly when its goal order has two or more groups, which is what
    makes that comparison sound.
    """
    atoms = set(latch_atoms)

    def ok(g: Formula) -> bool:
        if isinstance(g, Atom):
            return g.name in atoms
        if (
            isinstance(g, Until)
            and isinstance(g.left, Not)
            and isinstance(g.left.child, Atom)
            and isinstance(g.right, Atom)
        ):
            return g.left.child.name in atoms and g.right.name in atoms
        if isinstance(g, And):
            return all(ok(c) for c in g.children)
        return False

    return ok(f)
