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

import functools
import re
from typing import Iterable, Optional, Sequence

from .errors import ParseError
from .record import Record


class Formula(Record):
    """Base class for formula nodes. Nodes are immutable and hashable."""


class TrueF(Formula):
    pass


class FalseF(Formula):
    pass


class Atom(Formula):
    name: str


class Not(Formula):
    child: Formula


class And(Formula):
    children: tuple


class Or(Formula):
    children: tuple


class Next(Formula):
    child: Formula


class Eventually(Formula):
    child: Formula


class Always(Formula):
    child: Formula


class Until(Formula):
    left: Formula
    right: Formula


class Release(Formula):
    left: Formula
    right: Formula


TRUE = TrueF()
FALSE = FalseF()


class _Op(Record):
    rank: int  # place in the canonical order of node types
    token: Optional[str]  # concrete syntax; atoms print their own name
    fix: str  # "leaf", "prefix" or "infix"


# Every node type once. ``_key``, the parser and the renderer all read this.
_OPS = {
    TrueF: _Op(0, "true", "leaf"),
    FalseF: _Op(1, "false", "leaf"),
    Atom: _Op(2, None, "leaf"),
    Not: _Op(3, "!", "prefix"),
    Next: _Op(4, "X", "prefix"),
    Eventually: _Op(5, "F", "prefix"),
    Always: _Op(6, "G", "prefix"),
    And: _Op(7, "&", "infix"),
    Or: _Op(8, "|", "infix"),
    Until: _Op(9, "U", "infix"),
    Release: _Op(10, "R", "infix"),
}
_BY_TOKEN = {op.token: kind for kind, op in _OPS.items() if op.token}


def _children(f: Formula) -> tuple:
    """The direct subformulas of ``f``, in order."""
    if isinstance(f, (And, Or)):
        return f.children
    if isinstance(f, (Until, Release)):
        return (f.left, f.right)
    if isinstance(f, (Not, Next, Eventually, Always)):
        return (f.child,)
    if isinstance(f, (TrueF, FalseF, Atom)):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def _fold(f: Formula, combine):
    """Value of ``combine(g, values of g's children)`` at ``f``, combined
    children first without recursion. Values are keyed by ``id()``, so a
    subformula object that appears twice is combined once."""
    values = {}
    stack = [(f, False)]
    while stack:
        g, children_done = stack.pop()
        if children_done:
            values[id(g)] = combine(g, [values[id(c)] for c in _children(g)])
        elif id(g) not in values:
            stack.append((g, True))
            stack.extend((c, False) for c in _children(g))
    return values[id(f)]


def _node_key(g: Formula, keys) -> tuple:
    """``_key`` of ``g`` from its children's keys."""
    rank = _OPS[type(g)].rank
    return (rank, g.name) if type(g) is Atom else (rank, *keys)


def _key(f: Formula):
    """Deterministic total order on formulas, used to sort conjuncts/disjuncts.
    Two formulas have equal keys iff they are equal."""
    return _fold(f, _node_key)


def _compare(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as key ``a`` sorts before, with or after key ``b``.

    This is Python's order on the nested key tuples, walked without
    recursion: the built-in comparison recurses once per level on which the
    two keys agree. Two keys with equal ranks have the same shape at every
    index, so each pair of items compared is two ints, two strings or two
    keys."""
    stack = [(a, b, 0)]
    while stack:
        x, y, i = stack.pop()
        if i == len(x) or i == len(y):
            if len(x) != len(y):
                return -1 if len(x) < len(y) else 1
            continue
        stack.append((x, y, i + 1))
        u, v = x[i], y[i]
        if u is v:
            continue
        if type(u) is tuple:
            stack.append((u, v, 0))
        elif u != v:
            return -1 if u < v else 1
    return 0


_PAIR_ORDER = functools.cmp_to_key(lambda p, q: _compare(p[1], q[1]))


def _flat(kind, parts) -> tuple:
    """``kind`` (And or Or) of ``parts``, with nested ``kind`` children
    flattened, duplicates removed and children in canonical order; ``true``
    or ``false`` (the empty And or Or) when no part is left and the only
    part when one is.

    Parts and result are ``(formula, _key(formula))`` pairs, so a caller
    that folds bottom-up keys each node once. Keys are sorted and duplicates
    found with ``_compare``: hashing or comparing deeply nested formulas or
    keys with Python's operators would recurse once per level."""
    flat = []
    for p, key in parts:
        flat.extend(zip(p.children, key[1:]) if type(p) is kind else ((p, key),))
    flat.sort(key=_PAIR_ORDER)
    unique = [
        pair for i, pair in enumerate(flat) if i == 0 or _compare(pair[1], flat[i - 1][1])
    ]
    if len(unique) == 1:
        return unique[0]
    if not unique:
        empty = TRUE if kind is And else FALSE
        return empty, _key(empty)
    node = kind(tuple(c for c, _ in unique))
    return node, _node_key(node, [key for _, key in unique])


def conj(parts: Iterable[Formula]) -> Formula:
    """And with flattening, duplicate removal and canonical ordering.

    The empty conjunction is ``true`` and a singleton collapses to its only
    conjunct.
    """
    return _flat(And, [(p, _key(p)) for p in parts])[0]


def disj(parts: Iterable[Formula]) -> Formula:
    """Or, canonicalized the same way; the empty disjunction is ``false``."""
    return _flat(Or, [(p, _key(p)) for p in parts])[0]


def canonical(f: Formula) -> Formula:
    """Rebuild a formula with every nested And/Or flattened and sorted.

    Structural equality of canonical forms is the module's formula-equality
    relation: ``canonical(And((a, b))) == canonical(And((b, a)))``.
    """

    def combine(g, kids):
        kind = type(g)
        if kind is And or kind is Or:
            return _flat(kind, kids)
        node = kind(*(c for c, _ in kids)) if kids else g
        return node, _node_key(node, [key for _, key in kids])

    return _fold(f, combine)[0]


# --- concrete syntax ---------------------------------------------------------
#
# Precedence, loosest first: Until/Release (right associative), Or, And,
# unary (!, X, F, G), then atoms/parentheses. `true`/`false` are literals and
# X U R F G true false are reserved words, not atoms.

_SYMBOLS = "()" + "".join(tok for tok in _BY_TOKEN if not tok.isalnum())
_TOKEN_RE = re.compile(rf"\s*(?P<token>[A-Za-z0-9_-]+|[{re.escape(_SYMBOLS)}])")
_LITERALS = {_OPS[TrueF].token: TRUE, _OPS[FalseF].token: FALSE}


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
        tokens.append((m.group("token"), m.start("token")))
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
        kind = _BY_TOKEN.get(self.peek())
        if kind in (Until, Release):
            self.take()
            return kind(left, self.nested(self.formula))  # right associative
        return left

    def or_level(self) -> Formula:
        # & binds tighter than |: collect the runs joined by &, then join those by |
        runs = [[self.unary()]]
        while self.peek() in (_OPS[And].token, _OPS[Or].token):
            if self.take()[0] == _OPS[Or].token:
                runs.append([])
            runs[-1].append(self.unary())
        parts = [conj(run) if len(run) > 1 else run[0] for run in runs]
        return disj(parts) if len(parts) > 1 else parts[0]

    def unary(self) -> Formula:
        kind = _BY_TOKEN.get(self.peek())
        if kind is not None and _OPS[kind].fix == "prefix":
            self.take()
            return kind(self.nested(self.unary))
        return self.primary()

    def primary(self) -> Formula:
        tok, at = self.take()
        if tok == "(":
            inner = self.nested(self.formula)
            self.expect(")")
            return inner
        if tok in _LITERALS:
            return _LITERALS[tok]
        if tok is None or tok in _BY_TOKEN or tok == ")":
            raise ParseError(f"got {tok!r}", position=at, expected="atom or '('")
        return Atom(tok)


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    f = parser.formula()
    tok, at = parser.take()
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", position=at, expected="end of input")
    return f


def _render(f: Formula) -> str:
    def combine(g, texts):
        # Infix nodes bind loosest, so they need parentheses as operands.
        texts = [
            f"({text})" if _OPS[type(c)].fix == "infix" else text
            for c, text in zip(_children(g), texts)
        ]
        op = _OPS[type(g)]
        if op.fix == "prefix":
            return op.token + (" " if op.token.isalpha() else "") + texts[0]
        if op.fix == "infix":
            return f" {op.token} ".join(texts)
        return g.name if type(g) is Atom else op.token

    return _fold(f, combine)


def format_formula(f: Formula) -> str:
    """Canonical text form.

    Parsing it back yields ``canonical(f)`` when every atom name matches
    ``[A-Za-z0-9_-]+`` and is not a reserved word (X U R F G true false);
    any other name is written as it is and does not parse back.
    """
    return _render(canonical(f))


def evaluate(f: Formula, view: Sequence, position: int = 0) -> bool:
    """Satisfaction at ``position`` of a finite trace of atom sets.

    Each subformula gets one truth vector over all positions, so the cost is
    O(|f|·n) for a formula of |f| nodes over a trace of n positions.
    """
    n = len(view)
    if not 0 <= position < n:
        raise ValueError(f"position {position} outside trace of length {n}")

    def combine(g, kids):
        kind = type(g)
        if kind is TrueF or kind is FalseF:
            return [kind is TrueF] * n
        if kind is Atom:
            return [g.name in atoms for atoms in view]
        if kind is Not:
            return [not v for v in kids[0]]
        if kind is And or kind is Or:
            join = all if kind is And else any
            return [join(k[i] for k in kids) for i in range(n)]
        if kind is Next:
            return kids[0][1:] + [False]
        # F c is true U c and G c is false R c. U and R fill right to left,
        # starting from their value past the last position: false for U,
        # true for R.
        left, right = kids if len(kids) == 2 else ([kind is Eventually] * n, kids[0])
        until = kind is Until or kind is Eventually
        out, later = [False] * n, not until
        for i in range(n - 1, -1, -1):
            if until:
                later = right[i] or (left[i] and later)
            else:
                later = right[i] and (left[i] or later)
            out[i] = later
        return out

    return _fold(f, combine)[position]


def is_latch_monotone(f: Formula, latch_atoms: Iterable[str]) -> bool:
    """Whether satisfaction of ``f`` survives every latch-preserving extension.

    True only for atoms, ``Until(Not a, b)``, or conjunctions of those, where
    every mentioned atom is in ``latch_atoms``. For such formulas,
    satisfaction on a trace prefix is preserved by any extension in which the
    latch atoms never turn false again. A behaviour's formula has this shape
    exactly when its goal order has two or more groups. The search does not
    call it: its interior pruning compares goal orders, which latched goals
    fix whatever the formula's shape.
    """
    atoms = set(latch_atoms)

    def shape(g, kids):
        # "latch" for a latch atom, "unlatched" for its negation, "ok" for an
        # accepted Until or conjunction, None for anything else
        kind = type(g)
        if kind is Atom and g.name in atoms:
            return "latch"
        if kind is Not and kids == ["latch"]:
            return "unlatched"
        if (kind is Until and kids == ["unlatched", "latch"]) or (
            kind is And and all(k in ("latch", "ok") for k in kids)
        ):
            return "ok"
        return None

    return _fold(f, shape) in ("latch", "ok")
