import random
import time

import pytest

from divsim import ltl
from divsim.errors import ParseError
from divsim.ltl import (
    FALSE,
    MAX_NESTING,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    Next,
    Not,
    Or,
    Release,
    Until,
    canonical,
    conj,
    disj,
    evaluate,
    format_formula,
    is_latch_monotone,
    parse_formula,
)

from oracles import eval_reference, random_formula, random_view


class TestParsing:
    def test_cost_goal_conjunction(self):
        got = parse_formula("F G (cost-5 & goal-state)")
        assert got == Eventually(Always(And((Atom("cost-5"), Atom("goal-state")))))

    def test_until_with_negated_left(self):
        got = parse_formula("(!first-g2 U first-g1)")
        assert got == Until(Not(Atom("first-g2")), Atom("first-g1"))

    def test_literals(self):
        assert parse_formula("true") is TRUE
        assert parse_formula("false") is FALSE

    def test_until_binds_loosest_and_right_associative(self):
        assert parse_formula("p U q | r") == Until(Atom("p"), Or((Atom("q"), Atom("r"))))
        assert parse_formula("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))

    def test_and_tighter_than_or(self):
        assert parse_formula("p & q | r") == canonical(
            Or((And((Atom("p"), Atom("q"))), Atom("r")))
        )

    def test_unary_chain(self):
        assert parse_formula("G ! X p") == Always(Not(Next(Atom("p"))))

    def test_conjunction_is_canonical_on_parse(self):
        assert parse_formula("q & p") == parse_formula("p & q")

    @pytest.mark.parametrize(
        "text",
        ["X", "p U", "(p", "p)", "p q", "&", "p & U", "p @ q", ""],
    )
    def test_malformed_input(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    @pytest.mark.parametrize(
        "text",
        ["!" * 5000 + "a", "(" * 3000 + "a" + ")" * 3000, " U ".join("a" * 3000)],
        ids=["negations", "parentheses", "until-chain"],
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    def test_nesting_up_to_the_limit_parses(self):
        depth = MAX_NESTING
        assert parse_formula("(" * depth + "a" + ")" * depth) == Atom("a")
        assert format_formula(parse_formula("!" * depth + "a")) == "!" * depth + "a"

    def test_keywords_are_not_atoms(self):
        for word in ("X", "U", "R", "F", "G"):
            with pytest.raises(ParseError):
                parse_formula(f"p & {word} ")
        # but keyword-like substrings inside longer names are fine
        assert parse_formula("Upper-G") == Atom("Upper-G")

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p )")
        assert err.value.position == 2


class TestFormatting:
    def test_frozen_behaviour_formula_text(self):
        f = And(
            (
                Eventually(Always(And((Atom("cost-5"), Atom("goal-state"))))),
                Until(Not(Atom("first-g2")), Atom("first-g1")),
            )
        )
        assert format_formula(f) == "F G (cost-5 & goal-state) & (!first-g2 U first-g1)"

    def test_format_sorts_conjuncts(self):
        f = And((Atom("b"), Atom("a")))
        assert format_formula(f) == "a & b"

    def test_round_trip_random_formulas(self):
        rng = random.Random(7)
        for _ in range(300):
            f = random_formula(rng, rng.randint(0, 4))
            text = format_formula(f)
            assert parse_formula(text) == canonical(f), text


class TestCanonical:
    def test_nested_conjunctions_flatten(self):
        f = And((Atom("c"), And((Atom("a"), Atom("b")))))
        assert canonical(f) == And((Atom("a"), Atom("b"), Atom("c")))

    def test_duplicates_collapse(self):
        assert canonical(And((Atom("a"), Atom("a")))) == Atom("a")
        assert canonical(Or((Atom("a"), Atom("a")))) == Atom("a")

    def test_empty_and_singleton_combinators(self):
        assert conj([]) is TRUE
        assert disj([]) is FALSE
        assert conj([Atom("a")]) == Atom("a")

    def test_canonical_descends_into_temporal_operators(self):
        f = Always(Or((Atom("b"), Atom("a"))))
        assert canonical(f) == Always(Or((Atom("a"), Atom("b"))))


class TestEvaluate:
    def test_always_holds_on_uniform_trace(self):
        assert evaluate(Always(Atom("p")), [{"p"}, {"p"}]) is True
        assert evaluate(Always(Atom("p")), [{"p"}, set()]) is False

    def test_next_is_strong(self):
        assert evaluate(Next(Atom("p")), [{"p"}]) is False
        assert evaluate(Next(Atom("p")), [set(), {"p"}]) is True

    def test_until_requires_witness(self):
        f = Until(Not(Atom("q")), Atom("p"))
        assert evaluate(f, [set(), {"p"}, {"q"}]) is True
        assert evaluate(f, [{"q"}, {"p"}]) is False
        assert evaluate(f, [set(), set()]) is False

    def test_release_holds_without_witness(self):
        # right side holding to the end satisfies Release even if left never fires
        assert evaluate(Release(Atom("p"), Atom("q")), [{"q"}, {"q"}]) is True
        assert evaluate(Release(Atom("p"), Atom("q")), [{"q"}, set()]) is False
        assert evaluate(Release(Atom("p"), Atom("q")), [{"q"}, {"p", "q"}, set()]) is True

    def test_unknown_atoms_are_false(self):
        assert evaluate(Atom("never-seen"), [{"p"}]) is False

    def test_eventually_scans_suffix(self):
        assert evaluate(Eventually(Atom("p")), [set(), set(), {"p"}]) is True
        assert evaluate(Eventually(Atom("p")), [set(), set(), {"p"}], position=2) is True

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate(TRUE, [{"p"}], position=1)
        with pytest.raises(ValueError):
            evaluate(TRUE, [], position=0)


class TestLatchMonotone:
    LATCHES = ("first-g1", "first-g2")

    def test_accepted_shapes(self):
        assert is_latch_monotone(Atom("first-g1"), self.LATCHES)
        assert is_latch_monotone(
            Until(Not(Atom("first-g2")), Atom("first-g1")), self.LATCHES
        )
        assert is_latch_monotone(
            And((Atom("first-g1"), Until(Not(Atom("first-g2")), Atom("first-g1")))),
            self.LATCHES,
        )

    def test_rejected_shapes(self):
        assert not is_latch_monotone(Eventually(Atom("first-g1")), self.LATCHES)
        assert not is_latch_monotone(Not(Atom("first-g1")), self.LATCHES)
        assert not is_latch_monotone(Atom("cost-5"), self.LATCHES)
        assert not is_latch_monotone(
            Until(Not(Atom("cost-5")), Atom("first-g1")), self.LATCHES
        )
        assert not is_latch_monotone(
            Or((Atom("first-g1"), Atom("first-g2"))), self.LATCHES
        )

    def test_soundness_on_latch_extensions(self):
        # whenever the check accepts, satisfaction must survive extending the
        # trace with supersets of the latch truths
        rng = random.Random(11)
        latches = ("p", "q", "r")
        checked = 0
        for _ in range(2000):
            f = random_formula(rng, rng.randint(0, 3))
            if not is_latch_monotone(f, latches):
                continue
            view = random_view(rng, 4)
            if not evaluate(f, view):
                continue
            tail = view[-1]
            extension = view + (tail, tail | {"p"}, tail | {"p", "q", "r"})
            assert evaluate(f, extension), format_formula(f)
            checked += 1
        assert checked > 50


class TestAgainstReference:
    def test_thousand_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(1000):
            f = random_formula(rng, rng.randint(0, 4))
            view = random_view(rng)
            assert evaluate(f, view) == eval_reference(f, view)

    def test_until_release_duality(self):
        rng = random.Random(99)
        for _ in range(500):
            a = random_formula(rng, 2)
            b = random_formula(rng, 2)
            view = random_view(rng)
            assert evaluate(Release(a, b), view) == (
                not evaluate(Until(Not(a), Not(b)), view)
            )


class TestWalk:
    """Every operation walks the formula once, without recursion."""

    def test_nested_always_is_linear_in_the_trace(self):
        f = Atom("p")
        for _ in range(8):
            f = Always(f)
        started = time.perf_counter()
        assert evaluate(f, [{"p"}] * 20) is True
        assert time.perf_counter() - started < 0.5

    def test_deep_negation_chain(self):
        f = Atom("a")
        for _ in range(3000):
            f = Not(f)
        assert evaluate(f, [{"a"}]) is True
        assert evaluate(Not(f), [{"a"}]) is False
        assert format_formula(f) == "!" * 3000 + "a"

    def test_deep_alternating_and_or(self):
        # Neither And nor Or flattens into the other, so each level stays.
        depth = 2000
        f = Atom("f")
        for _ in range(depth):
            f = Or((And((f, Atom("b"))), Atom("c")))
        g = canonical(f)
        for _ in range(depth):
            assert type(g) is Or and g.children[0] == Atom("c")
            inner = g.children[1]
            assert type(inner) is And and inner.children[0] == Atom("b")
            g = inner.children[1]
        assert g == Atom("f")
        text = "c | (b & f)"
        for _ in range(depth - 1):
            text = f"c | (b & ({text}))"
        assert format_formula(f) == text

    def test_siblings_that_agree_deep_down(self):
        # The two chains' keys agree for 2,000 levels, so sorting and
        # deduplicating the siblings must compare keys without recursion.
        def chain(depth):
            f = Atom("f")
            for _ in range(depth):
                f = Or((And((f, Atom("b"))), Atom("c")))
            return f

        def levels(g):
            """And levels below ``g`` down to the atom f, walked iteratively."""
            count = 0
            while type(g) is And:
                assert g.children[0] == Atom("b")
                count += 1
                g = g.children[1]
                if type(g) is Or:
                    assert g.children[0] == Atom("c")
                    g = g.children[1]
            assert g == Atom("f")
            return count

        g, h = chain(20_000), chain(2_000)
        for f in (Or((g, h)), Or((h, g))):
            got = canonical(f)
            assert type(got) is Or and got.children[0] == Atom("c")
            assert [levels(c) for c in got.children[1:]] == [2_000, 20_000]

    def test_key_order_is_the_tuple_order(self):
        rng = random.Random(11)
        formulas = []
        for _ in range(150):
            f = canonical(random_formula(rng, 4))
            formulas.append(f)
            if type(f) in (And, Or):
                # Its children but the last: a key that the full key extends.
                formulas.append(type(f)(f.children[:-1]))
        keys = [ltl._key(f) for f in formulas]
        for a in keys:
            for b in keys:
                assert ltl._compare(a, b) == (a > b) - (a < b)

    def test_shared_subformula_matches_its_tree_copy(self):
        def until():
            return Until(Or((Atom("q"), Atom("p"))), Not(Atom("q")))

        u = until()
        dag = And((u, Or((u, Atom("r"))), Always(u), Release(u, u)))
        tree = And(
            (until(), Or((until(), Atom("r"))), Always(until()), Release(until(), until()))
        )
        assert canonical(dag) == canonical(tree)
        assert format_formula(dag) == format_formula(tree)
        rng = random.Random(5)
        for _ in range(200):
            view = random_view(rng)
            for i in range(len(view)):
                assert evaluate(dag, view, i) == evaluate(tree, view, i)

    def test_non_formula_is_a_type_error(self):
        for op in (canonical, format_formula, lambda f: evaluate(f, [set()])):
            with pytest.raises(TypeError):
                op(And((Atom("p"), "p")))
