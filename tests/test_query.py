import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpdb.database import Schema
from owpdb.errors import ArityMismatch, CapExceeded, ParseError, UnknownPredicate
from owpdb.query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    UCQ,
    Variable,
    find_separator,
    has_self_join,
    is_hierarchical,
    is_inversion_free,
    minimize,
    parse_ucq,
)

from helpers import ground

ARITIES = {"R": 1, "S": 2, "T": 3, "CoA": 2, "U": 1, "V": 1}


def q(text):
    return parse_ucq(text, ARITIES)


class TestParser:
    def test_two_atom_conjunct(self):
        query = q("S(x, y), CoA(x, y)")
        assert len(query.disjuncts) == 1
        assert len(query.disjuncts[0].atoms) == 2

    def test_coauthor_query_shape(self, scientist_coauthor_query):
        (cq,) = scientist_coauthor_query.disjuncts
        assert [a.predicate for a in cq.atoms] == ["CoA", "S"]  # canonical order

    def test_duplicate_disjuncts_collapse(self):
        assert q("R(x) | R(x)") == q("R(x)")

    def test_duplicate_atoms_collapse(self):
        assert q("R(x), R(x)") == q("R(x)")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_ucq("S(x)", {"S": 2})

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate):
            q("Nope(x)")

    def test_syntax_error_carries_position(self):
        for text, message, position in [
            ("R(x,, y)", "expected 'ident', found ','", 4),
            ('R("abc)', "unterminated string constant", 2),
            ('R("")', "empty string constant", 2),
            ("R(x) & S(x, y)", "unexpected character '&'", 5),
            ("R(x) | S(x, _y)", "unexpected character '_'", 12),  # so every name is a variable or a constant
            ("R(x), CoA(x, Z)", "constant 'Z' is not in the domain", 13),
            ('R("von Neumann")', "constant 'von Neumann' is not in the domain", 2),
        ]:
            with pytest.raises(ParseError) as err:
                parse_ucq(text, Schema(ARITIES, (Constant("A"), Constant("B"))))
            assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position), text

    def test_quoted_constant(self):
        query = q('R("von Neumann")')
        atom = query.disjuncts[0].atoms[0]
        assert atom.args == (Constant("von Neumann"),)
        assert str(atom) == 'R("von Neumann")'

    def test_whitespace_insignificant(self):
        assert q("R(x),S( x ,y )|U(z)") == q("R(x), S(x, y) | U(z)")


# Strategy: small queries over the fixed arities, occasionally with constants.
_terms = st.one_of(
    st.sampled_from([Variable(n) for n in "xyz"]),
    st.sampled_from([Constant(n) for n in ("A", "B", "Weird_1")]),
)


@st.composite
def _atoms(draw):
    pred = draw(st.sampled_from(sorted(ARITIES)))
    return Atom(pred, tuple(draw(_terms) for _ in range(ARITIES[pred])))


_cqs = st.lists(_atoms(), min_size=1, max_size=3).map(ConjunctiveQuery)
_ucqs = st.lists(_cqs, min_size=1, max_size=3).map(UCQ)


class TestCanonicalization:
    @given(_ucqs)
    @settings(max_examples=300, deadline=None)
    def test_print_parse_roundtrip(self, query):
        assert parse_ucq(str(query), ARITIES) == query

    @given(_ucqs)
    @settings(max_examples=200, deadline=None)
    def test_inversion_free_implies_hierarchical(self, query):
        if is_inversion_free(query):
            assert all(is_hierarchical(d) for d in query.disjuncts)

    @given(_ucqs)
    @settings(max_examples=200, deadline=None)
    def test_minimize_preserves_canonical_form(self, query):
        m = minimize(query)
        assert parse_ucq(str(m), ARITIES) == m
        assert len(m.disjuncts) <= len(query.disjuncts)

    @given(_ucqs, st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_minimize_preserves_semantics(self, query, rng):
        # oracle: world enumeration does not minimize, so equal ground
        # probabilities on a random database certify logical equivalence
        from itertools import product

        from owpdb.database import Database, Schema
        from owpdb.engine import prob_ground

        domain = tuple(Constant(n) for n in ("A", "B", "Weird_1"))
        schema = Schema(ARITIES, domain)
        rels = {}
        for pred, arity in ARITIES.items():
            rels[pred] = {
                tuple(c.name for c in combo): rng.choice((0.0, 0.3, 0.7, 1.0))
                for combo in product(domain, repeat=arity)
                if rng.random() < 0.4
            }
        db = Database(schema, rels)
        uncertain = sum(
            1 for t in rels.values() for p in t.values() if 0.0 < p < 1.0
        )
        if uncertain > 18:
            return
        assert prob_ground(query, db, cap_worlds=18) == pytest.approx(
            prob_ground(minimize(query), db, cap_worlds=18), abs=1e-12
        )


class TestGround:
    def test_single_variable(self):
        domain = (Constant("A"), Constant("B"))
        conjs = ground(q("R(x)"), domain)
        assert conjs == [
            frozenset({Atom("R", (Constant("A"),))}),
            frozenset({Atom("R", (Constant("B"),))}),
        ]

    def test_conjunct_count_matches_formula(self, coauthor_schema, scientist_coauthor_query):
        conjs = ground(scientist_coauthor_query, coauthor_schema.domain)
        assert len(conjs) == 16
        assert all(len(c) == 2 for c in conjs)

    def test_ground_atom_query(self, coauthor_schema):
        query = parse_ucq("S(Einstein)", coauthor_schema)
        conjs = ground(query, coauthor_schema.domain)
        assert conjs == [frozenset({Atom("S", (Constant("Einstein"),))})]

    def test_cap_guard(self):
        domain = tuple(Constant(f"C{i}") for i in range(40))
        with pytest.raises(CapExceeded):
            ground(q("T(x, y, z)"), domain, cap=1000)

    @given(_ucqs, st.integers(min_value=1, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_count_formula_exact(self, query, n):
        domain = tuple(Constant(f"C{i}") for i in range(n))
        expected = sum(n ** len(d.variables()) for d in query.disjuncts)
        assert len(ground(query, domain)) == expected


class TestAnalyses:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("S(x, y), R(x)", True),  # at(y) inside at(x)
            ("R(x), S(x, y), U(y)", False),  # overlapping, no containment
            ("R(x), U(y)", True),  # disjoint variable scopes
        ],
    )
    def test_is_hierarchical(self, text, expected):
        assert is_hierarchical(q(text).disjuncts[0]) is expected

    def test_inversion_free_simple(self):
        assert is_inversion_free(q("S(x, y), R(x)"))

    def test_inversion_free_shared_variable_union(self):
        assert is_inversion_free(q("R(x) | U(x)"))

    def test_matching_gadget_has_inversion(self):
        from owpdb.oracle import matching_reduction_query

        assert not is_inversion_free(matching_reduction_query())

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("CoA(x, y), CoA(y, z)", True),
            ("S(x, y), R(x)", False),
            ("U(x) | U(y)", True),
        ],
    )
    def test_has_self_join(self, text, expected):
        assert has_self_join(q(text)) is expected

    def test_separator_prefers_leftmost_root(self):
        query = q("S(x, y), R(x)")
        sep = find_separator([d.atoms for d in query.disjuncts])
        assert sep == (Variable("x"),)

    def test_no_separator_for_flipped_positions(self):
        query = q("CoA(x, y), CoA(y, x)")
        assert find_separator([d.atoms for d in query.disjuncts]) is None


class TestMinimize:
    def test_contained_disjunct_dropped(self):
        assert minimize(q("R(x), U(x) | R(y)")) == q("R(y)")

    def test_diagonal_disjunct_is_contained(self):
        # R(u), U(u) implies R(x), U(y), so the union collapses
        assert minimize(q("R(x), U(y) | R(u), U(u)")) == q("R(x), U(y)")

    def test_renamed_disjuncts_keep_one(self):
        assert len(minimize(q("R(x) | R(y)")).disjuncts) == 1

    def test_incomparable_disjuncts_kept(self):
        assert len(minimize(q("R(x) | U(y)")).disjuncts) == 2
