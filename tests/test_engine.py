"""Straightening engine: relations, normal forms, associativity, parity."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from hcdirac import cli
from hcdirac.engine import (
    Algebra,
    AlgebraParams,
    AlgElem,
    PbwMonomial,
    algebra_for,
    check_pbw_consistency,
    check_relations_in_engine,
    cliff_mul,
    defining_relations,
    generating_relations,
    parity,
    perm_on_cliff,
    random_element,
    supercommutator,
)
from hcdirac.modules import forced_n_constant
from hcdirac.scalars import HALF, HALF_SQRT2, I, MINUS_ONE, ONE, SQRT2, TWO, ZERO, Scalar
from hcdirac.weyl import SignedPerm

A2 = AlgebraParams("A", 2, ONE)
A3 = AlgebraParams("A", 3, ONE)
B2 = AlgebraParams("B", 2, ONE, k_short=ONE, N=Scalar(3))
B2_FREE = AlgebraParams("B", 2, ONE, k_short=ONE, N=Scalar(2) + SQRT2)
D2 = AlgebraParams("D", 2, ONE, N=Scalar(2))
D3 = AlgebraParams("D", 3, ONE, N=Scalar(4))
B3_FREE = AlgebraParams("B", 3, ONE, k_short=HALF, N=Scalar(2) + SQRT2)
# Every parameter +-1, as in the benchmark's pbw B3: the structure constants
# are mostly units, and the x-commutator's Clifford correction is N c_j c_i.
B3_UNIT = AlgebraParams("B", 3, ONE, k_short=ONE, N=ONE)


def mono(params, exps, cliff, images):
    return PbwMonomial(tuple(exps), cliff, SignedPerm(tuple(images)))


def test_params_validation():
    with pytest.raises(ValueError):
        AlgebraParams("A", 2, ONE, k_short=ONE)
    with pytest.raises(ValueError):
        AlgebraParams("D", 2, ONE, k_short=ONE)
    with pytest.raises(ValueError):
        AlgebraParams("E", 2, ONE)
    with pytest.raises(TypeError):
        AlgebraParams("A", 2, 1)  # type: ignore[arg-type]


def test_generators():
    x1 = algebra_for(A2).x(1)
    assert x1.terms == {mono(A2, (1, 0), 0, (1, 2)): ONE}
    c2 = algebra_for(A2).c(2)
    assert c2.terms == {mono(A2, (0, 0), 0b10, (1, 2)): ONE}
    s12 = algebra_for(A2).w(SignedPerm((2, 1)))
    assert s12.terms == {mono(A2, (0, 0), 0, (2, 1)): ONE}


def test_type_d_rejects_odd_window():
    with pytest.raises(ValueError):
        algebra_for(D2).w(SignedPerm((1, -2)))
    algebra_for(D2).w(SignedPerm((-1, -2)))  # even sign count is fine


def test_clifford_square():
    c1 = algebra_for(A3).c(1)
    assert c1 * c1 == -algebra_for(A3).one()


def test_simple_past_x_example():
    # s_12 x_1 = x_2 s_12 - k + k c_1 c_2
    alg = algebra_for(A3)
    s12 = alg.w(SignedPerm((2, 1, 3)))
    got = s12 * alg.x(1)
    expected = (
        alg.x(2) * s12
        - alg.one()
        + alg.c(1) * alg.c(2)
    )
    assert got == expected


def test_x_noncommutativity_type_b():
    # x_2 x_1 = x_1 x_2 + N c_1 c_2
    alg = algebra_for(B2)
    got = alg.x(2) * alg.x(1)
    expected = alg.x(1) * alg.x(2) + (alg.c(1) * alg.c(2)).scale(
        B2.N
    )
    assert got == expected


def test_short_reflection_past_x():
    # s_n x_n = -x_n s_n - sqrt2 k_s
    alg = algebra_for(B2)
    sn = alg.w(SignedPerm((1, -2)))
    got = sn * alg.x(2)
    expected = -alg.x(2) * sn - alg.one().scale(SQRT2 * B2.k_short)
    assert got == expected


def test_parity_classes():
    alg = algebra_for(A2)
    assert parity(alg.c(1)) == "odd"
    assert parity(alg.x(1) * alg.c(1)) == "odd"
    assert parity(alg.one()) == "even"
    assert parity(alg.c(1) + alg.one()) == "mixed"
    assert parity(AlgElem(alg.params)) == "even"


def test_parity_multiplicative():
    rng = random.Random(11)
    alg = algebra_for(B2)
    for _ in range(60):
        a = random_element(B2, rng, max_deg=1, max_terms=1)
        b = random_element(B2, rng, max_deg=1, max_terms=1)
        pa, pb = parity(a), parity(b)
        prod = a * b
        if prod.is_zero():
            continue
        expect = "even" if pa == pb else "odd"
        assert parity(prod) == expect


def test_supercommutator_examples():
    alg = algebra_for(B2)
    assert supercommutator(B2, alg.c(1), alg.c(2)).is_zero()
    assert supercommutator(B2, alg.x(1), alg.x(2)) == (alg.c(2) * alg.c(1)).scale(B2.N)
    algA = algebra_for(A2)
    assert supercommutator(A2, algA.x(1), algA.x(2)).is_zero()
    with pytest.raises(ValueError):
        supercommutator(A2, algA.c(1) + algA.one(), algA.c(2))


@pytest.mark.parametrize("params", [A2, A3, B2, B2_FREE, D2, D3])
def test_relation_closure(params):
    assert check_relations_in_engine(params) == []


K23 = Scalar(Fraction(2, 3))
KS = Scalar(Fraction(-1, 2))
N57 = Scalar(Fraction(5, 7))
# sha256 of each relation list as [[name, [[coefficient.compact(), word], ...]], ...]
# with compact separators, where a word is a list of generator names.  They
# pin every relation name, coefficient, word and their order.
RELATION_DIGESTS = [
    (AlgebraParams("A", 3, K23), 33,
     "0193a6e8fc2cafdc155e2cf5ad32d21aad9084b915e0340667901a1cff4947ab"),
    (AlgebraParams("B", 3, K23, k_short=KS, N=N57), 42,
     "2a37ff34c3c174d4d114423c37a9b4c23e44835d06be8b0c45bb184a8a26a56f"),
    (AlgebraParams("D", 4, K23, N=N57), 74,
     "51c9c89cecbcfdb66b5eddcb4dfa2d170d64ad51461bfce40dc944793a61e144"),
]


@pytest.mark.parametrize("params, count, digest", RELATION_DIGESTS, ids=["A3", "B3", "D4"])
def test_relation_lists_pinned(params, count, digest):
    rows = [[name, [[coef.compact(), list(word)] for coef, word in terms]]
            for name, terms in defining_relations(params)]
    assert len(rows) == count
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_relation_words_are_generator_names():
    b3 = dict(defining_relations(RELATION_DIGESTS[1][0]))
    assert b3["sn_xn"] == [(ONE, ("sn", "x3")), (ONE, ("x3", "sn")), (SQRT2 * KS, ())]
    assert b3["braid_sn"] == [(ONE, ("s2", "sn", "s2", "sn")), (-ONE, ("sn", "s2", "sn", "s2"))]
    d4 = dict(defining_relations(RELATION_DIGESTS[2][0]))
    assert d4["sd_xfork"] == [
        (ONE, ("sd", "x3")), (ONE, ("x4", "sd")), (K23, ()), (-K23, ("c4", "c3"))
    ]
    assert d4["braid_sd"] == [(ONE, ("s2", "sd", "s2")), (-ONE, ("sd", "s2", "sd"))]


@pytest.mark.parametrize("n, kept, total", [(1, 2, 2), (2, 8, 13), (3, 15, 33), (4, 23, 62), (5, 32, 100)])
def test_generating_relations_in_type_a(n, kept, total):
    params = AlgebraParams("A", n, K23)
    full = defining_relations(params)
    subset = generating_relations(params)
    assert (len(subset), len(full)) == (kept, total)
    assert subset == [rel for rel in full if rel in subset]  # in the order of the full list
    names = {name for name, _ in subset}
    assert {f"s{i}_x{i}" for i in range(1, n)} <= names and f"x1_c{n}" in names
    assert not any(name.startswith(("x2", "c2", "c3")) for name in names)


def test_generating_relations_for_n3():
    assert [name for name, _ in generating_relations(RELATION_DIGESTS[0][0])] == [
        "x1_x2", "x1_c1", "x1_c2", "x1_c3", "c1_sq", "c1_c2", "s1_sq", "s1_c1", "s2_sq",
        "s2_c1", "s2_c2", "s1_x1", "s2_x2", "s2_x1", "braid_s1",
    ]


def test_generating_relations_for_b3_and_d3():
    shared = ["x1_x2", "x1_c1", "x1_c2", "x1_c3", "c1_sq", "c1_c2", "s1_sq", "s1_c1", "s2_sq",
              "s2_c1", "s2_c2"]
    assert [name for name, _ in generating_relations(RELATION_DIGESTS[1][0])] == shared + [
        "sn_sq", "sn_c1", "sn_c3", "s1_x1", "s2_x2", "s2_x1", "sn_xn", "sn_x1", "braid_s1",
        "braid_sn", "comm_s1_sn",
    ]
    assert [name for name, _ in generating_relations(AlgebraParams("D", 3, K23, N=N57))] == shared + [
        "sd_sq", "sd_c1", "sd_c2", "s1_x1", "s2_x2", "s2_x1", "sd_xfork", "sd_x1", "braid_s1",
        "braid_sd", "comm_s2_sd",
    ]


def test_identity_is_neutral():
    rng = random.Random(5)
    alg = algebra_for(B2)
    one = alg.one()
    for _ in range(20):
        a = random_element(B2, rng)
        assert one * a == a
        assert a * one == a


def test_group_algebra_embedding():
    rng = random.Random(17)
    from hcdirac.engine import random_group_element

    for params in (A3, B2):
        alg = algebra_for(params)
        for _ in range(200):
            u = random_group_element(params, rng)
            v = random_group_element(params, rng)
            assert alg.w(u) * alg.w(v) == alg.w(u * v)


def test_omega_h_supercentral():
    from hcdirac.dirac import casimirs

    for params in (A2, B2):
        alg = algebra_for(params)
        omega_h, _ = casimirs(params)
        gens = [alg.x(i) for i in range(1, params.n + 1)]
        gens += [alg.c(i) for i in range(1, params.n + 1)]
        gens += [alg.w(s) for s in alg.ctx.simple_reflections]
        for g in gens:
            assert supercommutator(params, omega_h, g).is_zero()


@pytest.mark.parametrize("params", [A2, B2, D2])
def test_pbw_consistency_smoke(params):
    assert check_pbw_consistency(params, trials=25, max_deg=2, seed=42) == []


def test_pbw_consistency_zero_element_trivial():
    zero = AlgElem(A2)
    a = random_element(A2, random.Random(0))
    assert (zero * a * a).is_zero()


def test_type_d_products_stay_in_subalgebra():
    rng = random.Random(23)
    for _ in range(40):
        a = random_element(D3, rng)
        b = random_element(D3, rng)
        prod = a * b
        assert all(m.w.neg_count() % 2 == 0 for m in prod.terms)


def test_text_form():
    assert AlgElem(A2).to_string() == "0"
    alg = algebra_for(A2)
    elem = alg.x(1) * alg.x(1) + alg.c(2).scale(SQRT2)
    assert elem.to_string() == "(1*r2)*c2*[1,2] + (1)*x1^2*[1,2]"


def test_params_mismatch_raises():
    a = algebra_for(A2).one()
    b = algebra_for(A3).one()
    with pytest.raises(ValueError):
        a * b


def _reference_mono_product(alg, left, right):
    """Reference product with no factoring through Seg: left-multiply `right`
    by the generators of `left` one at a time, through `Algebra.multiply`:
    a reduced word of w (in the algebra's own group), then the c's, then the
    x's."""
    cur = AlgElem(alg.params, {right: ONE})
    simples = alg.ctx.simple_reflections
    for idx in reversed(alg.ctx.reduced_word(left.w)):
        cur = alg.multiply(alg.w(simples[idx]), cur)
    for i in range(alg.params.n, 0, -1):
        if left.cliff & (1 << (i - 1)):
            cur = alg.multiply(alg.c(i), cur)
    for i in range(alg.params.n, 0, -1):
        for _ in range(left.exps[i - 1]):
            cur = alg.multiply(alg.x(i), cur)
    return cur.terms


@pytest.mark.parametrize("params", [A3, B3_FREE, D3, B3_UNIT])
def test_mono_product_matches_reference_order(params):
    rng = random.Random(101)
    alg = algebra_for(params)
    for _ in range(150):
        left = next(iter(random_element(params, rng, max_deg=3, max_terms=1).terms))
        right = next(iter(random_element(params, rng, max_deg=3, max_terms=1).terms))
        out = {}
        alg._mono_product(out, left, right, ONE)
        assert out == _reference_mono_product(alg, left, right)


@pytest.mark.parametrize("params", [A3, B3_FREE, D3, B3_UNIT])
def test_multiply_matches_reference_with_coefficients(params):
    """Products of multi-term elements against sum ca * cb * (ma mb), with the
    basis-word products taken from the reference order."""
    rng = random.Random(202)
    alg = algebra_for(params)
    seen = set()
    for _ in range(100):
        a = random_element(params, rng, max_deg=2, max_terms=3)
        b = random_element(params, rng, max_deg=2, max_terms=3)
        seen.update(a.terms.values(), b.terms.values())
        expected = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                for m, c in _reference_mono_product(alg, ma, mb).items():
                    expected[m] = expected.get(m, ZERO) + ca * cb * c
        assert (a * b).terms == {m: c for m, c in expected.items() if c}
    assert {I, SQRT2, HALF} <= seen


@pytest.mark.parametrize("params", [B3_FREE, D3])
@pytest.mark.parametrize("seed", [13, 2024])
def test_pbw_consistency_rank_three(params, seed):
    assert check_pbw_consistency(params, trials=10, max_deg=2, seed=seed) == []


def _is_exponent_key_part(part) -> bool:
    """A generator index or Clifford mask, a group element, or an exponent tuple."""
    if isinstance(part, PbwMonomial):
        return False
    if isinstance(part, (int, SignedPerm)):
        return True
    return isinstance(part, tuple) and all(isinstance(e, int) for e in part)


def test_straightening_tables_keyed_on_exponents():
    check_pbw_consistency(B3_FREE, trials=5)
    alg = algebra_for(B3_FREE)
    tables = {name: table for name, table in vars(alg).items() if isinstance(table, dict)}
    assert {"_xx_cache", "_sx_cache", "_wx_cache", "_seg_rows"} <= tables.keys()
    for name, table in tables.items():
        assert table, name
        for key in table:
            assert isinstance(key, tuple) and not isinstance(key, PbwMonomial), (name, key)
            assert all(_is_exponent_key_part(part) for part in key), (name, key)
    # Each Seg row of u is keyed on Clifford masks or on group elements v.
    for u, rows in alg._seg_rows.items():
        for row in rows:
            assert row and all(_is_exponent_key_part(key) for key in row), (u, row)


def _held_group_elements(alg) -> list[SignedPerm]:
    """One of each SignedPerm object, by id, held in the engine's tables."""
    held: dict[int, SignedPerm] = {}

    def visit(obj):
        if isinstance(obj, SignedPerm):
            held[id(obj)] = obj
        elif isinstance(obj, dict):
            for key, value in obj.items():
                visit(key)
                visit(value)
        elif isinstance(obj, (tuple, list)):
            for part in obj:
                visit(part)

    for name, value in vars(alg).items():
        if name not in ("ctx", "push_ctx"):
            visit(value)
    return list(held.values())


@pytest.mark.parametrize("params, order", [
    (B3_UNIT, 48),
    (AlgebraParams("D", 4, ONE, N=ONE), 384),  # straightened in W(B4)
], ids=["B3", "D4_in_B4"])
def test_tables_hold_one_object_per_group_element(params, order):
    assert check_pbw_consistency(params, trials=50, seed=5) == []
    held = _held_group_elements(algebra_for(params))
    assert len(held) == len(set(held)) <= order


# The non-unit branch of every step: k, k_short and N are not +-1.
FREE_PARAMS = [
    (AlgebraParams("A", 4, K23), 3),
    (AlgebraParams("B", 3, K23, k_short=HALF, N=Scalar(2) + SQRT2), 3),
    (AlgebraParams("D", 4, K23, N=Scalar(2) + SQRT2), 2),
]


def _reference_w_times_x(alg, exps):
    """{w: w x^exps} for every w of the ambient group, each along a whole
    reduced word, one simple reflection at a time from the right end (the
    engine steps from the left), as {(exps1, cliff, u): coefficient}.  Words
    with a common suffix share its walk."""
    walked = {(): {(exps, 0, alg._id): ONE}}

    def walk(word):
        if word not in walked:
            out = {}
            for (b, g, u), coef in walk(word[1:]).items():
                for b1, h, v, coef2 in alg._s_times_x(word[0], b):
                    sign, moved = perm_on_cliff(v, g)
                    s2, mask = cliff_mul(h, moved)
                    key = (b1, mask, v * u)
                    term = coef * coef2
                    out[key] = out.get(key, ZERO) + (term if sign * s2 > 0 else -term)
            walked[word] = {key: c for key, c in out.items() if c}
        return walked[word]

    ctx = alg.push_ctx
    return {w: walk(tuple(ctx.reduced_word(w))) for w in ctx.elements()}


def _table_coefs(alg):
    """Every coefficient stored in the three straightening tables: the last
    part of each term of x^a x^b and s x^b, and the last of the parallel
    columns of each w x^b entry."""
    coefs = [term[-1] for table in (alg._xx_cache, alg._sx_cache)
             for entry in table.values() for term in entry]
    for columns in alg._wx_cache.values():
        assert len(columns) == 5 and len({len(column) for column in columns}) == 1, columns
        coefs += columns[-1]
    return coefs


def _assert_units_are_singletons(alg):
    coefs = _table_coefs(alg)
    assert coefs
    for c in coefs:
        assert c is ONE or c is MINUS_ONE or (c != ONE and c != MINUS_ONE)


@pytest.mark.parametrize("params, max_deg", FREE_PARAMS, ids=["A4", "B3", "D4_in_B4"])
def test_w_times_x_matches_reduced_word_walk(params, max_deg):
    """Every w of the ambient group (W(B4) for D4) against x^b, |b| <= max_deg."""
    alg = Algebra(params)
    for exps in itertools.product(range(max_deg + 1), repeat=params.n):
        if sum(exps) > max_deg:
            continue
        for w, expected in _reference_w_times_x(alg, exps).items():
            got = alg._w_times_x(w, exps)
            assert len(got) == 5 and all(type(column) is tuple for column in got)
            assert {(b, g, u): c for b, _, g, u, c in zip(*got)} == expected, (w, exps)
            assert all(odd == sum((e & 1) << i for i, e in enumerate(b)) for b, odd in zip(*got[:2]))
    _assert_units_are_singletons(alg)


# Parameters under which each table meets a +-1 that is not the singleton:
# sums such as 2 - 1 in w x^b at unit parameters, the forced N of D3 at
# k = 1/2 (a computed 1) in x^a x^b, and sqrt2 k_short = 1 in s_n x_n.
LOOSE_UNIT_PARAMS = [
    B3_UNIT,
    AlgebraParams("D", 3, HALF, N=forced_n_constant(AlgebraParams("D", 3, HALF))),
    AlgebraParams("B", 3, ONE, k_short=HALF_SQRT2, N=ONE),
]


@pytest.mark.parametrize("params", LOOSE_UNIT_PARAMS, ids=["B3_unit", "D3_forced_N", "B3_sqrt2_ks"])
def test_memo_tables_store_units_as_singletons(params):
    alg = Algebra(params)
    for exps in itertools.product(range(3), repeat=params.n):
        for w in alg.ctx.elements():
            alg._w_times_x(w, exps)
        for b in itertools.product(range(3), repeat=params.n):
            alg._x_times_x(exps, b)
    _assert_units_are_singletons(alg)


def test_w_times_x_at_unit_k_makes_no_product(monkeypatch):
    """At k = 1 the memo entries of w x^b take every +-1 structure constant
    by value, and no other constant occurs for |b| <= 2."""
    alg = Algebra(AlgebraParams("A", 4, ONE))  # W(A3) = S_4
    products = []
    real = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: products.append(1) or real(x, y))
    for exps in itertools.product(range(3), repeat=4):
        if sum(exps) <= 2:
            for w in alg.ctx.elements():
                alg._w_times_x(w, exps)
    monkeypatch.undo()
    assert len(alg._wx_cache) == 15 * 24 and products == []
    _assert_units_are_singletons(alg)


def test_unit_structure_constants_cost_one_product_per_term_pair(monkeypatch):
    # At k = 1 every structure constant of these words is +-1, so the only
    # products are the ca * cb of the term pairs.
    alg = Algebra(A3)
    a = AlgElem(A3, {mono(A3, (1, 0, 2), 0b101, (2, 3, 1)): TWO,
                     mono(A3, (0, 2, 1), 0b010, (3, 1, 2)): SQRT2 + I})
    b = AlgElem(A3, {mono(A3, (2, 1, 0), 0b011, (1, 3, 2)): -HALF,
                     mono(A3, (0, 0, 3), 0b110, (2, 1, 3)): I,
                     mono(A3, (1, 1, 1), 0, (3, 1, 2)): -SQRT2})
    two_words = [(ONE, [a, b]), (TWO, [b, a])]
    alg.sum_of_products(two_words)  # fills the tables
    coefs = _table_coefs(alg)
    assert all(c is ONE or c is MINUS_ONE for c in coefs) and MINUS_ONE in coefs
    products = []
    real = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: products.append(1) or real(x, y))
    got = alg.multiply(a, b)
    count = len(products)
    got_sum = alg.sum_of_products(two_words)
    count_sum = len(products) - count
    monkeypatch.undo()
    assert count == len(a.terms) * len(b.terms)
    # The coef-2 word folds 2 into each of its left coefficients once.
    assert count_sum == 2 * len(a.terms) * len(b.terms) + len(b.terms)
    reference = algebra_for(A3)

    def expected(coef, left, right):
        out = {}
        for ma, ca in left.terms.items():
            for mb, cb in right.terms.items():
                for m, c in _reference_mono_product(reference, ma, mb).items():
                    out[m] = out.get(m, ZERO) + coef * ca * cb * c
        return out

    ab, ba = expected(ONE, a, b), expected(TWO, b, a)
    assert got.terms == {m: c for m, c in ab.items() if c}
    total = {m: ab.get(m, ZERO) + ba.get(m, ZERO) for m in ab.keys() | ba.keys()}
    assert got_sum.terms == {m: c for m, c in total.items() if c}


def _naive_sum(alg, terms):
    """sum(coef * F1 ... Fk) on a plain dict: each word multiplied out from
    1 by `multiply`, then added term by term."""
    out = {}
    for coef, factors in terms:
        product = alg.one()
        for factor in factors:
            product = alg.multiply(product, factor)
        for m, c in product.terms.items():
            out[m] = out.get(m, ZERO) + coef * c
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("params", [A3, B2, D3])
def test_sum_of_products_matches_the_naive_fold(params):
    rng = random.Random(303)
    alg = algebra_for(params)
    pool = (ONE, MINUS_ONE, TWO, -HALF, SQRT2, I + HALF_SQRT2)
    for _ in range(15):
        a, b, c = (random_element(params, rng) for _ in range(3))
        coefs = [rng.choice(pool) for _ in range(5)]
        terms = [(coefs[0], []), (coefs[1], [a]), (ZERO, [a, b]), (coefs[2], [a, b, c]),
                 (coefs[3], [c, a]), (coefs[4], (b,))]
        assert alg.sum_of_products(terms).terms == _naive_sum(alg, terms)
        assert alg.sum_of_products(iter(terms[2:3])).is_zero()
        assert TWO * a == a * TWO == AlgElem(params, _naive_sum(alg, [(TWO, [a])]))
    assert alg.sum_of_products([]).is_zero()
    with pytest.raises(ValueError):
        alg.sum_of_products([(ONE, [alg.one(), algebra_for(A2).one()])])
    with pytest.raises(ValueError):
        alg.sum_of_products([(ZERO, [algebra_for(A2).one()])])


def test_engine_registry_stays_bounded(capsys):
    for k in range(1, 11):
        check_relations_in_engine(AlgebraParams("A", 2, Scalar(k)))
    assert cli.main(["all", "--n", "3", "--k", "1"]) == 0
    capsys.readouterr()
    info = algebra_for.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize
