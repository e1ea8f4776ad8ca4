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
    multiply,
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
    assert multiply(A3, c1, c1) == -algebra_for(A3).one()


def test_simple_past_x_example():
    # s_12 x_1 = x_2 s_12 - k + k c_1 c_2
    alg = algebra_for(A3)
    s12 = alg.w(SignedPerm((2, 1, 3)))
    got = multiply(A3, s12, alg.x(1))
    expected = (
        multiply(A3, alg.x(2), s12)
        - alg.one()
        + multiply(A3, alg.c(1), alg.c(2))
    )
    assert got == expected


def test_x_noncommutativity_type_b():
    # x_2 x_1 = x_1 x_2 + N c_1 c_2
    alg = algebra_for(B2)
    got = multiply(B2, alg.x(2), alg.x(1))
    expected = multiply(B2, alg.x(1), alg.x(2)) + multiply(B2, alg.c(1), alg.c(2)).scale(
        B2.N
    )
    assert got == expected


def test_short_reflection_past_x():
    # s_n x_n = -x_n s_n - sqrt2 k_s
    alg = algebra_for(B2)
    sn = alg.w(SignedPerm((1, -2)))
    got = multiply(B2, sn, alg.x(2))
    expected = -multiply(B2, alg.x(2), sn) - alg.one().scale(SQRT2 * B2.k_short)
    assert got == expected


def test_parity_classes():
    alg = algebra_for(A2)
    assert parity(alg.c(1)) == "odd"
    assert parity(multiply(A2, alg.x(1), alg.c(1))) == "odd"
    assert parity(alg.one()) == "even"
    assert parity(alg.c(1) + alg.one()) == "mixed"
    assert parity(alg.zero()) == "even"


def test_parity_multiplicative():
    rng = random.Random(11)
    alg = algebra_for(B2)
    for _ in range(60):
        a = random_element(B2, rng, max_deg=1, max_terms=1)
        b = random_element(B2, rng, max_deg=1, max_terms=1)
        pa, pb = parity(a), parity(b)
        prod = multiply(B2, a, b)
        if prod.is_zero():
            continue
        expect = "even" if pa == pb else "odd"
        assert parity(prod) == expect


def test_supercommutator_examples():
    alg = algebra_for(B2)
    assert supercommutator(B2, alg.c(1), alg.c(2)).is_zero()
    assert supercommutator(B2, alg.x(1), alg.x(2)) == multiply(
        B2, alg.c(2), alg.c(1)
    ).scale(B2.N)
    algA = algebra_for(A2)
    assert supercommutator(A2, algA.x(1), algA.x(2)).is_zero()
    with pytest.raises(ValueError):
        supercommutator(A2, algA.c(1) + algA.one(), algA.c(2))


@pytest.mark.parametrize("params", [A2, A3, B2, B2_FREE, D2, D3])
def test_relation_closure(params):
    report = check_relations_in_engine(params)
    assert report["status"] == "pass", report["failures"]


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


def test_identity_is_neutral():
    rng = random.Random(5)
    alg = algebra_for(B2)
    one = alg.one()
    for _ in range(20):
        a = random_element(B2, rng)
        assert multiply(B2, one, a) == a
        assert multiply(B2, a, one) == a


def test_group_algebra_embedding():
    rng = random.Random(17)
    from hcdirac.engine import random_group_element

    for params in (A3, B2):
        alg = algebra_for(params)
        for _ in range(200):
            u = random_group_element(params, rng)
            v = random_group_element(params, rng)
            assert multiply(params, alg.w(u), alg.w(v)) == alg.w(u * v)


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
    report = check_pbw_consistency(params, trials=25, max_deg=2, seed=42)
    assert report["status"] == "pass", report["failures"]


def test_pbw_consistency_zero_element_trivial():
    zero = algebra_for(A2).zero()
    a = random_element(A2, random.Random(0))
    assert multiply(A2, multiply(A2, zero, a), a).is_zero()


def test_type_d_products_stay_in_subalgebra():
    rng = random.Random(23)
    for _ in range(40):
        a = random_element(D3, rng)
        b = random_element(D3, rng)
        prod = multiply(D3, a, b)
        assert all(m.w.neg_count() % 2 == 0 for m in prod.terms)


def test_text_form():
    assert algebra_for(A2).zero().to_string() == "0"
    alg = algebra_for(A2)
    elem = multiply(A2, alg.x(1), alg.x(1)) + alg.c(2).scale(SQRT2)
    assert elem.to_string() == "(1*r2)*c2*[1,2] + (1)*x1^2*[1,2]"


def test_params_mismatch_raises():
    a = algebra_for(A2).one()
    b = algebra_for(A3).one()
    with pytest.raises(ValueError):
        multiply(A2, a, b)


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
        assert multiply(params, a, b).terms == {m: c for m, c in expected.items() if c}
    assert {I, SQRT2, HALF} <= seen


@pytest.mark.parametrize("params", [B3_FREE, D3])
@pytest.mark.parametrize("seed", [13, 2024])
def test_pbw_consistency_rank_three(params, seed):
    report = check_pbw_consistency(params, trials=10, max_deg=2, seed=seed)
    assert report["status"] == "pass", report["failures"]


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
    assert {"_xx_cache", "_sx_cache", "_wx_cache"} <= tables.keys()
    for name, table in tables.items():
        assert table, name
        for key in table:
            assert isinstance(key, tuple) and not isinstance(key, PbwMonomial), (name, key)
            assert all(_is_exponent_key_part(part) for part in key), (name, key)


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
    """Every coefficient stored in the three straightening tables."""
    tables = (alg._xx_cache, alg._sx_cache, alg._wx_cache)
    return [entry[-1] for table in tables for terms in table.values() for entry in terms]


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
            assert {(b, g, u): c for b, _, g, u, c in got} == expected, (w, exps)
            assert all(odd == sum((e & 1) << i for i, e in enumerate(b)) for b, odd, *_ in got)
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
    alg.multiply(a, b)  # fills the tables
    coefs = _table_coefs(alg)
    assert all(c is ONE or c is MINUS_ONE for c in coefs) and MINUS_ONE in coefs
    products = []
    real = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: products.append(1) or real(x, y))
    got = alg.multiply(a, b)
    count = len(products)
    monkeypatch.undo()
    assert count == len(a.terms) * len(b.terms)
    expected = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            for m, c in _reference_mono_product(algebra_for(A3), ma, mb).items():
                expected[m] = expected.get(m, ZERO) + ca * cb * c
    assert got.terms == {m: c for m, c in expected.items() if c}


def test_engine_registry_stays_bounded(capsys):
    for k in range(1, 11):
        check_relations_in_engine(AlgebraParams("A", 2, Scalar(k)))
    assert cli.main(["all", "--n", "3", "--k", "1"]) == 0
    capsys.readouterr()
    info = algebra_for.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize
