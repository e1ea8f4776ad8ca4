"""Straightening engine: relations, normal forms, associativity, parity."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import tracemalloc
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


def _code(alg, mono):
    """The engine's word code of a PbwMonomial, giving its parts ids."""
    n, xs = alg._layout[:2]
    return alg._xid(mono.exps) << xs | alg._uid(mono.w) << n | mono.cliff


def _word(alg, code):
    """The PbwMonomial of a word code, read from the engine's id lists."""
    n, xs, full, um = alg._layout
    return PbwMonomial(alg._exps[code >> xs], code & full, alg._elements[code >> n & um])


def _const(alg, cid):
    """The constant of a signed id 2i + s: (-1)^s alg._consts[i]."""
    c = alg._consts[cid >> 1]
    return -c if cid & 1 else c


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
        alg._mono_product(out, _code(alg, left), _code(alg, right), ONE)
        assert {_word(alg, code): c for code, c in out.items()} == _reference_mono_product(alg, left, right)


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


def _ints(obj) -> bool:
    """True when obj is an int, or a tuple of such, all the way down."""
    return type(obj) is int or (type(obj) is tuple and all(map(_ints, obj)))


def test_straightening_tables_keyed_on_exponents():
    check_pbw_consistency(B3_FREE, trials=5)
    alg = algebra_for(B3_FREE)
    n, n_exps, n_elements = alg.params.n, len(alg._exps), len(alg._elements)
    # One row of x^a x^b per exponent id a, and one of w x^b per element id w.
    assert len(alg._xx) == len(alg._odds) == n_exps and len(alg._wx) == len(alg._seg_rows) == n_elements
    tables = {"_xx": alg._xx, "_wx": alg._wx, "_sx": [alg._sx]}
    for name, rows in tables.items():
        assert any(rows), name
        for row in rows:
            for key, entry in row.items():
                # Keys are exponent ids, or (simple index, exponent id); entries are ints only.
                b = key[1] if name == "_sx" else key
                assert _ints(key) and 0 <= b < n_exps, (name, key)
                assert entry and _ints(entry), (name, key, entry)
    # Each Seg row of u is its Clifford moves by mask and its products by element id.
    filled = [row for row in alg._seg_rows if row is not None]
    assert filled
    for moves, products in filled:
        assert moves and all(0 <= f < 1 << n and _ints(move) and move[0] in (0, 1) and move[1] < 1 << n
                             for f, move in moves.items())
        assert products and all(0 <= uid < n_elements for item in products.items() for uid in item)


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
    walked = {(): {(exps, 0, alg._elements[0]): ONE}}

    def walk(word):
        if word not in walked:
            out = {}
            for (b, g, u), coef in walk(word[1:]).items():
                for b1, h, k, v in alg._s_times_x(word[0], alg._xid(b)):
                    v = alg._elements[v]
                    sign, moved = perm_on_cliff(v, g)
                    s2, mask = cliff_mul(h, moved)
                    key = (alg._exps[b1], mask, v * u)
                    term = coef * _const(alg, k)
                    out[key] = out.get(key, ZERO) + (term if sign * s2 > 0 else -term)
            walked[word] = {key: c for key, c in out.items() if c}
        return walked[word]

    ctx = alg.push_ctx
    return {w: walk(tuple(ctx.reduced_word(w))) for w in ctx.elements()}


def _w_times_x(alg, w, exps):
    """w x^exps read from the engine's w x^b table, as {(exps1, cliff, u):
    coefficient}, or None for w = 1 or exps = 0, which take no entry.  Each
    entry is one flat tuple of five-item terms (exps1, odd, cliff, u,
    constant), odd the mask of the odd entries of exps1."""
    wid, b = alg._uid(w), alg._xid(exps)
    if not (wid and b):
        return None
    entry = alg._wx[wid].get(b) or alg._w_times_x(wid, b)
    assert type(entry) is tuple and entry and len(entry) % 5 == 0 and alg._wx[wid][b] is entry
    terms = {}
    for b1, odd, g, u, k in zip(*[iter(entry)] * 5):
        assert odd == sum((e & 1) << i for i, e in enumerate(alg._exps[b1]))
        terms[alg._exps[b1], g, alg._elements[u]] = _const(alg, k)
    return terms


def _table_coefs(alg):
    """Every coefficient stored in the three straightening tables, decoded
    from its signed id: the constant of each term of x^a x^b, s x^b (third
    part) and w x^b (every fifth item of its flat entry)."""
    cids = [term[2] for row in alg._xx for entry in row.values() for term in entry]
    cids += [term[2] for entry in alg._sx.values() for term in entry]
    for row in alg._wx:
        for entry in row.values():
            assert len(entry) % 5 == 0, entry
            cids += entry[4::5]
    return [_const(alg, cid) for cid in cids]


def _assert_units_are_singletons(alg):
    coefs = _table_coefs(alg)
    assert coefs
    for c in coefs:
        assert c is ONE or c is MINUS_ONE or (c != ONE and c != MINUS_ONE)
    # +-1 is the id 0 or 1 only: no other stored constant equals a unit.
    assert alg._consts[0] is ONE and all(c != ONE and c != MINUS_ONE for c in alg._consts[1:])


@pytest.mark.parametrize("params, max_deg", FREE_PARAMS, ids=["A4", "B3", "D4_in_B4"])
def test_w_times_x_matches_reduced_word_walk(params, max_deg):
    """Every w of the ambient group (W(B4) for D4) against x^b, |b| <= max_deg."""
    alg = Algebra(params)
    for exps in itertools.product(range(max_deg + 1), repeat=params.n):
        if sum(exps) > max_deg:
            continue
        for w, expected in _reference_w_times_x(alg, exps).items():
            got = _w_times_x(alg, w, exps)
            if got is None:  # w x^0 = w and 1 x^b = x^b, written down by _mono_product
                assert expected == {(exps, 0, w): ONE}, (w, exps)
            else:
                assert got == expected, (w, exps)
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
            _w_times_x(alg, w, exps)
        for b in itertools.product(range(3), repeat=params.n):
            alg._x_times_x(alg._xid(exps), alg._xid(b))
    _assert_units_are_singletons(alg)


def test_w_times_x_at_unit_k_makes_no_product(monkeypatch):
    """At k = 1 the memo entries of w x^b take every +-1 structure constant
    by value, and no other constant occurs for |b| <= 2."""
    alg = Algebra(AlgebraParams("A", 4, ONE))  # W(A3) = S_4
    products = []
    real = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: products.append(1) or real(x, y))
    answers = [_w_times_x(alg, w, exps) for exps in itertools.product(range(3), repeat=4)
               if sum(exps) <= 2 for w in alg.ctx.elements()]
    monkeypatch.undo()
    # 15 * 24 pairs (w, b); those with w = 1 or b = 0 take no entry.
    assert len(answers) == 15 * 24 and answers.count(None) == 15 + 24 - 1
    assert sum(map(len, alg._wx)) == 14 * 23 and products == []
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


def test_non_unit_structure_constants_cost_one_product_each_per_term_pair(monkeypatch):
    """At k = 2/3 the entries of w x^b hold +-k, +-k^2, ...: a term pair
    forms scale * constant once per distinct constant up to sign, however
    many terms carry it (s1 x1 = x2 s1 - k + k c1 c2 has two), and type A's
    x^a x^b constants are all 1."""
    params = AlgebraParams("A", 3, K23)
    alg = Algebra(params)
    a = AlgElem(params, {mono(params, (1, 0, 0), 0b101, (3, 2, 1)): TWO,
                         mono(params, (0, 2, 1), 0b010, (2, 1, 3)): SQRT2 + I})
    b = AlgElem(params, {mono(params, (2, 1, 0), 0b011, (1, 3, 2)): -HALF,
                         mono(params, (1, 0, 1), 0b110, (2, 3, 1)): I,
                         mono(params, (0, 0, 0), 0, (3, 1, 2)): -SQRT2})
    walks = {mb.exps: _reference_w_times_x(alg, mb.exps) for mb in b.terms}
    distinct = 0
    for ma in a.terms:
        for mb in b.terms:
            coefs = walks[mb.exps][ma.w].values()
            distinct += len({frozenset((c, -c)) for c in coefs if c != ONE and c != MINUS_ONE})
    non_unit_terms = sum(c != ONE and c != MINUS_ONE for ma in a.terms for mb in b.terms
                         for c in walks[mb.exps][ma.w].values())
    assert 0 < distinct < non_unit_terms  # so one product per term would be more
    alg.multiply(a, b)  # fills the tables
    products = []
    real = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: products.append(1) or real(x, y))
    got = alg.multiply(a, b)
    monkeypatch.undo()
    assert len(products) == len(a.terms) * len(b.terms) + distinct
    expected = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            for m, c in _reference_mono_product(algebra_for(params), ma, mb).items():
                expected[m] = expected.get(m, ZERO) + ca * cb * c
    assert got.terms == {m: c for m, c in expected.items() if c}


def test_product_words_are_pbw_monomials():
    """No word code leaves the engine: every key of every result is a
    PbwMonomial of a tuple of ints, an int mask and a SignedPerm."""
    rng = random.Random(404)
    for params in (A3, B3_FREE, D3):
        alg = algebra_for(params)
        for _ in range(10):
            a, b = random_element(params, rng), random_element(params, rng)
            for elem in (a * b, a + b, a - b, a.scale(TWO), -a, alg.sum_of_products([(TWO, [a, b, a])]),
                         supercommutator(params, alg.c(1), alg.c(2)), alg.one(), alg.x(1) * alg.c(2)):
                for word in elem.terms:
                    assert type(word) is PbwMonomial and type(word.exps) is tuple and type(word.cliff) is int
                    assert all(type(e) is int for e in word.exps) and type(word.w) is SignedPerm


# The deformation parameters of the benchmark's pbw B3 case (ks = N = 1):
# each one changes which structure constants are units.
BENCHMARK_KS = ["1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "2/3", "3/2"]


@pytest.mark.parametrize("k", BENCHMARK_KS)
def test_pbw_consistency_at_benchmark_parameters(k):
    params = AlgebraParams("B", 3, Scalar(Fraction(k)), k_short=ONE, N=ONE)
    assert check_pbw_consistency(params, trials=5, seed=5) == []


def test_large_engine_starts_with_no_rows():
    """Building the A9 engine, as `cohomology` does at n = 9, allocates no
    table of 4^n Clifford products: every Clifford and Seg row is made on
    first use."""
    tracemalloc.start()
    try:
        alg = Algebra(AlgebraParams("A", 9, ONE))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 100_000
    assert len(alg._crows) == 1 << 9 and all(row is None for row in alg._crows)
    assert len(alg._seg_rows) == 9 and all(row is None for row in alg._seg_rows)


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
