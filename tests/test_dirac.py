"""Dirac element, Casimirs, and the in-algebra identities.

The Omega_Seg value for type A at n=2 is cross-checked against an
independent 8-dimensional regular representation of the Sergeev algebra
built from scratch in this file (no engine involvement).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from hcdirac.dirac import (
    casimirs,
    d_squared_constant,
    dirac_bundle,
    dirac_element,
    dressed_generators,
    seg_commutators,
    twisted_reflection,
    verify_identities,
)
from hcdirac.engine import AlgebraParams, algebra_for, multiply, parity
from hcdirac.scalars import HALF_SQRT2, ONE, SQRT2, TWO, ZERO, Scalar
from hcdirac.weyl import Root, SignedPerm

K_VALUES = (ONE, TWO, Scalar(Fraction(1, 2)))


def params_for(typ, n, k=ONE, ks=ZERO, N=ZERO):
    if typ == "A":
        return AlgebraParams("A", n, k)
    if typ == "D":
        return AlgebraParams("D", n, k, N=N)
    return AlgebraParams("B", n, k, k_short=ks, N=N)


def test_twisted_reflection_examples():
    p = params_for("A", 2)
    alg = algebra_for(p)
    got = twisted_reflection(p, Root("diff", 1, 2))
    s12 = alg.w(SignedPerm((2, 1)))
    c_alpha = alg.c(1).scale(HALF_SQRT2) - alg.c(2).scale(HALF_SQRT2)
    assert got == multiply(p, s12, c_alpha)
    # stilde squared is the identity
    assert multiply(p, got, got) == alg.one()
    pb = params_for("B", 2, ks=ONE)
    algb = algebra_for(pb)
    short = twisted_reflection(pb, Root("short", 1))
    assert short == multiply(pb, algb.w(SignedPerm((-1, 2))), algb.c(1))


def test_twisted_reflection_rejects_bad_roots():
    p = params_for("A", 2)
    with pytest.raises(ValueError):
        twisted_reflection(p, Root("short", 1))
    with pytest.raises(ValueError):
        twisted_reflection(p, Root("diff", 1, 3))


def test_dressed_generators_type_a():
    p = params_for("A", 2)
    alg = algebra_for(p)
    y1, y1p, x1p = dressed_generators(p, 1)
    assert y1 == multiply(p, alg.x(1), alg.c(1))
    assert y1p == y1 + twisted_reflection(p, Root("diff", 1, 2)).scale(HALF_SQRT2)
    # x'_i c_i = y'_i since c_i^2 = -1
    assert multiply(p, x1p, alg.c(1)) == y1p


def test_dressed_generators_type_b_rank_one():
    p = params_for("B", 1, ks=ONE)
    y1, y1p, _ = dressed_generators(p, 1)
    assert y1p == y1 + twisted_reflection(p, Root("short", 1)).scale(HALF_SQRT2)


def test_dirac_element_examples():
    p = params_for("A", 2)
    alg = algebra_for(p)
    d = dirac_element(p)
    y1 = multiply(p, alg.x(1), alg.c(1))
    y2 = multiply(p, alg.x(2), alg.c(2))
    assert d == y1 + y2 + twisted_reflection(p, Root("diff", 1, 2)).scale(SQRT2)

    p1 = params_for("A", 1)
    alg1 = algebra_for(p1)
    assert dirac_element(p1) == multiply(p1, alg1.x(1), alg1.c(1))

    pb = params_for("B", 1, ks=ONE)
    algb = algebra_for(pb)
    yb = multiply(pb, algb.x(1), algb.c(1))
    assert dirac_element(pb) == yb + twisted_reflection(pb, Root("short", 1)).scale(HALF_SQRT2)


def test_casimir_examples():
    p = params_for("A", 2)
    alg = algebra_for(p)
    omega_h, omega_seg = casimirs(p)
    assert omega_h == multiply(p, alg.x(1), alg.x(1)) + multiply(p, alg.x(2), alg.x(2))
    assert omega_seg == alg.one().scale(TWO)
    p1 = params_for("A", 1)
    assert casimirs(p1)[1].is_zero()


# -- independent oracle: the regular representation of Seg_2 ----------------
#
# Basis c^e w over e in {0,1}^2, w in S_2, multiplication written from the
# smash-product rules alone (no engine code).


def _seg2_mul(a, b):
    (mask_a, perm_a), (mask_b, perm_b) = a, b
    sign = 1
    # perm_a past c^mask_b: relabel the set bits, count transposition signs.
    moved = []
    for i in (1, 2):
        if mask_b & (1 << (i - 1)):
            moved.append(perm_a[i - 1])
    if moved == [2, 1]:
        sign, moved = -sign, [1, 2]
    mask_moved = sum(1 << (v - 1) for v in moved)
    # Clifford product c^mask_a c^mask_moved with c_i^2 = -1.
    mask = mask_moved
    for i in (2, 1):
        if mask_a & (1 << (i - 1)):
            below = bin(mask & ((1 << (i - 1)) - 1)).count("1")
            sign *= (-1) ** below
            if mask & (1 << (i - 1)):
                sign, mask = -sign, mask & ~(1 << (i - 1))
            else:
                mask |= 1 << (i - 1)
    perm = tuple(perm_a[perm_b[i] - 1] for i in range(2))
    return sign, (mask, perm)


def test_omega_seg_value_against_regular_representation():
    basis = [(mask, perm) for mask in range(4) for perm in ((1, 2), (2, 1))]
    index = {b: i for i, b in enumerate(basis)}
    k = ONE
    # Omega_Seg for A_1 inside Seg_2: 2 k^2 stilde^2 with stilde = s12 c_alpha;
    # expand stilde stilde over the basis with rational coefficients.
    stilde = {}
    for mask, coef in (((1 << 0), HALF_SQRT2), ((1 << 1), -HALF_SQRT2)):
        key = (mask, (2, 1))
        stilde[key] = stilde.get(key, ZERO) + coef
    prod = {}
    for key_a, coef_a in stilde.items():
        for key_b, coef_b in stilde.items():
            # left factor written c^mask w: move w past the right factor
            sign, (mask, perm) = _seg2_mul(((0, key_a[1])), key_b)
            s2, (mask2, perm2) = _seg2_mul((key_a[0], (1, 2)), (mask, perm))
            key = (mask2, perm2)
            prod[key] = prod.get(key, ZERO) + coef_a * coef_b * (sign * s2)
    prod = {k2: v for k2, v in prod.items() if v}
    # weight: (1/2) |alpha|^2 |beta|^2 k^2 over the single pair = 2 k^2
    omega_reg = {k2: v * TWO for k2, v in prod.items()}
    assert omega_reg == {(0, (1, 2)): TWO}
    # and the engine agrees
    p = params_for("A", 2, k)
    _, omega_seg = casimirs(p)
    assert omega_seg == algebra_for(p).one().scale(TWO)


# -- identity grid ----------------------------------------------------------


@pytest.mark.parametrize("typ,n", [("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("D", 2)])
def test_plain_d_squared_at_zero_n(typ, n):
    for k in K_VALUES:
        kw = {"ks": ONE} if typ == "B" else {}
        p = params_for(typ, n, k, **kw)
        bundle = dirac_bundle(p)
        residual = multiply(p, bundle.D, bundle.D) - (bundle.omega_h - bundle.omega_seg)
        assert residual.is_zero()


@pytest.mark.parametrize(
    "typ,n,N",
    [("B", 2, Scalar(3)), ("B", 3, Scalar(5)), ("D", 2, Scalar(2)), ("D", 3, Scalar(4))],
)
def test_corrected_d_squared_at_nonzero_n(typ, n, N):
    p = params_for(typ, n, ONE, ks=(ONE if typ == "B" else ZERO), N=N)
    bundle = dirac_bundle(p)
    residual = multiply(p, bundle.D, bundle.D) - (bundle.omega_h - bundle.omega_seg)
    assert residual == algebra_for(p).one().scale(d_squared_constant(p))
    assert d_squared_constant(p) == N * Scalar(Fraction(n * (n - 1), 2))


def test_bundle_presentations_and_parity():
    for typ, n in (("A", 3), ("B", 2), ("D", 2)):
        p = params_for(typ, n, ks=(ONE if typ == "B" else ZERO))
        bundle = dirac_bundle(p)
        assert parity(bundle.D) == "odd"
        assert parity(bundle.omega_h) == "even"
        assert parity(bundle.omega_seg) == "even"
        assert bundle.omega_seg.is_seg()


@pytest.mark.parametrize("typ,n", [("A", 3), ("B", 2), ("D", 3)])
def test_verify_identities_report(typ, n):
    kw = {"ks": ONE} if typ == "B" else {}
    report = verify_identities(params_for(typ, n, **kw))
    assert report["status"] == "pass", report
    names = {c["check"] for c in report["checks"]}
    assert "d_squared" in names and "root_sum_sq_mixed" in names
    d_sq = next(c for c in report["checks"] if c["check"] == "d_squared")
    assert d_sq["plain_identity"]  # N = 0 here


@pytest.mark.parametrize("typ,n", [("A", 3), ("B", 2), ("D", 3)])
def test_seg_commutators_name_the_module_generators(typ, n):
    params = params_for(typ, n, ks=ONE if typ == "B" else ZERO)
    alg = algebra_for(params)
    d = dirac_element(params)
    commutators = seg_commutators(params, d)
    assert [name for name, _ in commutators] == (
        alg.ctx.simple_names + [f"c{i}" for i in range(1, n + 1)])
    assert all(residual.is_zero() for _, residual in commutators)
    # The identity report keeps its index labels for the same residuals.
    labels = [c["check"] for c in verify_identities(params)["checks"]][1 : 1 + len(commutators)]
    assert labels == [f"w_comm_s{t}" for t in range(1, len(alg.ctx.simple_names) + 1)] + [
        f"c{i}_anticomm" for i in range(1, n + 1)]
    # D + 1 still commutes with W but anticommutes with no c_i.
    shifted = seg_commutators(params, d + alg.one())
    assert [name for name, residual in shifted if not residual.is_zero()] == [
        f"c{i}" for i in range(1, n + 1)]


def test_verify_identities_reports_correction_at_nonzero_n():
    report = verify_identities(params_for("D", 2, N=Scalar(2)))
    assert report["status"] == "pass"
    d_sq = next(c for c in report["checks"] if c["check"] == "d_squared")
    assert not d_sq["plain_identity"]
    assert d_sq["n_correction"] == "2"


def test_d_squared_supercommutes_with_seg():
    # property (**): D^2 commutes with everything supercommuting with Seg;
    # concretely [D^2, h] = 0 for the Seg generators themselves.
    for typ, n in (("A", 2), ("B", 2)):
        p = params_for(typ, n, ks=(ONE if typ == "B" else ZERO))
        alg = algebra_for(p)
        d = dirac_element(p)
        d_sq = multiply(p, d, d)
        gens = [alg.c(i) for i in range(1, n + 1)]
        gens += [alg.w(s) for s in alg.ctx.simple_reflections]
        for g in gens:
            assert (multiply(p, d_sq, g) - multiply(p, g, d_sq)).is_zero()


def test_conjugation_lemma():
    # w y_i w^{-1} - y_{w(i)} = sqrt2 sum over beta>0, w^{-1}(beta)<0,
    # <beta, w(e_i)> != 0 of k_beta stilde_beta, for all simple w.
    for typ, n in (("A", 3), ("B", 2)):
        p = params_for(typ, n, ks=(ONE if typ == "B" else ZERO))
        alg = algebra_for(p)
        ys = [multiply(p, alg.x(i), alg.c(i)) for i in range(1, n + 1)]
        for s in alg.ctx.simple_reflections:
            ws = alg.w(s)
            ws_inv = alg.w(s.inverse())
            for i in range(1, n + 1):
                lhs = multiply(p, multiply(p, ws, ys[i - 1]), ws_inv)
                target = ys[abs(s.image(i)) - 1]
                total = alg.zero()
                w_ei = s.image(i)
                for beta in alg.ctx.positive_roots:
                    _, sign = s.inverse().act_root(beta)
                    if sign > 0:
                        continue
                    touches = (
                        beta.i == abs(w_ei)
                        if beta.kind == "short"
                        else abs(w_ei) in (beta.i, beta.j)
                    )
                    if touches:
                        total = total + twisted_reflection(p, beta).scale(SQRT2 * p.k_for(beta))
                assert lhs - target == total
