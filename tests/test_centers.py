"""Jucys-Murphy center map: zeta'(D) = 0, power-sum images, surjectivity."""

from __future__ import annotations

import itertools
import random

import pytest

from hcdirac import centers
from hcdirac.centers import (
    center_coords,
    center_multiplication,
    class_sums,
    jucys_murphy,
    jucys_murphy_elements,
    minimal_polynomial,
    seg_even_center,
    seg_mono_inverse,
    seg_mono_mul,
    verify_zeta_surjective,
    zeta_on_dirac,
    zeta_on_power_sums,
)
from hcdirac.dirac import casimir_seg
from hcdirac.engine import AlgebraParams, algebra_for, multiply, parity
from hcdirac.linalg import Matrix, Subspace
from hcdirac.partitions import distinct_partitions
from hcdirac.scalars import HALF, ONE, TWO, ZERO, Scalar
from hcdirac.weyl import RootSystemCtx, SignedPerm


def seg_monomials(n):
    """All (cliff mask, w) monomials of Seg_n."""
    return [(mask, w) for mask in range(1 << n) for w in RootSystemCtx("A", n).elements()]


def test_jucys_murphy_examples():
    assert jucys_murphy(3, 1, ONE).is_zero()
    p = AlgebraParams("A", 3, ONE)
    alg = algebra_for(p)
    s12 = alg.w(SignedPerm((2, 1, 3)))
    expected = multiply(p, s12, alg.one() - multiply(p, alg.c(2), alg.c(1)))
    assert jucys_murphy(3, 2, ONE) == expected
    assert jucys_murphy(3, 2, ONE).is_seg()


def test_jm_with_k_prefactor():
    # same formal combination, scaled by k (params differ, so compare terms)
    assert jucys_murphy(2, 2, TWO).terms == jucys_murphy(2, 2, ONE).scale(TWO).terms
    assert jucys_murphy(2, 2, ZERO).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zeta_on_dirac_vanishes(n):
    assert zeta_on_dirac(jucys_murphy_elements(n, ONE)).is_zero()
    assert zeta_on_dirac(jucys_murphy_elements(n, TWO)).is_zero()


def test_power_sum_images_rank_one_and_k_zero():
    assert zeta_on_power_sums(jucys_murphy_elements(1, ONE), 1)[0].is_zero()
    assert all(image.is_zero() for image in zeta_on_power_sums(jucys_murphy_elements(3, ZERO), 2))
    with pytest.raises(ValueError):
        zeta_on_power_sums(jucys_murphy_elements(2, ONE), 0)


def test_power_sum_image_n2_matches_hand_value():
    # JM_2^2 = 2 k^2, so zeta'(p_1) = 2 k^2 * 1 in Seg_2.
    p = AlgebraParams("A", 2, ONE)
    alg = algebra_for(p)
    (image,) = zeta_on_power_sums(jucys_murphy_elements(2, ONE), 1)
    jm = jucys_murphy(2, 2, ONE)
    assert image == multiply(p, jm, jm)
    assert image == alg.one().scale(TWO)


def test_power_sum_images_are_central_and_even():
    p = AlgebraParams("A", 3, ONE)
    alg = algebra_for(p)
    gens = [alg.c(i) for i in (1, 2, 3)] + [alg.w(s) for s in alg.ctx.simple_reflections]
    for image in zeta_on_power_sums(jucys_murphy_elements(3, ONE), 2):
        assert parity(image) in ("even",)
        for g in gens:
            assert (multiply(p, image, g) - multiply(p, g, image)).is_zero()


def test_seg_mono_mul_matches_engine():
    rng = random.Random(5)
    p = AlgebraParams("A", 3, ONE)
    alg = algebra_for(p)
    monos = seg_monomials(3)
    for _ in range(100):
        a = monos[rng.randrange(len(monos))]
        b = monos[rng.randrange(len(monos))]
        sign, (mask, images) = seg_mono_mul(a, b)
        ea = multiply(p, _as_elem(alg, a), _as_elem(alg, b))
        expected = _as_elem(alg, (mask, images)).scale(Scalar(sign))
        assert ea == expected


def _as_elem(alg, mono):
    mask, images = mono
    elem = alg.w(SignedPerm(images))
    for i in range(alg.params.n, 0, -1):
        if mask & (1 << (i - 1)):
            elem = multiply(alg.params, alg.c(i), elem)
    return elem


def test_seg_mono_inverse():
    monos = seg_monomials(3)
    identity = SignedPerm.identity(3)
    for mono in monos:
        sign, inv = seg_mono_inverse(mono)
        assert seg_mono_mul(mono, inv) == seg_mono_mul(inv, mono) == (sign, (0, identity))


def _product_walk(n):
    """The class sums, each conjugate formed by two `seg_mono_mul` products per unit."""
    identity = SignedPerm.identity(n)
    # (unit, sign of its inverse)
    units = [((1 << (i - 1), identity), -1) for i in range(1, n + 1)]
    units += [((0, s), 1) for s in RootSystemCtx("A", n).simple_reflections]
    seen, sums = set(), []
    for mask in range(1 << n):
        if mask.bit_count() & 1:
            continue
        for w in map(SignedPerm, itertools.permutations(range(1, n + 1))):
            if (mask, w) in seen:
                continue
            orbit, stack, consistent = {(mask, w): 1}, [(mask, w)], True
            while stack:
                mono = stack.pop()
                for unit, inv_sign in units:
                    s1, left = seg_mono_mul(unit, mono)
                    s2, image = seg_mono_mul(left, unit)
                    sign = orbit[mono] * s1 * s2 * inv_sign
                    prev = orbit.get(image)
                    if prev is None:
                        orbit[image] = sign
                        stack.append(image)
                    elif prev != sign:
                        consistent = False
            seen.update(orbit)
            if consistent:
                sums.append(orbit)
    return sums


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_step_walk_matches_product_walk(n):
    # Same orbits, first monomials, signs, and order, term by term.
    assert [list(z.items()) for z in seg_even_center(n)] == [
        list(z.items()) for z in _product_walk(n)
    ]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("k", [ONE, -HALF])
def test_center_multiplication_matches_engine_products(n, k):
    # Column O of M is Omega_Seg * z_O, formed here in the engine.
    params = AlgebraParams("A", n, k)
    alg = algebra_for(params)
    omega_seg = casimir_seg(params)
    table = class_sums(n)
    sums, index = table
    assert index == {mono: (o, sign) for o, z in enumerate(sums) for mono, sign in z.items()}
    mult = center_multiplication(omega_seg, table)
    for o, z in enumerate(sums):
        elem = alg.zero()
        for mono, sign in z.items():
            elem = elem + _as_elem(alg, mono).scale(Scalar(sign))
        coefs, central = center_coords(alg.multiply(omega_seg, elem), sums)
        assert central
        assert mult.cols[o] == {row: a for row, a in enumerate(coefs) if a}


def test_minimal_polynomial_is_the_first_krylov_relation():
    # [1] = e0 is an eigenvector of diag(2, 3): m = t - 2, not the characteristic polynomial.
    assert minimal_polynomial(Matrix([[TWO, ZERO], [ZERO, Scalar(3)]])) == [-TWO, ONE]
    # The cyclic shift e0 -> e1 -> e2 -> e0 has m = t^3 - 1.
    shift = Matrix.from_sparse([{1: ONE}, {2: ONE}, {0: ONE}], 3)
    assert minimal_polynomial(shift) == [-ONE, ZERO, ZERO, ONE]
    assert minimal_polynomial(Matrix.zeros(1, 1)) == [ZERO, ONE]


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 2)])
def test_even_center_dimension(n, expected):
    assert len(seg_even_center(n)) == expected
    assert expected == len(distinct_partitions(n))


def test_even_center_guard():
    with pytest.raises(ValueError, match="n <= 7"):
        seg_even_center(8)


@pytest.mark.parametrize("n", [1, 7])
def test_zeta_surjective_guard(n):
    with pytest.raises(ValueError):
        verify_zeta_surjective(jucys_murphy_elements(n, ONE), 1)


@pytest.mark.parametrize("n,max_r", [(2, 2), (3, 3)])
def test_zeta_surjective(n, max_r):
    report = verify_zeta_surjective(jucys_murphy_elements(n, ONE), max_r)
    assert report["status"] == "pass"
    assert report["rank"] == report["center_dim"]
    assert report["images_in_center"]


@pytest.mark.parametrize("extra", ["s1", "x1"])
def test_zeta_surjective_flags_non_central_image(monkeypatch, extra):
    # s_1 is even and in Seg_3 but not central; x_1 is not in Seg_3 at all.
    alg = algebra_for(AlgebraParams("A", 3, ONE))
    real = centers.zeta_on_power_sums

    def perturbed(jms, max_r):
        images = real(jms, max_r)
        return [images[0] + alg.generators[extra]] + images[1:]

    monkeypatch.setattr(centers, "zeta_on_power_sums", perturbed)
    report = verify_zeta_surjective(jucys_murphy_elements(3, ONE), 3)
    assert not report["images_in_center"]
    assert report["status"] == "fail"


def test_zeta_surjective_degenerate_at_k_zero():
    report = verify_zeta_surjective(jucys_murphy_elements(2, ZERO), 2)
    assert report["status"] == "fail"
    assert report["rank"] == 0


def _commutator_kernel(n):
    """Z(Seg_n)_0 as the kernel of all generator commutators on even monomials."""
    monos = seg_monomials(n)
    index = {m: idx for idx, m in enumerate(monos)}
    even = [m for m in monos if m[0].bit_count() % 2 == 0]
    identity = SignedPerm.identity(n)
    gens = [(1 << (i - 1), identity) for i in range(1, n + 1)]
    gens += [(0, s) for s in RootSystemCtx("A", n).simple_reflections]
    columns = []
    for mono in even:
        col = {}
        for g_idx, gen in enumerate(gens):
            s1, left = seg_mono_mul(gen, mono)
            s2, right = seg_mono_mul(mono, gen)
            for sign, prod in ((s1, left), (-s2, right)):
                key = g_idx * len(monos) + index[prod]
                col[key] = col.get(key, 0) + sign
        columns.append({key: Scalar(v) for key, v in col.items() if v})
    return Subspace.kernel(Matrix.from_sparse(columns, len(gens) * len(monos))), even


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_class_sums_span_commutator_kernel(n):
    kernel, even = _commutator_kernel(n)
    index = {m: idx for idx, m in enumerate(even)}
    sums = seg_even_center(n)
    span = Subspace.spanned_by(
        [{index[mono]: Scalar(sign) for mono, sign in z.items()} for z in sums], len(even)
    )
    assert span.dim == len(sums) == kernel.dim
    # reduced column echelon form is unique, so equal spans have equal bases
    assert (span.pivots, span.vectors) == (kernel.pivots, kernel.vectors)


@pytest.mark.parametrize("n", [3, 4])
def test_class_sums_commute_with_generators(n):
    p = AlgebraParams("A", n, ONE)
    alg = algebra_for(p)
    gens = [alg.c(i) for i in range(1, n + 1)] + [alg.w(s) for s in alg.ctx.simple_reflections]
    for z in seg_even_center(n):
        elem = alg.zero()
        for mono, sign in z.items():
            elem = elem + _as_elem(alg, mono).scale(Scalar(sign))
        assert not elem.is_zero()
        for g in gens:
            assert (multiply(p, elem, g) - multiply(p, g, elem)).is_zero()


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("k", [ONE, -HALF])
def test_power_sums_match_per_r_products(n, k):
    alg = algebra_for(AlgebraParams("A", n, k))
    images = zeta_on_power_sums(jucys_murphy_elements(n, k), 4)
    assert len(images) == 4
    for r, image in enumerate(images, start=1):
        expected = alg.zero()
        for i in range(1, n + 1):
            jm = jucys_murphy(n, i, k)
            power = alg.one()
            for _ in range(2 * r):
                power = alg.multiply(power, jm)
            expected = expected + power
        assert image == expected
