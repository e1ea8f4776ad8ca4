"""Jucys-Murphy center map: zeta'(D) = 0, power-sum images, surjectivity."""

from __future__ import annotations

import random

import pytest

from hcdirac.centers import (
    jucys_murphy,
    seg_even_center,
    seg_mono_mul,
    seg_monomials,
    verify_zeta_surjective,
    zeta_on_dirac,
    zeta_on_power_sums,
)
from hcdirac.engine import AlgebraParams, algebra_for, multiply, parity
from hcdirac.partitions import distinct_partitions
from hcdirac.scalars import ONE, TWO, ZERO, Scalar
from hcdirac.weyl import SignedPerm


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
    assert zeta_on_dirac(n, ONE).is_zero()
    assert zeta_on_dirac(n, TWO).is_zero()


def test_power_sum_images_rank_one_and_k_zero():
    assert zeta_on_power_sums(1, 1, ONE).is_zero()
    assert zeta_on_power_sums(3, 2, ZERO).is_zero()
    with pytest.raises(ValueError):
        zeta_on_power_sums(2, 0, ONE)


def test_power_sum_image_n2_matches_hand_value():
    # JM_2^2 = 2 k^2, so zeta'(p_1) = 2 k^2 * 1 in Seg_2.
    p = AlgebraParams("A", 2, ONE)
    alg = algebra_for(p)
    image = zeta_on_power_sums(2, 1, ONE)
    jm = jucys_murphy(2, 2, ONE)
    assert image == multiply(p, jm, jm)
    assert image == alg.one().scale(TWO)


def test_power_sum_images_are_central_and_even():
    p = AlgebraParams("A", 3, ONE)
    alg = algebra_for(p)
    gens = [alg.c(i) for i in (1, 2, 3)] + [alg.w(s) for s in alg.ctx.simple_reflections]
    for r in (1, 2):
        image = zeta_on_power_sums(3, r, ONE)
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


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 2), (4, 2)])
def test_even_center_dimension(n, expected):
    space, even = seg_even_center(n)
    assert space.dim == expected
    assert expected == len(distinct_partitions(n))


def test_even_center_guard():
    with pytest.raises(ValueError):
        seg_even_center(6)


@pytest.mark.parametrize("n", [1, 5])
def test_zeta_surjective_guard(n):
    with pytest.raises(ValueError):
        verify_zeta_surjective(n, ONE, 1)


@pytest.mark.parametrize("n,max_r", [(2, 2), (3, 3)])
def test_zeta_surjective(n, max_r):
    report = verify_zeta_surjective(n, ONE, max_r)
    assert report["status"] == "pass"
    assert report["rank"] == report["center_dim"]
    assert report["images_in_center"]


def test_zeta_surjective_degenerate_at_k_zero():
    report = verify_zeta_surjective(2, ZERO, 2)
    assert report["status"] == "fail"
    assert report["rank"] == 0
