"""Jucys-Murphy realisation of the center map for type A.

zeta'(x_i) is the k-weighted Jucys-Murphy element of the x-degree-zero
subalgebra Seg_n; its images of the central power sums p_r(x^2) are compared
against the even center of Seg_n.  Seg_n is a twisted group algebra:
conjugation by the units c_i and s_j maps each monomial c^mask w to +-1
times a monomial, so the even center is spanned by one signed class sum per
orbit of even monomials, and an orbit reached with both signs contributes
nothing (Karpilovsky, Projective Representations of Finite Groups, 1985).
There is one class sum per strict partition of n (Sergeev, 1985).
"""

from __future__ import annotations

import itertools

from .engine import (
    AlgebraParams,
    AlgElem,
    algebra_for,
    cliff_mul,
    perm_on_cliff,
)
from .dirac import twisted_reflection
from .linalg import Subspace
from .partitions import distinct_partitions
from .scalars import SQRT2, ZERO, Scalar
from .weyl import Root, SignedPerm, reflection_perm


def jucys_murphy(n: int, i: int, k: Scalar) -> AlgElem:
    """zeta'(x_i) = k * sum_{j<i} s_{ij}(1 - c_i c_j), an element of Seg_n."""
    alg = algebra_for(AlgebraParams("A", n, k))
    total = alg.zero()
    for j in range(1, i):
        s_ij = alg.w(reflection_perm(Root("diff", j, i), n))
        inner = alg.one() - alg.multiply(alg.c(i), alg.c(j))
        total = total + alg.multiply(s_ij, inner).scale(k)
    return total


def jucys_murphy_elements(n: int, k: Scalar) -> list[AlgElem]:
    """[zeta'(x_1), ..., zeta'(x_n)], built once for the center checks to share."""
    return [jucys_murphy(n, i, k) for i in range(1, n + 1)]


def zeta_on_dirac(jms: list[AlgElem]) -> AlgElem:
    """zeta'(D) = sum_i JM_i c_i + sqrt2 k sum_{alpha>0} stilde_alpha, from jms = [JM_1..JM_n]."""
    params = jms[0].params
    alg = algebra_for(params)
    total = alg.zero()
    for i, jm in enumerate(jms, start=1):
        total = total + alg.multiply(jm, alg.c(i))
    for root in alg.ctx.positive_roots:
        total = total + twisted_reflection(params, root).scale(SQRT2 * params.k_long)
    return total


def zeta_on_power_sums(jms: list[AlgElem], max_r: int) -> list[AlgElem]:
    """zeta'(p_r(x^2)) = sum_i JM_i^{2r} for r = 1..max_r, computed in the engine.

    Each JM_i^2 is formed once, and each further power is one product with it.
    """
    if max_r < 1:
        raise ValueError("power sum index must be positive")
    alg = algebra_for(jms[0].params)
    images = [alg.zero()] * max_r
    for jm in jms:
        powers = [alg.multiply(jm, jm)]
        while len(powers) < max_r:
            powers.append(alg.multiply(powers[-1], powers[0]))
        images = [image + power for image, power in zip(images, powers)]
    return images


# ---------------------------------------------------------------------------
# The even center of Seg_n as signed class sums.


def seg_mono_mul(
    a: tuple[int, SignedPerm], b: tuple[int, SignedPerm]
) -> tuple[int, tuple[int, SignedPerm]]:
    """(sign, product) for two Sergeev basis monomials c^mask w."""
    mask_a, wa = a
    mask_b, wb = b
    s1, moved = perm_on_cliff(wa, mask_b)
    s2, mask = cliff_mul(mask_a, moved)
    return s1 * s2, (mask, wa * wb)


def seg_even_center(n: int) -> list[dict[tuple[int, SignedPerm], int]]:
    """A basis of Z(Seg_n)_0: the signed class sums {(mask, w): +-1}.

    Each orbit of the even monomials under conjugation by c_i (whose inverse
    is -c_i) and s_j (its own inverse) is walked from its first monomial,
    which gets sign +1; the orbit gives a class sum unless it reaches some
    monomial with both signs.
    """
    if n > 5:
        raise ValueError("seg_even_center is sized for n <= 5")
    identity = SignedPerm.identity(n)
    # (unit, sign of its inverse): g^{-1} = sign * g for every generator.
    units = [((1 << (i - 1), identity), -1) for i in range(1, n + 1)]
    units += [((0, reflection_perm(Root("diff", j, j + 1), n)), 1) for j in range(1, n)]
    seen: set[tuple[int, SignedPerm]] = set()
    sums = []
    for mask in range(1 << n):
        if mask.bit_count() & 1:
            continue
        for w in map(SignedPerm, itertools.permutations(range(1, n + 1))):
            if (mask, w) in seen:
                continue
            orbit = {(mask, w): 1}
            stack = [(mask, w)]
            consistent = True
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
    expected = len(distinct_partitions(n))
    if len(sums) != expected:
        raise AssertionError(
            f"dim Z(Seg_{n})_0 = {len(sums)}, expected |distinct partitions| = {expected}"
        )
    return sums


def verify_zeta_surjective(jms: list[AlgElem], max_r: int) -> dict:
    """Span of zeta'(p_r(x^2)), r <= max_r, against the full even center.

    jms = [JM_1..JM_n] fixes n and k.  An image is central when it lies in
    Seg_n and equals sum_O a_O z_O over the class sums z_O, where a_O is its
    coefficient at the first monomial of z_O.  `rank` is the rank of the
    rows (a_O)_O; when every image is central, it is the rank of the images.

    n = 1 is excluded: there zeta'(p_r(x^2)) = 0 for every r >= 1, while
    Z(Seg_1)_0 is the constants.
    """
    n = len(jms)
    if n < 2:
        raise ValueError("verify_zeta_surjective needs n >= 2")
    if n > 4:
        raise ValueError("verify_zeta_surjective is sized for n <= 4")
    k = jms[0].params.k_long
    sums = seg_even_center(n)
    rows = []
    central = []
    for image in zeta_on_power_sums(jms, max_r):
        terms = {(mono.cliff, mono.w): coef for mono, coef in image.terms.items()}
        coefs = [terms.get(next(iter(z)), ZERO) for z in sums]
        combo = {
            mono: a if sign > 0 else -a
            for a, z in zip(coefs, sums)
            if a
            for mono, sign in z.items()
        }
        central.append(image.is_seg() and terms == combo)
        rows.append({o: a for o, a in enumerate(coefs) if a})
    rank = Subspace.spanned_by(rows, len(sums)).dim
    ok = rank == len(sums) and all(central)
    return {
        "check": "zeta_surjective",
        "n": n,
        "k": k.compact(),
        "max_r": max_r,
        "rank": rank,
        "center_dim": len(sums),
        "images_in_center": all(central),
        "status": "pass" if ok else "fail",
    }
