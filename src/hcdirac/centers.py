"""Jucys-Murphy realisation of the center map for type A.

zeta'(x_i) is the k-weighted Jucys-Murphy element of the x-degree-zero
subalgebra Seg_n; its images of the central power sums p_r(x^2) are compared
against the even center of Seg_n.  Seg_n is a twisted group algebra:
conjugation by the units c_i and s_j maps each monomial c^mask w to +-1
times a monomial, so the even center is spanned by one signed class sum per
orbit of even monomials, and an orbit reached with both signs contributes
nothing (Karpilovsky, Projective Representations of Finite Groups, 1985).
There is one class sum per strict partition of n (Sergeev, 1985).

`jucys_murphy` serves both zeta' and the type-A modules: summed from the
first index of i's block of lambda instead of from 1, it is the
Jucys-Murphy element of S_lambda, which is how x_i acts on St_lambda
(Nazarov, Adv. Math. 127, 1997).

The class sums are also coordinates on Z(Seg_n)_0: a central element is
read at the first monomial of every class (`center_coords`), multiplication
by one is an r x r matrix (`center_multiplication`), and its minimal
polynomial is the first Krylov relation on [1] (`minimal_polynomial`).
`cohomology` takes dim H_D from these.
"""

from __future__ import annotations

import functools
import itertools

from .engine import (
    AlgebraParams,
    AlgElem,
    algebra_for,
    cliff_insert,
    cliff_mul,
    perm_on_cliff,
)
from .dirac import twisted_reflection
from .linalg import Matrix, Subspace, sparse_kernel
from .partitions import distinct_partitions
from .scalars import ONE, SQRT2, ZERO, Scalar
from .weyl import Root, SignedPerm, reflection_perm


def jucys_murphy(n: int, i: int, k: Scalar, start: int = 1) -> AlgElem:
    """k * sum_{start<=j<i} s_{ij}(1 - c_i c_j), an element of Seg_n.

    With start = 1 it is zeta'(x_i); with start the first index of i's block
    of lambda it is x_i on St_lambda.
    """
    alg = algebra_for(AlgebraParams("A", n, k))
    total = alg.zero()
    for j in range(start, i):
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

# The largest n whose orbit walk is run: 322,560 even monomials at n = 7.
MAX_CENTER_N = 7
# The largest n of `verify_zeta_surjective`.  Its power sums are plain engine
# products, most of a 7 s run at n = 6.
MAX_ZETA_N = 6


def seg_mono_mul(
    a: tuple[int, SignedPerm], b: tuple[int, SignedPerm]
) -> tuple[int, tuple[int, SignedPerm]]:
    """(sign, product) for two Sergeev basis monomials c^mask w."""
    mask_a, wa = a
    mask_b, wb = b
    s1, moved = perm_on_cliff(wa, mask_b)
    s2, mask = cliff_mul(mask_a, moved)
    return s1 * s2, (mask, wa * wb)


def seg_mono_inverse(mono: tuple[int, SignedPerm]) -> tuple[int, tuple[int, SignedPerm]]:
    """(sign, monomial) with (c^mask w)^{-1} = sign * monomial.

    c^mask c^mask = eps, so (c^mask)^{-1} = eps c^mask, and w^{-1} c^mask is
    moved past by `perm_on_cliff`.
    """
    mask, w = mono
    eps, _ = cliff_mul(mask, mask)
    inv = w.inverse()
    sign, moved = perm_on_cliff(inv, mask)
    return eps * sign, (moved, inv)


def seg_even_center(n: int) -> list[dict[tuple[int, SignedPerm], int]]:
    """A basis of Z(Seg_n)_0: the signed class sums {(mask, w): +-1}.

    Each orbit of the even monomials under conjugation by c_i (whose inverse
    is -c_i) and s_j (its own inverse) is walked from its first monomial,
    which gets sign +1; the orbit gives a class sum unless it reaches some
    monomial with both signs.  A conjugate is formed in one step:
    c_i c^h w (-c_i) = -c_i c^h c_{w(i)} w flips the bits i and w(i) of h,
    and s_j c^h w s_j = +-c^{s_j(h)} (s_j w s_j) swaps the bits j and j+1,
    with sign -1 when both are set.
    """
    if n > MAX_CENTER_N:
        raise ValueError(f"seg_even_center is sized for n <= {MAX_CENTER_N}")
    flips: dict[tuple[int, int, int], tuple[int, int]] = {}
    conjugates: dict[tuple[int, SignedPerm], SignedPerm] = {}

    def c_conj(i: int, mask: int, w: SignedPerm) -> tuple[int, tuple[int, SignedPerm]]:
        key = (i, mask, w[i - 1])
        hit = flips.get(key)
        if hit is None:
            s1, left = cliff_insert(i, mask)
            s2, right = cliff_mul(left, 1 << (w[i - 1] - 1))
            hit = flips[key] = (-s1 * s2, right)
        return hit[0], (hit[1], w)

    def s_conj(j: int, mask: int, w: SignedPerm) -> tuple[int, tuple[int, SignedPerm]]:
        conj = conjugates.get((j, w))
        if conj is None:
            swap = {j: j + 1, j + 1: j}
            window = list(w)
            window[j - 1], window[j] = window[j], window[j - 1]
            conj = conjugates[(j, w)] = SignedPerm([swap.get(v, v) for v in window])
        pair = (mask >> (j - 1)) & 3
        if pair == 3:
            return -1, (mask, conj)
        if pair:
            mask ^= 3 << (j - 1)
        return 1, (mask, conj)

    units = [functools.partial(c_conj, i) for i in range(1, n + 1)]
    units += [functools.partial(s_conj, j) for j in range(1, n)]
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
                for conjugate in units:
                    s, image = conjugate(*mono)
                    sign = orbit[mono] * s
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


# (class sums, monomial -> (class, sign)); a monomial is (mask, w).
Monomial = tuple[int, SignedPerm]
ClassSums = tuple[list[dict[Monomial, int]], dict[Monomial, tuple[int, int]]]


@functools.lru_cache(maxsize=2)
def class_sums(n: int) -> ClassSums:
    """(sums, index): `seg_even_center(n)` and the map monomial -> (class, sign) over its sums.

    Kept for the two most recent n: every check of one run works at one n.
    """
    sums = seg_even_center(n)
    index = {mono: (o, sign) for o, z in enumerate(sums) for mono, sign in z.items()}
    return sums, index


def center_coords(elem: AlgElem, sums) -> tuple[list[Scalar], bool]:
    """(a_O, central): elem's coefficient a_O at the first monomial of each class
    sum z_O, and whether elem lies in Seg and equals sum_O a_O z_O exactly."""
    terms = {(mono.cliff, mono.w): coef for mono, coef in elem.terms.items()}
    coefs = [terms.get(next(iter(z)), ZERO) for z in sums]
    combo = {
        mono: a if sign > 0 else -a
        for a, z in zip(coefs, sums)
        if a
        for mono, sign in z.items()
    }
    return coefs, elem.is_seg() and terms == combo


def center_multiplication(elem: AlgElem, table: ClassSums) -> Matrix:
    """Multiplication by a central elem of Seg_n on the class sums, an r x r matrix.

    Column O is elem * z_O, central and even, so it is read at the first
    monomial f of every class: its coefficient there is the sum over the
    terms coef * t of elem of coef * delta * z_O(u), where t^{-1} f = delta * u.
    Raises ValueError unless elem is central (`center_coords`).
    """
    sums, index = table
    if not center_coords(elem, sums)[1]:
        raise ValueError("element is not central in Seg")
    inverses = [
        (coef, seg_mono_inverse((mono.cliff, mono.w))) for mono, coef in elem.terms.items()
    ]
    cols: list[dict] = [{} for _ in sums]
    for row, z in enumerate(sums):
        first = next(iter(z))
        for coef, (inv_sign, inv) in inverses:
            delta, u = seg_mono_mul(inv, first)
            hit = index.get(u)
            if hit is not None:
                col, sign = hit
                acc = cols[col]
                acc[row] = acc.get(row, ZERO) + (coef if inv_sign * delta * sign > 0 else -coef)
    return Matrix.from_sparse([{r: a for r, a in col.items() if a} for col in cols], len(sums))


def minimal_polynomial(matrix: Matrix) -> list[Scalar]:
    """The monic m, coefficients from degree 0 up, of least degree with m(matrix)[1] = 0.

    [1] is the first basis vector, which is the class sum of 1 in the
    coordinates of `class_sums`, so there m is the minimal polynomial of the
    central element that the matrix multiplies by.  The Krylov vectors [1], M[1], ..., M^r[1]
    are dependent; `sparse_kernel` meets the first dependent one first, and
    its combination has coefficient 1 there.
    """
    krylov = [{0: ONE}]
    for _ in range(matrix.ncols):
        krylov.append(matrix.apply(krylov[-1]))
    combo = sparse_kernel(krylov)[0]
    return [combo.get(j, ZERO) for j in range(max(combo) + 1)]


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
    if n > MAX_ZETA_N:
        raise ValueError(f"verify_zeta_surjective is sized for n <= {MAX_ZETA_N}")
    k = jms[0].params.k_long
    sums, _ = class_sums(n)
    rows = []
    central = []
    for image in zeta_on_power_sums(jms, max_r):
        coefs, is_central = center_coords(image, sums)
        central.append(is_central)
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
