"""Jucys-Murphy realisation of the center map for type A.

zeta'(x_i) is the k-weighted Jucys-Murphy element of the x-degree-zero
subalgebra Seg_n; its images of the central power sums p_r(x^2) are compared
against the even center of Seg_n.  Seg_n is a twisted group algebra:
conjugation by the units c_i and s_j maps each monomial c^mask w to +-1
times a monomial, so the even center is spanned by signed class sums.
There is one per partition rho of n into odd parts, as many as the strict
partitions by Euler's identity (Sergeev, Math. USSR Sb. 1985; Jozefiak,
Expo. Math. 1989).  z_rho holds the c^mask w with w of cycle type rho and
mask of even weight on every cycle of w; its sign at c^mask w comes from
clearing mask along each cycle by conjugation with the c_a (`class_of`).

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

from math import factorial

from .engine import (
    AlgebraParams,
    AlgElem,
    algebra_for,
    cliff_mul,
    perm_on_cliff,
)
from .dirac import twisted_reflections
from .linalg import Matrix, sparse_kernel
from .partitions import Partition, all_partitions
from .scalars import ONE, SQRT2, ZERO, Scalar
from .weyl import Root, SignedPerm, reflection_perm


def jucys_murphy(n: int, i: int, k: Scalar, start: int = 1) -> AlgElem:
    """k * sum_{start<=j<i} s_{ij}(1 - c_i c_j), an element of Seg_n.

    With start = 1 it is zeta'(x_i); with start the first index of i's block
    of lambda it is x_i on St_lambda.
    """
    alg = algebra_for(AlgebraParams("A", n, k))
    terms = []
    for j in range(start, i):
        s_ij = alg.w(reflection_perm(Root("diff", j, i), n))
        terms += [(k, [s_ij]), (-k, [s_ij, alg.c(i), alg.c(j)])]
    return alg.sum_of_products(terms)


def jucys_murphy_elements(n: int, k: Scalar) -> list[AlgElem]:
    """[zeta'(x_1), ..., zeta'(x_n)], built once for the center checks to share."""
    return [jucys_murphy(n, i, k) for i in range(1, n + 1)]


def zeta_on_dirac(jms: list[AlgElem]) -> AlgElem:
    """zeta'(D) = sum_i JM_i c_i + sqrt2 k sum_{alpha>0} stilde_alpha, from jms = [JM_1..JM_n]."""
    params = jms[0].params
    alg = algebra_for(params)
    return alg.sum_of_products(
        [(ONE, [jm, alg.c(i)]) for i, jm in enumerate(jms, start=1)]
        + [(SQRT2 * params.k_long, [stilde]) for stilde in twisted_reflections(params).values()])


def zeta_on_power_sums(jms: list[AlgElem], max_r: int) -> list[AlgElem]:
    """zeta'(p_r(x^2)) = sum_i JM_i^{2r} for r = 1..max_r, computed in the engine.

    Each JM_i^2 is formed once, and each further power is one product with it.
    """
    if max_r < 1:
        raise ValueError("power sum index must be positive")
    alg = algebra_for(jms[0].params)
    squares = [alg.multiply(jm, jm) for jm in jms]
    powers, images = squares, []
    while True:
        images.append(alg.sum_of_products((ONE, [power]) for power in powers))
        if len(images) == max_r:
            return images
        powers = [alg.multiply(power, square) for power, square in zip(powers, squares)]


# ---------------------------------------------------------------------------
# The even center of Seg_n as signed class sums.

# The largest n of `verify_zeta_surjective`.  Its power sums are plain engine products:
# 97 % of a `center --n 6 --k 1` run, 3.5-3.7 s of CPU (Python 3.11, 2-vCPU VM).
MAX_ZETA_N = 6

# A Sergeev basis monomial c^mask w as (mask, w), and one class of
# Z(Seg_n)_0 as (rho, first monomial, |z_rho|).
Monomial = tuple[int, SignedPerm]
SegClass = tuple[Partition, Monomial, int]


def seg_mono_mul(a: Monomial, b: Monomial) -> tuple[int, Monomial]:
    """(sign, product) for two Sergeev basis monomials c^mask w."""
    mask_a, wa = a
    mask_b, wb = b
    s1, moved = perm_on_cliff(wa, mask_b)
    s2, mask = cliff_mul(mask_a, moved)
    return s1 * s2, (mask, wa * wb)


def seg_mono_inverse(mono: Monomial) -> tuple[int, Monomial]:
    """(sign, monomial) with (c^mask w)^{-1} = sign * monomial.

    c^mask c^mask = eps, so (c^mask)^{-1} = eps c^mask, and w^{-1} c^mask is
    moved past by `perm_on_cliff`.
    """
    mask, w = mono
    eps, _ = cliff_mul(mask, mask)
    inv = w.inverse()
    sign, moved = perm_on_cliff(inv, mask)
    return eps * sign, (moved, inv)


def class_of(mono: Monomial) -> tuple[Partition, int] | None:
    """(rho, sign) when c^mask w is sign times a term of the class sum z_rho, else None.

    c^mask w lies in a class exactly when every cycle of w is odd and mask
    has even weight on every cycle; rho is the cycle type of w.  The sign
    comes from clearing mask along each cycle (a, w(a), ...): conjugating
    by c_a, c_a c^h w c_a^{-1} = -c_a c^h c_{w(a)} w flips the bits a and
    w(a), which clears a.  By parity the cycle's last bit is then clear, and
    the plain permutation left is conjugate to the first monomial of z_rho
    by s_j's, each with sign +1.
    """
    mask, w = mono
    sign, parts, unseen = 1, [], set(range(1, len(w) + 1))
    for start in range(1, len(w) + 1):
        if start not in unseen:
            continue
        cycle = [start]
        while w[cycle[-1] - 1] != start:
            cycle.append(w[cycle[-1] - 1])
        unseen.difference_update(cycle)
        if not len(cycle) & 1:
            return None
        for a in cycle[:-1]:
            if mask >> (a - 1) & 1:
                s1, left = cliff_mul(1 << (a - 1), mask)
                s2, mask = cliff_mul(left, 1 << (w[a - 1] - 1))
                sign *= -s1 * s2
        if mask >> (cycle[-1] - 1) & 1:
            return None
        parts.append(len(cycle))
    return Partition(tuple(sorted(parts, reverse=True))), sign


def seg_even_center(n: int) -> list[SegClass]:
    """A basis of Z(Seg_n)_0: one class sum z_rho per partition rho of n into odd parts.

    z_rho is the sum of sign * c^mask w over the monomials that `class_of`
    puts in rho.  Each class is (rho, first monomial, |z_rho|): the first
    monomial is (0, w_rho), the least window of cycle type rho, whose
    cycles lie on consecutive indices, shortest first; the sign there is +1.
    |z_rho| = |C_rho| 2^(n - l(rho)), as mask may be any of even weight on
    every cycle.  The classes are ordered by w_rho, so the class of 1 is
    first.
    """
    classes = []
    for rho in all_partitions(n):
        if any(p % 2 == 0 for p in rho.parts):
            continue
        window: list[int] = []
        for p in reversed(rho.parts):
            base = len(window)
            window += [*range(base + 2, base + p + 1), base + 1]
        centralizer = 1
        for p in set(rho.parts):
            mult = rho.parts.count(p)
            centralizer *= p**mult * factorial(mult)
        size = factorial(n) // centralizer * 2 ** (n - len(rho.parts))
        classes.append((rho, (0, SignedPerm(window)), size))
    return sorted(classes, key=lambda cls: cls[1][1])


def center_coords(elem: AlgElem, classes: list[SegClass]) -> tuple[list[Scalar], bool]:
    """(a_rho, central): elem's coefficient a_rho at the first monomial of each
    class, and whether elem lies in Seg and equals sum_rho a_rho z_rho exactly.

    Centrality is read off elem's own terms: each lies in a class (`class_of`)
    with coefficient sign * a_rho, and each class with a_rho != 0 has all
    |z_rho| of its terms.
    """
    terms = {(mono.cliff, mono.w): coef for mono, coef in elem.terms.items()}
    coefs = {rho: terms.get(first, ZERO) for rho, first, _ in classes}
    counts = dict.fromkeys(coefs, 0)
    for mono, coef in terms.items():
        hit = class_of(mono)
        if hit is None or coef != (coefs[hit[0]] if hit[1] > 0 else -coefs[hit[0]]):
            return list(coefs.values()), False
        counts[hit[0]] += 1
    full = all(counts[rho] == size for rho, _, size in classes if coefs[rho])
    return list(coefs.values()), elem.is_seg() and full


def center_multiplication(elem: AlgElem, classes: list[SegClass]) -> Matrix:
    """Multiplication by a central elem of Seg_n on the class sums, an r x r matrix.

    Column rho is elem * z_rho, central and even, so it is read at the first
    monomial f of every class: its coefficient there is the sum over the
    terms coef * t of elem of coef * delta * z_rho(u), where t^{-1} f = delta * u.
    Raises ValueError unless elem is central (`center_coords`).
    """
    if not center_coords(elem, classes)[1]:
        raise ValueError("element is not central in Seg")
    column = {rho: o for o, (rho, _, _) in enumerate(classes)}
    inverses = [
        (coef, seg_mono_inverse((mono.cliff, mono.w))) for mono, coef in elem.terms.items()
    ]
    cols: list[dict] = [{} for _ in classes]
    for row, (_, first, _) in enumerate(classes):
        for coef, (inv_sign, inv) in inverses:
            delta, u = seg_mono_mul(inv, first)
            hit = class_of(u)
            if hit is not None:
                rho, sign = hit
                acc = cols[column[rho]]
                acc[row] = acc.get(row, ZERO) + (coef if inv_sign * delta * sign > 0 else -coef)
    return Matrix.from_sparse([{r: a for r, a in col.items() if a} for col in cols], len(classes))


def minimal_polynomial(matrix: Matrix) -> list[Scalar]:
    """The monic m, coefficients from degree 0 up, of least degree with m(matrix)[1] = 0.

    [1] is the first basis vector, which is the class sum of 1 in the
    coordinates of `seg_even_center`, so there m is the minimal polynomial of the
    central element that the matrix multiplies by.  The Krylov vectors [1], M[1], ..., M^r[1]
    are dependent; `sparse_kernel` meets the first dependent one first, and
    its combination has coefficient 1 there.
    """
    krylov = [{0: ONE}]
    for _ in range(matrix.ncols):
        krylov.append(matrix.apply(krylov[-1]))
    combo = sparse_kernel(krylov)[0]
    return [combo.get(j, ZERO) for j in range(max(combo) + 1)]


def verify_zeta_surjective(jms: list[AlgElem], max_r: int) -> tuple[bool, dict]:
    """Span of zeta'(p_r(x^2)), r <= max_r, against the full even center.

    Returns (passed, {"rank", "center_dim"}): passed when every image is
    central and their rank is the dimension of Z(Seg_n)_0.

    jms = [JM_1..JM_n] fixes n and k.  An image is central when it lies in
    Seg_n and equals sum_rho a_rho z_rho over the class sums z_rho, where
    a_rho is its coefficient at the first monomial of z_rho
    (`center_coords`).  `rank` is the rank of the rows (a_rho)_rho, their
    number less the null combinations `sparse_kernel` finds among them;
    when every image is central, it is the rank of the images.

    n = 1 is excluded: there zeta'(p_r(x^2)) = 0 for every r >= 1, while
    Z(Seg_1)_0 is the constants.
    """
    n = len(jms)
    if n < 2:
        raise ValueError("verify_zeta_surjective needs n >= 2")
    if n > MAX_ZETA_N:
        raise ValueError(f"verify_zeta_surjective is sized for n <= {MAX_ZETA_N}")
    classes = seg_even_center(n)
    rows = []
    central = []
    for image in zeta_on_power_sums(jms, max_r):
        coefs, is_central = center_coords(image, classes)
        central.append(is_central)
        rows.append({o: a for o, a in enumerate(coefs) if a})
    rank = len(rows) - len(sparse_kernel(rows))
    return rank == len(classes) and all(central), {"rank": rank, "center_dim": len(classes)}
