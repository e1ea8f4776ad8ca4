"""Jucys-Murphy realisation of the center map for type A.

zeta'(x_i) is the k-weighted Jucys-Murphy element of the x-degree-zero
subalgebra Seg_n; its images of the central power sums p_r(x^2) are compared
against the even center of Seg_n, which is computed as the simultaneous
kernel of all generator commutators on the even part of the regular
representation.  The commutator columns hold the Sergeev structure
constants, which are signs, as `Scalar`s, and their kernel is
`Subspace.kernel`, the package's one eliminator.
"""

from __future__ import annotations

from .engine import (
    AlgebraParams,
    AlgElem,
    algebra_for,
    cliff_mul,
    perm_on_cliff,
)
from .dirac import twisted_reflection
from .linalg import Matrix, Subspace
from .partitions import distinct_partitions
from .scalars import SQRT2, ZERO, Scalar
from .weyl import Root, RootSystemCtx, SignedPerm, reflection_perm


def _type_a_params(n: int, k: Scalar) -> AlgebraParams:
    return AlgebraParams("A", n, k)


def jucys_murphy(n: int, i: int, k: Scalar) -> AlgElem:
    """zeta'(x_i) = k * sum_{j<i} s_{ij}(1 - c_i c_j), an element of Seg_n."""
    params = _type_a_params(n, k)
    alg = algebra_for(params)
    total = alg.zero()
    for j in range(1, i):
        s_ij = alg.w(reflection_perm(Root("diff", j, i), n))
        inner = alg.one() - alg.multiply(alg.c(i), alg.c(j))
        total = total + alg.multiply(s_ij, inner).scale(k)
    return total


def zeta_on_dirac(n: int, k: Scalar) -> AlgElem:
    """zeta'(D) = sum_i JM_i c_i + sqrt2 k sum_{alpha>0} stilde_alpha."""
    params = _type_a_params(n, k)
    alg = algebra_for(params)
    total = alg.zero()
    for i in range(1, n + 1):
        total = total + alg.multiply(jucys_murphy(n, i, k), alg.c(i))
    for root in alg.ctx.positive_roots:
        total = total + twisted_reflection(params, root).scale(SQRT2 * k)
    return total


def zeta_on_power_sums(n: int, r: int, k: Scalar) -> AlgElem:
    """zeta'(p_r(x^2)) = sum_i JM_i^{2r}, computed in the engine."""
    if r < 1:
        raise ValueError("power sum index must be positive")
    params = _type_a_params(n, k)
    alg = algebra_for(params)
    total = alg.zero()
    for i in range(1, n + 1):
        jm = jucys_murphy(n, i, k)
        power = alg.one()
        for _ in range(2 * r):
            power = alg.multiply(power, jm)
        total = total + power
    return total


# ---------------------------------------------------------------------------
# The even center of Seg_n via sparse elimination.


def seg_monomials(n: int) -> list[tuple[int, SignedPerm]]:
    """All (cliff mask, w) monomials of Seg_n in deterministic order."""
    ctx = RootSystemCtx("A", n)
    return [(mask, w) for mask in range(1 << n) for w in ctx.elements()]


def seg_mono_mul(
    a: tuple[int, SignedPerm], b: tuple[int, SignedPerm]
) -> tuple[int, tuple[int, SignedPerm]]:
    """(sign, product) for two Sergeev basis monomials c^mask w."""
    mask_a, wa = a
    mask_b, wb = b
    s1, moved = perm_on_cliff(wa, mask_b)
    s2, mask = cliff_mul(mask_a, moved)
    return s1 * s2, (mask, wa * wb)


def seg_even_center(n: int) -> tuple[Subspace, list[tuple[int, SignedPerm]]]:
    """Basis of Z(Seg_n)_0 in even-monomial coordinates, plus the index list."""
    if n > 5:
        raise ValueError("seg_even_center is sized for n <= 5")
    monos = seg_monomials(n)
    mono_index = {m: idx for idx, m in enumerate(monos)}
    even = [m for m in monos if bin(m[0]).count("1") % 2 == 0]
    gens: list[tuple[int, SignedPerm]] = []
    identity = SignedPerm.identity(n)
    for i in range(1, n + 1):
        gens.append((1 << (i - 1), identity))
    for s in RootSystemCtx("A", n).simple_reflections:
        gens.append((0, s))
    columns = []
    stride = len(monos)
    for mono in even:
        col: dict[int, int] = {}
        for g_idx, gen in enumerate(gens):
            s1, left = seg_mono_mul(gen, mono)
            s2, right = seg_mono_mul(mono, gen)
            base = g_idx * stride
            for sign, prod in ((s1, left), (-s2, right)):
                key = base + mono_index[prod]
                col[key] = col.get(key, 0) + sign
        columns.append({key: Scalar(value) for key, value in col.items() if value})
    space = Subspace.kernel(Matrix.from_sparse(columns, len(gens) * stride))
    expected = len(distinct_partitions(n))
    if space.dim != expected:
        raise AssertionError(
            f"dim Z(Seg_{n})_0 = {space.dim}, expected |distinct partitions| = {expected}"
        )
    return space, even


def seg_elem_coordinates(elem: AlgElem, even: list[tuple[int, SignedPerm]]) -> tuple[Scalar, ...]:
    """Coordinates of an even Seg element over the even-monomial basis."""
    index = {m: idx for idx, m in enumerate(even)}
    vec = [ZERO] * len(even)
    for mono, coef in elem.terms.items():
        if mono.x_degree() != 0:
            raise ValueError("element does not lie in Seg_n")
        key = (mono.cliff, mono.w)
        if key not in index:
            raise ValueError("element is not even")
        vec[index[key]] = coef
    return tuple(vec)


def verify_zeta_surjective(n: int, k: Scalar, max_r: int) -> dict:
    """Span of zeta'(p_r(x^2)), r <= max_r, against the full even center.

    n = 1 is excluded: there zeta'(p_r(x^2)) = 0 for every r >= 1, while
    Z(Seg_1)_0 is the constants.
    """
    if n < 2:
        raise ValueError("verify_zeta_surjective needs n >= 2")
    if n > 4:
        raise ValueError("verify_zeta_surjective is sized for n <= 4")
    center, even = seg_even_center(n)
    span = Subspace(len(even))
    memberships = []
    for r in range(1, max_r + 1):
        image = zeta_on_power_sums(n, r, k)
        coords = seg_elem_coordinates(image, even)
        memberships.append(center.contains(coords))
        span.add_vector(coords)
    rank = span.dim
    ok = rank == center.dim and all(memberships)
    return {
        "check": "zeta_surjective",
        "n": n,
        "k": k.compact(),
        "max_r": max_r,
        "rank": rank,
        "center_dim": center.dim,
        "images_in_center": all(memberships),
        "status": "pass" if ok else "fail",
    }
