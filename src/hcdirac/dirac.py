"""Distinguished elements: twisted reflections, dressed generators, the Dirac
element and the two Casimir-type elements, plus in-algebra identity checks.

The Dirac element is built from the uniform formula

    D = sum_i y_i + (sqrt2/2) * sum_{alpha > 0} k_alpha |<alpha,alpha>| stilde_alpha

which specialises to the long/short split displays for each type; the
construction cross-checks it against sum_i y'_i and sum_i x'_i c_i.

The square of D differs from Omega_H - Omega_Seg by the constant
n(n-1)/2 * N coming from y_i y_j + y_j y_i = N; the constant vanishes in
type A and whenever the x-generators commute (N = 0).  verify_identities
asserts the corrected identity exactly and reports whether the plain form
holds for the given parameters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .engine import AlgebraParams, AlgElem, algebra_for, parity, supercommutator
from .scalars import HALF, HALF_SQRT2, MINUS_ONE, ONE, Scalar
from .weyl import Root


def clifford_root_element(params: AlgebraParams, root: Root) -> AlgElem:
    """c_alpha: (sqrt2/2)(c_i -+ c_j) for long roots, c_i for short ones."""
    alg = algebra_for(params)
    if root.kind == "short":
        return alg.c(root.i)
    sign = ONE if root.kind == "sum" else MINUS_ONE
    return alg.sum_of_products(((HALF_SQRT2, [alg.c(root.i)]), (HALF_SQRT2 * sign, [alg.c(root.j)])))


def twisted_reflection(params: AlgebraParams, root: Root) -> AlgElem:
    """stilde_alpha = s_alpha c_alpha in normal form, for positive alpha."""
    alg = algebra_for(params)
    if not alg.ctx.contains_root(root):
        raise ValueError(f"{root} is not a positive root of type {params.type}, n={params.n}")
    s = alg.w(alg.ctx.reflection(root))
    return alg.multiply(s, clifford_root_element(params, root))


@lru_cache(maxsize=8)
def twisted_reflections(params: AlgebraParams) -> dict[Root, AlgElem]:
    """{alpha: stilde_alpha} over the positive roots, in their order.

    Built once for each of the 8 most recently used parameter sets, like
    `algebra_for`, and read by every element below; the elements are
    shared, and no caller changes them.
    """
    return {root: twisted_reflection(params, root) for root in algebra_for(params).ctx.positive_roots}


def dressed_generators(params: AlgebraParams, i: int) -> tuple[AlgElem, AlgElem, AlgElem]:
    """(y_i, y'_i, x'_i) with y_i = x_i c_i and x'_i = -y'_i c_i."""
    alg = algebra_for(params)
    y = alg.multiply(alg.x(i), alg.c(i))
    y_prime = alg.sum_of_products(
        [(ONE, [y])] + [(HALF_SQRT2 * params.k_for(root), [stilde])
                        for root, stilde in twisted_reflections(params).items() if i in (root.i, root.j)])
    x_prime = alg.sum_of_products(((MINUS_ONE, [y_prime, alg.c(i)]),))
    return y, y_prime, x_prime


def dirac_element(params: AlgebraParams) -> AlgElem:
    """D = sum_i y_i + (sqrt2/2) sum_{alpha>0} k_alpha |<alpha,alpha>| stilde_alpha."""
    alg = algebra_for(params)
    return alg.sum_of_products(
        [(ONE, [alg.x(i), alg.c(i)]) for i in range(1, params.n + 1)]
        + [(HALF_SQRT2 * params.k_for(root) * root.length_sq(), [stilde])
           for root, stilde in twisted_reflections(params).items()])


def casimir_h(params: AlgebraParams) -> AlgElem:
    """Omega_H = sum_i x_i^2."""
    alg = algebra_for(params)
    return alg.sum_of_products((ONE, [alg.x(i), alg.x(i)]) for i in range(1, params.n + 1))


def _negated_pairs(params: AlgebraParams, first: list[Root], second: list[Root]):
    """The pairs (alpha, beta) of first x second with s_alpha beta < 0."""
    ctx = algebra_for(params).ctx
    for alpha in first:
        s_alpha = ctx.reflection(alpha)
        for beta in second:
            if s_alpha.act_root(beta)[1] < 0:
                yield alpha, beta


def casimir_seg(params: AlgebraParams) -> AlgElem:
    """Omega_Seg, the weighted double sum of stilde_alpha stilde_beta."""
    alg = algebra_for(params)
    roots = alg.ctx.positive_roots
    stilde = twisted_reflections(params)
    return alg.sum_of_products(
        (HALF * alpha.length_sq() * beta.length_sq() * params.k_for(alpha) * params.k_for(beta),
         [stilde[alpha], stilde[beta]])
        for alpha, beta in _negated_pairs(params, roots, roots))


def casimirs(params: AlgebraParams) -> tuple[AlgElem, AlgElem]:
    """(Omega_H, Omega_Seg)."""
    return casimir_h(params), casimir_seg(params)


def d_squared_constant(params: AlgebraParams) -> Scalar:
    """The constant n(n-1)/2 * N separating D^2 from Omega_H - Omega_Seg."""
    return params.N * Scalar(Fraction(params.n * (params.n - 1), 2))


def d_squared_residual(D: AlgElem, omega_h: AlgElem, omega_seg: AlgElem) -> AlgElem:
    """D^2 - (Omega_H - Omega_Seg) - `d_squared_constant`, zero exactly when
    the corrected identity holds."""
    return algebra_for(D.params).sum_of_products(
        ((ONE, [D, D]), (MINUS_ONE, [omega_h]), (ONE, [omega_seg]), (-d_squared_constant(D.params), [])))


class DiracBundle(NamedTuple):
    """The Dirac element and the two Casimirs for one parameter set, cross-checked."""

    D: AlgElem
    omega_h: AlgElem
    omega_seg: AlgElem


def dirac_bundle(params: AlgebraParams) -> DiracBundle:
    alg = algebra_for(params)
    D = dirac_element(params)
    omega_h, omega_seg = casimirs(params)
    dressed = [dressed_generators(params, i) for i in range(1, params.n + 1)]
    sum_y_prime = alg.sum_of_products((ONE, [y_prime]) for _, y_prime, _ in dressed)
    sum_xc = alg.sum_of_products((ONE, [x_prime, alg.c(i)])
                                 for i, (_, _, x_prime) in enumerate(dressed, start=1))
    if D != sum_y_prime or D != sum_xc:
        raise AssertionError("Dirac element presentations disagree")
    if parity(D) not in ("odd", "even"):  # zero D (n=1, k=0 short) counts as even
        raise AssertionError("Dirac element is not parity homogeneous")
    if parity(omega_h) != "even" or parity(omega_seg) != "even":
        raise AssertionError("Casimir elements must be even")
    if not omega_seg.is_seg():
        raise AssertionError("Omega_Seg must have x-degree zero")
    return DiracBundle(D, omega_h, omega_seg)


# A check: (name, passed, details).
Check = tuple[str, bool, dict]


def _root_sum_square_checks(params: AlgebraParams) -> list[Check]:
    """(sum_A stilde)(sum_B stilde) = sum of stilde_alpha stilde_beta over the
    pairs of A x B with s_alpha beta < 0, for the long and short roots."""
    alg = algebra_for(params)
    roots = alg.ctx.positive_roots
    stilde = twisted_reflections(params)
    longs = [r for r in roots if r.length_sq() == 2]
    shorts = [r for r in roots if r.length_sq() == 1]
    long_block, short_block = ((rs, alg.sum_of_products((ONE, [stilde[r]]) for r in rs))
                               for rs in (longs, shorts))

    def check(name, *blocks):
        terms = []
        for (first, first_sum), (second, second_sum) in blocks:
            terms.append((ONE, [first_sum, second_sum]))
            terms += [(MINUS_ONE, [stilde[alpha], stilde[beta]])
                      for alpha, beta in _negated_pairs(params, first, second)]
        return _residual_check(name, alg.sum_of_products(terms))

    return [check("root_sum_sq_long", (long_block, long_block)),
            check("root_sum_sq_short", (short_block, short_block)),
            check("root_sum_sq_mixed", (long_block, short_block), (short_block, long_block))]


def _residual_check(name: str, residual: AlgElem) -> Check:
    """A check that passes when residual is zero, else carries it as witness."""
    if residual.is_zero():
        return name, True, {}
    return name, False, {"witness": residual.to_string()}


def verify_identities(params: AlgebraParams) -> list[Check]:
    """Exact normal-form checks: D^2, Weyl/Clifford commutation, root sums."""
    alg = algebra_for(params)
    bundle = dirac_bundle(params)

    constant = d_squared_constant(params)
    residual = d_squared_residual(*bundle)
    details = {"n_correction": constant.compact(), "plain_identity": residual == alg.scalar(-constant)}
    if not residual.is_zero():
        details["witness"] = residual.to_string()
    checks = [("d_squared", residual.is_zero(), details)]

    # D is odd, so [s, D] = sD - Ds and [c_i, D] = c_i D + D c_i.  The
    # reflections keep their index labels w_comm_s1.. even in types B and D.
    pairs = [(f"w_comm_s{t}", name) for t, name in enumerate(alg.ctx.simple_names, start=1)]
    pairs += [(f"c{i}_anticomm", f"c{i}") for i in range(1, params.n + 1)]
    checks += [_residual_check(label, supercommutator(params, alg.generators[name], bundle.D))
               for label, name in pairs]
    checks.extend(_root_sum_square_checks(params))
    return checks
