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
from typing import NamedTuple

from .engine import AlgebraParams, AlgElem, algebra_for, parity
from .scalars import HALF, HALF_SQRT2, ONE, Scalar
from .weyl import Root


def clifford_root_element(params: AlgebraParams, root: Root) -> AlgElem:
    """c_alpha: (sqrt2/2)(c_i -+ c_j) for long roots, c_i for short ones."""
    alg = algebra_for(params)
    if root.kind == "short":
        return alg.c(root.i)
    sign = ONE if root.kind == "sum" else -ONE
    return alg.c(root.i).scale(HALF_SQRT2) + alg.c(root.j).scale(HALF_SQRT2 * sign)


def twisted_reflection(params: AlgebraParams, root: Root) -> AlgElem:
    """stilde_alpha = s_alpha c_alpha in normal form, for positive alpha."""
    alg = algebra_for(params)
    if not alg.ctx.contains_root(root):
        raise ValueError(f"{root} is not a positive root of type {params.type}, n={params.n}")
    s = alg.w(alg.ctx.reflection(root))
    return alg.multiply(s, clifford_root_element(params, root))


def _roots_touching(params: AlgebraParams, i: int) -> list[Root]:
    alg = algebra_for(params)
    out = []
    for root in alg.ctx.positive_roots:
        touched = (root.i == i) if root.kind == "short" else (i in (root.i, root.j))
        if touched:
            out.append(root)
    return out


def dressed_generators(params: AlgebraParams, i: int) -> tuple[AlgElem, AlgElem, AlgElem]:
    """(y_i, y'_i, x'_i) with y_i = x_i c_i and x'_i = -y'_i c_i."""
    alg = algebra_for(params)
    y = alg.multiply(alg.x(i), alg.c(i))
    y_prime = y
    for root in _roots_touching(params, i):
        coef = HALF_SQRT2 * params.k_for(root)
        if coef:
            y_prime = y_prime + twisted_reflection(params, root).scale(coef)
    x_prime = alg.multiply(y_prime, alg.c(i)).scale(-ONE)
    return y, y_prime, x_prime


def dirac_element(params: AlgebraParams) -> AlgElem:
    """D = sum_i y_i + (sqrt2/2) sum_{alpha>0} k_alpha |<alpha,alpha>| stilde_alpha."""
    alg = algebra_for(params)
    total = alg.zero()
    for i in range(1, params.n + 1):
        total = total + alg.multiply(alg.x(i), alg.c(i))
    for root in alg.ctx.positive_roots:
        coef = HALF_SQRT2 * params.k_for(root) * root.length_sq()
        if coef:
            total = total + twisted_reflection(params, root).scale(coef)
    return total


def casimir_h(params: AlgebraParams) -> AlgElem:
    """Omega_H = sum_i x_i^2."""
    alg = algebra_for(params)
    omega_h = alg.zero()
    for i in range(1, params.n + 1):
        omega_h = omega_h + alg.multiply(alg.x(i), alg.x(i))
    return omega_h


def casimir_seg(params: AlgebraParams) -> AlgElem:
    """Omega_Seg, the weighted double sum of stilde_alpha stilde_beta."""
    alg = algebra_for(params)
    omega_seg = alg.zero()
    roots = alg.ctx.positive_roots
    stilde = {root: twisted_reflection(params, root) for root in roots}
    for alpha in roots:
        s_alpha = alg.ctx.reflection(alpha)
        k_alpha = params.k_for(alpha)
        if not k_alpha:
            continue
        for beta in roots:
            _, sign = s_alpha.act_root(beta)
            if sign > 0:
                continue
            coef = HALF * alpha.length_sq() * beta.length_sq() * k_alpha * params.k_for(beta)
            if coef:
                omega_seg = omega_seg + alg.multiply(stilde[alpha], stilde[beta]).scale(coef)
    return omega_seg


def casimirs(params: AlgebraParams) -> tuple[AlgElem, AlgElem]:
    """(Omega_H, Omega_Seg)."""
    return casimir_h(params), casimir_seg(params)


def seg_commutators(params: AlgebraParams, D: AlgElem) -> list[tuple[str, AlgElem]]:
    """(name, g D -+ D g) for each Seg generator g, in normal form.

    The simple reflections, named as in RootSystemCtx.simple_names, give the
    commutator s D - D s, and c1..cn the anticommutator c_i D + D c_i; all
    vanish exactly when D commutes with W and anticommutes with every c_i.
    """
    alg = algebra_for(params)
    out = []
    for name in alg.ctx.simple_names:
        s = alg.generators[name]
        out.append((name, alg.multiply(s, D) - alg.multiply(D, s)))
    for i in range(1, params.n + 1):
        ci = alg.c(i)
        out.append((f"c{i}", alg.multiply(ci, D) + alg.multiply(D, ci)))
    return out


def d_squared_constant(params: AlgebraParams) -> Scalar:
    """The constant n(n-1)/2 * N separating D^2 from Omega_H - Omega_Seg."""
    return params.N * Scalar(Fraction(params.n * (params.n - 1), 2))


class DiracBundle(NamedTuple):
    """The Dirac element and the two Casimirs for one parameter set, cross-checked."""

    D: AlgElem
    omega_h: AlgElem
    omega_seg: AlgElem


def dirac_bundle(params: AlgebraParams) -> DiracBundle:
    alg = algebra_for(params)
    D = dirac_element(params)
    omega_h, omega_seg = casimirs(params)
    sum_y_prime = alg.zero()
    sum_xc = alg.zero()
    for i in range(1, params.n + 1):
        _, y_prime, x_prime = dressed_generators(params, i)
        sum_y_prime = sum_y_prime + y_prime
        sum_xc = sum_xc + alg.multiply(x_prime, alg.c(i))
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
    alg = algebra_for(params)
    roots = alg.ctx.positive_roots
    stilde = {root: twisted_reflection(params, root) for root in roots}
    longs = [r for r in roots if r.length_sq() == 2]
    shorts = [r for r in roots if r.length_sq() == 1]

    def sum_of(rs):
        total = alg.zero()
        for r in rs:
            total = total + stilde[r]
        return total

    def pair_sum(first, second):
        total = alg.zero()
        for alpha in first:
            s_alpha = alg.ctx.reflection(alpha)
            for beta in second:
                _, sign = s_alpha.act_root(beta)
                if sign < 0:
                    total = total + alg.multiply(stilde[alpha], stilde[beta])
        return total

    long_sum, short_sum = sum_of(longs), sum_of(shorts)
    lhs = alg.multiply(long_sum, long_sum)
    checks = [_residual_check("root_sum_sq_long", lhs - pair_sum(longs, longs))]
    lhs = alg.multiply(short_sum, short_sum)
    checks.append(_residual_check("root_sum_sq_short", lhs - pair_sum(shorts, shorts)))
    mixed = alg.multiply(long_sum, short_sum) + alg.multiply(short_sum, long_sum)
    target = pair_sum(longs, shorts) + pair_sum(shorts, longs)
    checks.append(_residual_check("root_sum_sq_mixed", mixed - target))
    return checks


def _residual_check(name: str, residual: AlgElem) -> Check:
    """A check that passes when residual is zero, else carries it as witness."""
    if residual.is_zero():
        return name, True, {}
    return name, False, {"witness": residual.to_string()}


def verify_identities(params: AlgebraParams) -> list[Check]:
    """Exact normal-form checks: D^2, Weyl/Clifford commutation, root sums."""
    alg = algebra_for(params)
    bundle = dirac_bundle(params)

    d_sq = alg.multiply(bundle.D, bundle.D)
    residual = d_sq - (bundle.omega_h - bundle.omega_seg)
    correction = alg.scalar(d_squared_constant(params))
    holds = residual == correction
    details = {
        "n_correction": d_squared_constant(params).compact(),
        "plain_identity": residual.is_zero(),
    }
    if not holds:
        details["witness"] = (residual - correction).to_string()
    checks = [("d_squared", holds, details)]

    # The reflections keep their index labels w_comm_s1.. even in types B and D.
    labels = [f"w_comm_s{idx + 1}" for idx in range(len(alg.ctx.simple_names))]
    labels += [f"c{i}_anticomm" for i in range(1, params.n + 1)]
    commutators = seg_commutators(params, bundle.D)
    for label, (_, residual) in zip(labels, commutators, strict=True):
        checks.append(_residual_check(label, residual))
    checks.extend(_root_sum_square_checks(params))
    return checks
