"""Dirac cohomology, central actions read on one column, and the Vogan-type check.

H_D(X) = ker pi(D) / (ker pi(D) cap im pi(D)) for a module pi: H -> End(X).
Its dimension is the trace of one central idempotent of the Sergeev algebra
Seg, with no elimination, once six premises are checked exactly:

- (a) the module's generating relations hold (`engine.generating_relations`,
  which imply every defining relation), so pi is an algebra map;
- (b) D^2 = Omega_H - Omega_Seg + K in the engine, K = `d_squared_constant`;
- (c) pi(Omega_H) = chi * 1, read on the first `_orbit_width` columns, one
  on X_lambda: Omega_H commutes in the engine with the generators of the
  module's one forest of orbits of the unitary monomial pi(c_i) and pi(s_i)
  (`ModuleRep.seg_forest`), so chi e_j carries over along it (`_orbit`);
- (d) pi(D)^dagger = -pi(D), needed only when H_D can be nonzero, read off
  the root columns of the same forest, one on X_lambda (`_is_skew`);
- (e) Omega_Seg = sum_rho a_rho z_rho over the signed class sums z_rho of
  `centers.seg_even_center`, a basis of Z(Seg)_0, with a_rho read at the
  first monomial of each class: Omega_Seg is central;
- (f) m(M)[1] = 0, where M is multiplication by Omega_Seg on the class sums
  (`centers.center_multiplication`) and m is the first Krylov relation among
  [1], M[1], M^2[1], ...: then m(Omega_Seg) = 0 in Seg.

With c0 = chi + K, (a)-(c) give pi(D)^2 = c0 - pi(Omega_Seg), so
ker D^2 = ker(pi(Omega_Seg) - c0).

- If m(c0) != 0, then pi(Omega_Seg) - c0 is invertible, hence so is pi(D):
  H_D = 0, and neither a column of pi(D) nor (d) is formed.
- Otherwise m = (t - c0) q with q(c0) != 0, as the roots of m are distinct
  (see below), and e = q(Omega_Seg) / q(c0) is an idempotent of
  Z(Seg)_0, since m divides q (q - q(c0)).  Its image under
  pi is exactly ker(pi(Omega_Seg) - c0), so dim ker D^2 = tr pi(e).  Each
  signed term of z_rho is a conjugate of the first monomial f_rho, so
  tr pi(e) = sum_rho e_rho |z_rho| tr pi(f_rho), where e_rho are the
  class-sum coordinates of e; every f_rho acts by a signed permutation,
  whose trace is a signed count of fixed points.  When the trace is
  nonzero, (d) makes pi(D) skew for the standard form
  <v, w> = sum_j v_j conj(w_j), which is
  anisotropic on Q(i, sqrt2)^n (each term of <v, v> is a^2 + b^2 with a, b
  in Q(sqrt2), >= 0 under both real embeddings).  So v = Dw with Dv = 0
  gives <v, v> = -<w, Dv> = 0: ker D cap im D = 0 and ker D = ker D^2.
  Then H_D = ker D, Omega_Seg acts on it by c0, and the spectrum is
  [(c0, tr pi(e))].  On an induced module the invariant form is the
  standard one in the coset basis, so (d) needs no Gram matrix.
- In type A the roots of m are asserted to be the values k^2 |phi(mu)|^2
  over strict partitions mu of n, a statement of the paper.

Fallback.  Exact elimination runs when a premise fails or does not apply:
(b) or (c) fails, (d) fails (k = i), or the type is B or D, where no class
sums are built; only then is the whole pi(D) formed.  (a) or (e) failing,
or an m whose roots are not the table's in type A, raises instead.  Whatever
the route, the spectrum is read off D^2 = c0 - Omega_Seg: it kills ker D,
so Omega_Seg acts on H_D by c0.  The intersection is never built: D maps
ker D^2 onto ker D cap im D with kernel ker D, so dim(ker D cap im D) =
dim ker D^2 - dim ker D.  Each of the two dimensions comes from the trace,
from (d), or from one elimination: `linalg.sparse_kernel` over the columns
of pi(D) or pi(D)^2, whose number of null combinations is the dimension,
with no echelon basis of the kernel formed.  With c0 unknown, a nonzero H_D
has no spectrum and is marked incomplete.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .centers import center_multiplication, minimal_polynomial, seg_even_center
from .dirac import casimir_h, casimir_seg, d_squared_constant, d_squared_residual, dirac_element
from .engine import AlgebraParams, AlgElem, PbwMonomial, algebra_for, parity, supercommutator
from .linalg import Matrix, add_scaled, sparse_kernel
from .modules import ModuleRep, induced_module
from .partitions import Partition, distinct_partitions, phi_maps
from .scalars import MINUS_ONE, ONE, ZERO, Scalar


# ---------------------------------------------------------------------------
# Read-offs of Seg-equivariant elements on the first columns.


@functools.lru_cache(maxsize=64)
def _supercommutes(elem: AlgElem, name: str) -> bool:
    """[g, elem] = 0 in the engine for the generator g called name."""
    return supercommutator(elem.params, algebra_for(elem.params).generators[name], elem).is_zero()


def _orbit(module: ModuleRep, elem: AlgElem) -> tuple[list[int], dict[int, tuple[int, str]]]:
    """(roots, steps) of `ModuleRep.seg_forest`, or every index a root.

    The forest holds for elem when (a) holds, elem has a parity, and elem
    supercommutes in the engine with each g of the steps, checked in order
    up to the first failure: then pi(elem) pi(g) = +-pi(g) pi(elem), so
    pi(elem) e_j = 0, or chi e_j with elem even, carries over to pi(g) e_j.
    """
    if not module.relations and parity(elem) != "mixed":
        roots, steps, names = module.seg_forest
        if all(_supercommutes(elem, name) for name in names):
            return roots, steps
    return list(range(module.dim)), {}


def _is_skew(module: ModuleRep, D: AlgElem) -> bool:
    """(d) pi(D)^dagger = -pi(D), checked as X e_r = 0 at every root r of `_orbit`.

    X = pi(D) + pi(D)^dagger.  pi(D) pi(g) = chi(g) pi(g) pi(D) with chi(g)
    = -1 for odd g and odd D, else 1, and pi(g) is unitary, so X e_j = 0
    carries along every step.  Row r of pi(D) is read off the root columns:
    at the step (j, g) of a, pi(D)[r, a] = conj(sigma) chi(g) tau pi(D)[r', j]
    with pi(g) e_r' = tau e_r, carried back to a's root.  No inverse in the
    algebra is taken.  With every index a root, this is the entrywise check.
    """
    roots, steps = _orbit(module, D)
    cols = module.act_columns(D, roots[-1] + 1).cols
    back = {}
    for name in {name for _, name in steps.values()}:
        rows, sigmas = module.gens[name].monomial()
        chi = MINUS_ONE if name[0] == "c" and parity(D) == "odd" else ONE
        back[name] = {row: k for k, row in enumerate(rows)}, sigmas, chi
    for r in roots:
        # A root a with pi(D)[a, r] = 0 but pi(D)[r, a] != 0 is met at r = a.
        for a in [*cols[r], *steps]:
            row, at, coef = r, a, ONE
            while at in steps:
                at, name = steps[at]
                inverse, sigmas, chi = back[name]
                row = inverse[row]
                coef = coef * chi * sigmas[at].conjugate() * sigmas[row]
            entry = cols[at].get(row)
            if cols[r].get(a, ZERO) != (-(coef * entry).conjugate() if entry else ZERO):
                return False
    return True


def _orbit_width(module: ModuleRep, elem: AlgElem) -> int:
    """One past the last root of `_orbit`: the first columns the read-offs need."""
    return _orbit(module, elem)[0][-1] + 1


def _scalar_action(module: ModuleRep, elem: AlgElem) -> Scalar | None:
    """The scalar by which pi(elem) acts on the whole module, or None.

    Read on the first `_orbit_width` columns: pi(elem) is chi * 1 exactly
    when they are chi e_j.  An odd elem reads only chi = 0, as pi(elem) is
    odd once the parities of (a) hold and cannot send e_0 to chi e_0.
    """
    return module.act_columns(elem, _orbit_width(module, elem)).scalar_value()


def acts_by_zero(module: ModuleRep, elem: AlgElem) -> bool:
    """pi(elem) = 0, read on the first `_orbit_width` columns.

    One column on X_lambda, where the c_i and the monomial s_i carry e_0 to
    every basis vector, and one or two on the Steinberg modules.
    """
    return module.act_columns(elem, _orbit_width(module, elem)).is_zero()


# ---------------------------------------------------------------------------
# dim ker D^2 from the center of Seg.


@functools.lru_cache(maxsize=8)
def _phi_table(params: AlgebraParams) -> tuple[tuple[Partition, Scalar], ...]:
    """(mu, k^2 |phi(mu)|^2) for the strict partitions mu of n, in table order."""
    ksq = params.k_long * params.k_long
    return tuple((mu, ksq * phi_maps(mu)[1]) for mu in distinct_partitions(params.n))


# Polynomials are coefficient lists from degree 0 up.


def _divide_linear(poly: list[Scalar], root: Scalar) -> tuple[list[Scalar], Scalar]:
    """(q, poly(root)) with poly = (t - root) q + poly(root), by synthetic division."""
    acc = ZERO
    out = []
    for coef in reversed(poly):
        acc = acc * root + coef
        out.append(acc)
    remainder = out.pop()
    return out[::-1], remainder


def _poly_apply(poly: list[Scalar], matrix: Matrix, vec: dict) -> dict:
    """poly(matrix) vec on a sparse vector, by Horner's rule."""
    acc: dict = {}
    for coef in reversed(poly):
        acc = matrix.apply(acc)
        if coef:
            add_scaled(acc, coef, vec)
    return acc


@functools.lru_cache(maxsize=8)
def _seg_data(D: AlgElem, omega_h: AlgElem, omega_seg: AlgElem):
    """(K, center), certified once per (D, Omega_H, Omega_Seg).

    K is the constant of (b) when D^2 = Omega_H - Omega_Seg + K holds in the
    engine, else None.  center = (classes, M, m) in type A once (b) holds,
    else None, with classes from `seg_even_center`; (e) is checked in
    building M, and the roots of m against the values k^2 |phi(mu)|^2.
    """
    params = D.params
    if not d_squared_residual(D, omega_h, omega_seg).is_zero():
        return None, None
    constant = d_squared_constant(params)
    if params.type != "A":
        return constant, None
    classes = seg_even_center(params.n)
    mult = center_multiplication(omega_seg, classes)
    minpoly = minimal_polynomial(mult)
    expected = [ONE]
    for value in dict.fromkeys(value for _, value in _phi_table(params)):
        expected = [ZERO] + expected
        for j in range(len(expected) - 1):
            expected[j] = expected[j] - value * expected[j + 1]
    if minpoly != expected:
        raise AssertionError("the roots of m(Omega_Seg) are not the values k^2 |phi(mu)|^2")
    return constant, (classes, mult, minpoly)


def _idempotent_trace(module: ModuleRep, center, c0: Scalar) -> int:
    """dim ker(pi(Omega_Seg) - c0) = tr pi(e).

    center = (classes, M, m).  (f) is checked first.  When m(c0) != 0
    the kernel is 0.  Otherwise m = (t - c0) q and
    tr pi(e) = sum_rho e_rho |z_rho| tr pi(f_rho) with e = q(M)[1] / q(c0);
    the sum must be an integer in 0..dim.
    """
    classes, mult, minpoly = center
    start = {0: ONE}
    if _poly_apply(minpoly, mult, start):
        raise AssertionError("m(Omega_Seg) != 0 on the class sums")
    q, at_c0 = _divide_linear(minpoly, c0)
    if at_c0:
        return 0
    q_c0 = _divide_linear(q, c0)[1]
    zero_exps = (0,) * module.params.n
    total = ZERO
    for o, coord in _poly_apply(q, mult, start).items():
        _, (mask, w), size = classes[o]
        first = AlgElem(module.params, {PbwMonomial(zero_exps, mask, w): ONE})
        total = total + coord * size * module.act(first).trace()
    total = total * q_c0.inverse()
    dim = total.a
    if total != Scalar(dim) or dim.denominator != 1 or not 0 <= dim <= module.dim:
        raise AssertionError(f"tr pi(e) = {total.compact()} is no dimension")
    return int(dim)


class CohomologyReport(NamedTuple):
    """Exact dimensions and Omega_Seg data for H_D of one module.

    chi_omega_h, the scalar pi(Omega_H) or None, is kept for `verify_vogan`
    and is not part of the JSON form.
    """

    module: dict
    lam: str | None
    k: str
    dim_ker: int
    dim_im: int
    dim_im_cap_ker: int
    dim_hd: int
    ker_equals_ker_sq: bool
    spectrum: list[tuple[Scalar, int]]
    spectrum_complete: bool
    matched_partition: list[str]
    status: str = "pass"
    chi_omega_h: Scalar | None = None

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "lambda": self.lam,
            "k": self.k,
            "dim_ker": self.dim_ker,
            "dim_im": self.dim_im,
            "dim_im_cap_ker": self.dim_im_cap_ker,
            "dim_HD": self.dim_hd,
            "ker_equals_ker_sq": self.ker_equals_ker_sq,
            "omega_seg_spectrum": [[v.compact(), m] for v, m in self.spectrum],
            "spectrum_complete": self.spectrum_complete,
            "matched_partition": self.matched_partition,
            "status": self.status,
        }


def dirac_cohomology(module: ModuleRep) -> CohomologyReport:
    """ker pi(D) / (ker cap im), with Omega_Seg acting on it by c0 = chi + K.

    (a) the module's relations are certified (`ModuleRep.certify_relations`
    raises on a failure); (c) chi = pi(Omega_H) is read on the first
    `_orbit_width` columns (`_scalar_action`; an odd element could read only
    chi = 0); (b), (e) and m are certified once per parameter set
    (`_seg_data`).  Two facts give the whole report:

    - D^2 = c0 - Omega_Seg kills ker D, so Omega_Seg acts on H_D by c0 and
      the spectrum is [(c0, dim H_D)].  With c0 unknown ((b) or (c)
      failing) a nonzero H_D has the empty spectrum, marked incomplete.
    - D maps ker D^2 onto ker D cap im D with kernel ker D, so
      dim(ker D cap im D) = dim ker D^2 - dim ker D.

    dim ker D^2 is tr pi(e) when the class sums exist; a zero trace gives
    H_D = 0 with pi(D) not formed.  Otherwise it is dim ker D under (d)
    pi(D)^dagger = -pi(D) (`_is_skew`), or one elimination of D^2.  dim ker D
    is tr pi(e) under (d), and one elimination of the whole pi(D) otherwise.
    """
    params = module.params
    module.certify_relations()
    D, omega_h, omega_seg = dirac_element(params), casimir_h(params), casimir_seg(params)
    chi = _scalar_action(module, omega_h)
    constant, center = _seg_data(D, omega_h, omega_seg)
    c0 = None if chi is None or constant is None else chi + constant
    dim_ker_sq = None
    if c0 is not None and center is not None:
        dim_ker_sq = _idempotent_trace(module, center, c0)
    dim_ker = dim_ker_sq
    if dim_ker_sq != 0:
        skew = _is_skew(module, D)
        if dim_ker is None or not skew:
            d_mat = module.act(D)
            dim_ker = len(sparse_kernel(d_mat.cols))
        if dim_ker_sq is None:
            dim_ker_sq = dim_ker if skew or not dim_ker else len(sparse_kernel((d_mat * d_mat).cols))
    dim_hd = 2 * dim_ker - dim_ker_sq
    spectrum = [(c0, dim_hd)] if dim_hd and c0 is not None else []
    complete = not dim_hd or c0 is not None
    matched = [str(mu) for mu, value in _phi_table(params) if value == c0] if spectrum else []
    return CohomologyReport(
        module=module.summary(),
        lam=str(module.lam) if module.lam is not None else None,
        k=params.k_long.compact(),
        dim_ker=dim_ker,
        dim_im=module.dim - dim_ker,
        dim_im_cap_ker=dim_ker_sq - dim_ker,
        dim_hd=dim_hd,
        ker_equals_ker_sq=(dim_ker == dim_ker_sq),
        spectrum=spectrum,
        spectrum_complete=complete,
        matched_partition=matched,
        status="pass" if complete else "incomplete",
        chi_omega_h=chi,
    )


def verify_vogan(lam: Partition, k: Scalar) -> tuple[dict[str, bool], dict]:
    """The computational content of the Vogan-type theorem on X_lambda.

    Returns (checks, details): each check's name and whether it passed, and
    the dimension, spectrum and expected values they were read from.
    """
    if not lam.has_distinct_parts():
        raise ValueError("verify_vogan requires a distinct-part partition")
    if not k:
        raise ValueError("verify_vogan requires k != 0")
    module = induced_module(lam, k)
    report = dirac_cohomology(module)
    chi_omega_h = report.chi_omega_h
    _, norm1_sq, norm2_sq = phi_maps(lam)
    expected = k * k * norm2_sq

    checks = {
        "hd_nonzero": report.dim_hd > 0,
        "ker_equals_ker_sq": report.ker_equals_ker_sq,
        "ker_cap_im_zero": report.dim_im_cap_ker == 0,
        "omega_h_scalar": chi_omega_h is not None,
        "single_eigenvalue": len(report.spectrum) == 1 and report.spectrum_complete,
        "eigenvalue_matches_norm": all(v == expected for v, _ in report.spectrum),
        "eigenvalue_matches_chi": chi_omega_h is not None
        and all(v == chi_omega_h for v, _ in report.spectrum),
        "label_recovers_lambda": report.matched_partition == [str(lam)],
    }
    return checks, {
        "lambda": str(lam),
        "k": k.compact(),
        "dim_HD": report.dim_hd,
        "omega_seg_spectrum": [[v.compact(), m] for v, m in report.spectrum],
        "chi_omega_h": chi_omega_h.compact() if chi_omega_h is not None else None,
        "expected_eigenvalue": expected.compact(),
        "norms_sq": norm1_sq,
    }
