"""Dirac cohomology, central characters and the Vogan-type consistency check.

H_D(X) = ker pi(D) / (ker pi(D) cap im pi(D)) for a module pi: H -> End(X).
Its dimension is the trace of one central idempotent of the Sergeev algebra
Seg, with no elimination, once six premises are checked exactly:

- (a) the module's defining relations hold, so pi is an algebra map;
- (b) D^2 = Omega_H - Omega_Seg + K in the engine, K = `d_squared_constant`;
- (c) pi(Omega_H) = chi * 1;
- (d) pi(D)^dagger = -pi(D), needed only when H_D can be nonzero;
- (e) Omega_Seg = sum_O a_O z_O over the signed class sums z_O of
  `centers.class_sums`, a basis of Z(Seg)_0, with a_O read at the first
  monomial of each class: Omega_Seg is central;
- (f) m(M)[1] = 0, where M is multiplication by Omega_Seg on the class sums
  (`centers.center_multiplication`) and m is the first Krylov relation among
  [1], M[1], M^2[1], ...: then m(Omega_Seg) = 0 in Seg.

With c0 = chi + K, (a)-(c) give pi(D)^2 = c0 - pi(Omega_Seg), so
ker D^2 = ker(pi(Omega_Seg) - c0).

- If m(c0) != 0, then pi(Omega_Seg) - c0 is invertible, hence so is pi(D):
  H_D = 0, and neither pi(D) nor (d) is formed.
- Otherwise m = (t - c0) q with q(c0) != 0, as the roots of m are distinct
  (see below), and e = q(Omega_Seg) / q(c0) is an idempotent of
  Z(Seg)_0, since m divides q (q - q(c0)).  Its image under
  pi is exactly ker(pi(Omega_Seg) - c0), so dim ker D^2 = tr pi(e).  Each
  signed term of z_O is a conjugate of the first monomial f_O, so
  tr pi(e) = sum_O e_O |O| tr pi(f_O), where e_O are the class-sum
  coordinates of e; every f_O acts by a signed permutation, whose trace is
  a signed count of fixed points.  When the trace is nonzero, (d) makes
  pi(D) skew for the standard form <v, w> = sum_j v_j conj(w_j), which is
  anisotropic on Q(i, sqrt2)^n (each term of <v, v> is a^2 + b^2 with a, b
  in Q(sqrt2), >= 0 under both real embeddings).  So v = Dw with Dv = 0
  gives <v, v> = -<w, Dv> = 0: ker D cap im D = 0 and ker D = ker D^2.
  Then H_D = ker D, Omega_Seg acts on it by c0, and the spectrum is
  [(c0, tr pi(e))].  On an induced module the invariant form is the
  standard one in the coset basis, so (d) needs no Gram matrix.
- In type A the roots of m are asserted to be the values k^2 |phi(mu)|^2
  over strict partitions mu of n, a statement of the paper.

Fallback.  Exact elimination runs when a premise fails or does not apply:
(b) or (c) fails, (d) fails (k = i), or the type is B or D or n > 7, where
no class-sum table is built.  (a) or (e) failing, or an m whose roots are
not the table's in type A, raises instead.  Whatever the route, the spectrum
is read off D^2 = c0 - Omega_Seg: it kills ker D, so Omega_Seg acts on H_D
by c0.  The intersection is never built: D maps ker D^2 onto ker D cap im D
with kernel ker D, so dim(ker D cap im D) = dim ker D^2 - dim ker D.  Each
of the two dimensions comes from the trace, from (d), or from one
elimination.  With c0 unknown, a nonzero H_D has no spectrum and is marked
incomplete.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .centers import MAX_CENTER_N, center_multiplication, class_sums, minimal_polynomial
from .dirac import casimir_h, casimir_seg, d_squared_constant, dirac_element
from .engine import AlgebraParams, AlgElem, PbwMonomial, algebra_for
from .linalg import Matrix, Subspace, add_scaled
from .modules import ModuleRep, induced_module
from .partitions import Partition, distinct_partitions, phi_maps
from .scalars import ONE, ZERO, Scalar


class CentralCharacter(NamedTuple):
    """Multiset of x_i^2 eigenvalues, stored sorted for permutation-equality."""

    values: tuple[Scalar, ...]

    @classmethod
    def from_values(cls, values) -> CentralCharacter:
        return cls(tuple(sorted(values, key=lambda s: (s.a, s.b, s.c, s.d))))

    def __str__(self) -> str:
        return "{" + ", ".join(v.compact() for v in self.values) + "}"


def expected_central_character(lam: Partition, k: Scalar) -> CentralCharacter:
    """{k^2 j(j-1) : blockwise local positions j} for an induced module."""
    ksq = k * k
    values = [ksq * (j * (j - 1)) for p in lam.parts for j in range(1, p + 1)]
    return CentralCharacter.from_values(values)


def central_character(module: ModuleRep) -> CentralCharacter:
    """The multiset of x_i^2 eigenvalues of a quasisimple module.

    Each pi(x_i^2) must act as a scalar either on the whole module or (for
    induced modules) on the 1 (x) St_lambda slice; quasisimplicity is
    additionally witnessed by whole-module scalarity of the first two
    elementary symmetric functions of the x_j^2.
    """
    n = module.params.n
    squares = [module.gens[f"x{i}"] * module.gens[f"x{i}"] for i in range(1, n + 1)]
    values = []
    slice_dim = (1 << n) if module.kind == "induced" else module.dim
    st_slice = Subspace.spanned_by([{j: ONE} for j in range(slice_dim)], module.dim)
    for i, sq in enumerate(squares, start=1):
        scalar = sq.scalar_value()
        if scalar is None:
            scalar = st_slice.eigenvalue(sq)
        if scalar is None:
            raise ValueError(f"x_{i}^2 acts non-scalar: not quasisimple")
        values.append(scalar)
    # Symmetric combinations must be scalar on the whole module.
    e1 = Matrix.zeros(module.dim, module.dim)
    for sq in squares:
        e1 = e1 + sq
    e2 = Matrix.zeros(module.dim, module.dim)
    for a in range(n):
        for b in range(a + 1, n):
            e2 = e2 + squares[a] * squares[b]
    e1_scalar, e2_scalar = e1.scalar_value(), e2.scalar_value()
    if e1_scalar is None or e2_scalar is None:
        raise ValueError("symmetric functions of x_i^2 act non-scalar: not quasisimple")
    expect_e1 = sum(values, ZERO)
    expect_e2 = sum((values[a] * values[b] for a in range(n) for b in range(a + 1, n)), ZERO)
    if e1_scalar != expect_e1 or e2_scalar != expect_e2:
        raise ValueError("slice eigenvalues inconsistent with central action")
    return CentralCharacter.from_values(values)


# ---------------------------------------------------------------------------
# dim ker D^2 from the center of Seg.


def _phi_values(params: AlgebraParams) -> list[Scalar]:
    """The distinct values k^2 |phi(mu)|^2 over strict partitions mu of n, in table order."""
    ksq = params.k_long * params.k_long
    seen = []
    for mu in distinct_partitions(params.n):
        value = ksq * phi_maps(mu)[1]
        if value not in seen:
            seen.append(value)
    return seen


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
    engine, else None.  center = (class sums, M, m) in type A for n <= 7
    once (b) holds, else None; (e) is checked in building M, and the roots
    of m against the values k^2 |phi(mu)|^2.
    """
    params = D.params
    alg = algebra_for(params)
    constant = d_squared_constant(params)
    if alg.multiply(D, D) != omega_h - omega_seg + alg.scalar(constant):
        return None, None
    if params.type != "A" or params.n > MAX_CENTER_N:
        return constant, None
    table = class_sums(params.n)
    mult = center_multiplication(omega_seg, table)
    minpoly = minimal_polynomial(mult)
    expected = [ONE]
    for value in _phi_values(params):
        expected = [ZERO] + expected
        for j in range(len(expected) - 1):
            expected[j] = expected[j] - value * expected[j + 1]
    if minpoly != expected:
        raise AssertionError("the roots of m(Omega_Seg) are not the values k^2 |phi(mu)|^2")
    return constant, (table, mult, minpoly)


def _idempotent_trace(module: ModuleRep, center, c0: Scalar) -> int:
    """dim ker(pi(Omega_Seg) - c0) = tr pi(e).

    center = (class sums, M, m).  (f) is checked first.  When m(c0) != 0
    the kernel is 0.  Otherwise m = (t - c0) q and
    tr pi(e) = sum_O e_O |O| tr pi(f_O) with e = q(M)[1] / q(c0); the sum
    must be an integer in 0..dim.
    """
    (sums, _), mult, minpoly = center
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
        mask, w = next(iter(sums[o]))
        first = AlgElem(module.params, {PbwMonomial(zero_exps, mask, w): ONE})
        total = total + coord * len(sums[o]) * module.act(first).trace()
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

    (a) the module's relations are certified (now, if it was built
    unchecked); (c) chi = pi(Omega_H) is read off `act`; (b), (e) and m are
    certified once per parameter set (`_seg_data`).  Two facts give the
    whole report:

    - D^2 = c0 - Omega_Seg kills ker D, so Omega_Seg acts on H_D by c0 and
      the spectrum is [(c0, dim H_D)].  With c0 unknown ((b) or (c)
      failing) a nonzero H_D has the empty spectrum, marked incomplete.
    - D maps ker D^2 onto ker D cap im D with kernel ker D, so
      dim(ker D cap im D) = dim ker D^2 - dim ker D.

    dim ker D^2 is tr pi(e) when the class sums exist; a zero trace gives
    H_D = 0 with pi(D) not formed.  Otherwise it is dim ker D under (d)
    pi(D)^dagger = -pi(D), or one elimination of D^2.  dim ker D is
    tr pi(e) under (d), and one elimination otherwise.
    """
    params = module.params
    module.certify_relations()
    D, omega_h, omega_seg = dirac_element(params), casimir_h(params), casimir_seg(params)
    chi = module.act(omega_h).scalar_value()
    constant, center = _seg_data(D, omega_h, omega_seg)
    c0 = None if chi is None or constant is None else chi + constant
    dim_ker_sq = None
    if c0 is not None and center is not None:
        dim_ker_sq = _idempotent_trace(module, center, c0)
    dim_ker = dim_ker_sq
    if dim_ker_sq != 0:
        d_mat = module.act(D)
        skew = d_mat.conj_transpose() == -d_mat
        if dim_ker is None or not skew:
            dim_ker = Subspace.kernel(d_mat).dim
        if dim_ker_sq is None:
            dim_ker_sq = dim_ker if skew or not dim_ker else Subspace.kernel(d_mat * d_mat).dim
    dim_hd = 2 * dim_ker - dim_ker_sq
    spectrum = [(c0, dim_hd)] if dim_hd and c0 is not None else []
    complete = not dim_hd or c0 is not None
    matched = []
    if spectrum:
        ksq = params.k_long * params.k_long
        matched = [str(mu) for mu in distinct_partitions(params.n) if ksq * phi_maps(mu)[1] == c0]
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


def verify_vogan(lam: Partition, k: Scalar) -> dict:
    """The computational content of the Vogan-type theorem on X_lambda."""
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
    return {
        "check": "vogan_consistency",
        "lambda": str(lam),
        "k": k.compact(),
        "dim_HD": report.dim_hd,
        "omega_seg_spectrum": [[v.compact(), m] for v, m in report.spectrum],
        "chi_omega_h": chi_omega_h.compact() if chi_omega_h is not None else None,
        "expected_eigenvalue": expected.compact(),
        "norms_sq": norm1_sq,
        "checks": checks,
        "status": "pass" if all(checks.values()) else "fail",
    }
