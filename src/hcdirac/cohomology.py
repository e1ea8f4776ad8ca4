"""Dirac cohomology, central characters and the Vogan-type consistency check.

H_D(X) = ker pi(D) / (ker pi(D) cap im pi(D)) carries an action of the
x-degree-zero subalgebra Seg because D commutes with the Weyl group and
anticommutes with the Clifford generators.  Both stabilities are verified
before the spectrum is taken, without touching a kernel vector: the module's
defining relations are certified, so pi is an algebra homomorphism, and
g D = +-D g for each Seg generator g is checked in the engine.  Then
pi(g) pi(D) = +-pi(D) pi(g), so pi(g) keeps ker D, and g D w = +-D g w shows
that it keeps ker D cap im D too.  Two exact shortcuts apply when their
checks hold on the actual matrices, and otherwise the general computation
runs:

- Certificate.  If pi(D)^dagger = -pi(D), then ker D cap im D = 0 and
  ker D^2 = ker D, with no second elimination.  The standard form
  sum_j v_j conj(v_j) is anisotropic on Q(i, sqrt2)^n: each term is
  a^2 + b^2 with a, b in Q(sqrt2), >= 0 under both real embeddings.  So
  v = Dw with Dv = 0 gives <v, v> = -<w, Dv> = 0, hence v = 0.  On an
  induced module the invariant form is this standard form in the coset
  basis (w_s^{-1} w_t lies outside S_lambda for distinct coset
  representatives), so the check needs no Gram matrix.
- Read-off.  If H_D = ker D and pi(Omega_Seg) acts on it by one scalar,
  checked on every basis vector, that scalar is the whole spectrum, whether
  or not the type-A table below lists it.  Omega_Seg lies in Seg, whose
  generators keep ker D, so pi(Omega_Seg) v lies in ker D and the check
  compares the pivot rows of ker D only.

In general the spectrum of Omega_Seg on H_D is computed on the quotient:
candidate eigenvalues come from the k^2 |phi1(mu)|^2 table over
distinct-part partitions and an exact kernel dimension is taken per
candidate.  `dirac_cohomology` marks a spectrum the table does not exhaust
incomplete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dirac import casimir_h, casimir_seg, dirac_element, seg_commutators
from .engine import AlgebraParams, AlgElem
from .linalg import Matrix, Subspace, quotient_matrix
from .modules import ModuleRep, induced_module
from .partitions import Partition, distinct_partitions, phi_maps
from .scalars import ONE, ZERO, Scalar


@dataclass(frozen=True)
class CentralCharacter:
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
# Spectra of Omega_Seg.


def _candidate_eigenvalues(params: AlgebraParams) -> list[Scalar]:
    ksq = params.k_long * params.k_long
    seen = []
    for mu in distinct_partitions(params.n):
        _, norm_sq, _ = phi_maps(mu)
        value = ksq * norm_sq
        if value not in seen:
            seen.append(value)
    if ZERO not in seen:
        seen.append(ZERO)
    return seen


def _spectrum_of(matrix: Matrix, candidates) -> tuple[list[tuple[Scalar, int]], bool]:
    """Eigenvalues found among candidates with multiplicities; flag completeness."""
    spectrum = []
    total = 0
    for value in candidates:
        shifted = matrix - Matrix.identity(matrix.nrows).scale(value)
        mult = Subspace.kernel(shifted).dim
        if mult:
            spectrum.append((value, mult))
            total += mult
    return spectrum, total == matrix.nrows


@dataclass
class CohomologyReport:
    """Exact dimensions and Omega_Seg data for H_D of one module."""

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


def _eigenvalue_at_pivots(space: Subspace, matrix: Matrix) -> Scalar | None:
    """The scalar by which matrix acts on a nonzero space it keeps, else None.

    Only the pivot rows are compared.  matrix * v lies in the space, and a
    vector of the space is fixed by its entries at the pivots, where the
    basis vector v_t has 1 at its own pivot and 0 at the others; so
    matrix * v_t = value * v_t exactly when the pivot rows agree.  The caller
    must have checked that matrix keeps the space.
    """
    pivots = set(space.pivots)
    rows = Matrix.from_sparse(
        [{r: a for r, a in col.items() if r in pivots} for col in matrix.cols], matrix.nrows
    )
    value = rows.apply(space.vectors[0]).get(space.pivots[0], ZERO)
    for vec, p in zip(space.vectors, space.pivots):
        if rows.apply(vec) != ({p: value} if value else {}):
            return None
    return value


def _omega_seg_spectrum(
    module: ModuleRep, D: AlgElem, ker: Subspace, inter: Subspace
) -> tuple[list[tuple[Scalar, int]], bool]:
    """The spectrum of pi(Omega_Seg) on ker D / inter, once Seg is checked to keep both."""
    module.certify_relations()
    for key, residual in seg_commutators(module.params, D):
        if not residual.is_zero():
            raise AssertionError(f"Seg generator {key} does not stabilise H_D data")
    omega_seg = casimir_seg(module.params)
    if not omega_seg.is_seg():
        raise AssertionError("Omega_Seg does not lie in Seg")
    omega_mat = module.act(omega_seg)
    value = None if inter.dim else _eigenvalue_at_pivots(ker, omega_mat)
    if value is not None:
        return [(value, ker.dim)], True
    quotient = quotient_matrix(omega_mat, ker, inter)
    return _spectrum_of(quotient, _candidate_eigenvalues(module.params))


def dirac_cohomology(module: ModuleRep) -> CohomologyReport:
    """ker pi(D) / (ker cap im), with Seg-stability verified before the spectrum.

    Stability.  The module's relations are certified first (now, if it was
    built unchecked), so pi is an algebra homomorphism.  The engine then
    checks s D = D s for each simple reflection s and c_i D = -D c_i for
    each c_i, so pi(g) pi(D) = +-pi(D) pi(g) for every Seg generator g:
    pi(g) keeps ker D, and keeps ker D cap im D since g D w = +-D g w.
    No kernel vector is touched.

    Certificate.  When pi(D)^dagger = -pi(D), checked exactly, the form
    <v, v> = sum_j v_j conj(v_j), anisotropic on Q(i, sqrt2)^n, gives
    <v, v> = <Dw, v> = -<w, Dv> = 0 for v = Dw in ker D, so v = 0: then
    ker D cap im D = 0 and ker D^2 = ker D, and neither D^2 nor the image
    is formed.  Otherwise D maps ker D^2 onto ker D cap im D with kernel
    ker D, so dim(ker D cap im D) = dim ker D^2 - dim ker D, and the
    intersection is built only when that difference is nonzero.

    Read-off.  When the intersection is zero and pi(Omega_Seg) acts on
    ker D by a scalar, checked exactly on every basis vector at the pivot
    rows of ker D, that scalar with multiplicity dim ker D is the whole
    spectrum.  Otherwise the spectrum comes from the quotient matrix, one
    exact kernel per candidate.
    When ker D = 0, none of this runs: H_D = 0 has the empty spectrum.
    """
    params = module.params
    D = dirac_element(params)
    d_mat = module.act(D)
    ker = Subspace.kernel(d_mat)
    inter = Subspace(d_mat.nrows)
    dim_ker_sq = ker.dim
    if ker.dim and d_mat.conj_transpose() != -d_mat:
        dim_ker_sq = Subspace.kernel(d_mat * d_mat).dim
        if dim_ker_sq > ker.dim:
            inter = ker.intersect(Subspace.image(d_mat))
    # ker D = 0 makes D, hence D^2, injective: H_D = 0 and its spectrum is empty.
    if ker.dim:
        spectrum, complete = _omega_seg_spectrum(module, D, ker, inter)
    else:
        spectrum, complete = [], True
    ksq = params.k_long * params.k_long
    matched = []
    for mu in distinct_partitions(params.n):
        _, norm_sq, _ = phi_maps(mu)
        if any(value == ksq * norm_sq for value, _ in spectrum):
            matched.append(str(mu))
    return CohomologyReport(
        module=module.summary(),
        lam=str(module.lam) if module.lam is not None else None,
        k=params.k_long.compact(),
        dim_ker=ker.dim,
        dim_im=d_mat.ncols - ker.dim,
        dim_im_cap_ker=inter.dim,
        dim_hd=ker.dim - inter.dim,
        ker_equals_ker_sq=(ker.dim == dim_ker_sq),
        spectrum=spectrum,
        spectrum_complete=complete,
        matched_partition=matched,
        status="pass" if complete else "incomplete",
    )


def verify_vogan(lam: Partition, k: Scalar) -> dict:
    """The computational content of the Vogan-type theorem on X_lambda."""
    if not lam.has_distinct_parts():
        raise ValueError("verify_vogan requires a distinct-part partition")
    if not k:
        raise ValueError("verify_vogan requires k != 0")
    module = induced_module(lam, k)
    report = dirac_cohomology(module)
    chi_omega_h = module.act(casimir_h(module.params)).scalar_value()
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
