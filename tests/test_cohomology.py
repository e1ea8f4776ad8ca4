"""Dirac cohomology, central characters, phi maps, and the Vogan check."""

from __future__ import annotations

import functools
import json
from fractions import Fraction

import pytest

from hcdirac import cli, cohomology
from hcdirac.centers import center_multiplication, seg_even_center
from hcdirac.cohomology import (
    _divide_linear,
    _idempotent_trace,
    _is_skew,
    _orbit,
    _orbit_width,
    _phi_table,
    _poly_apply,
    _scalar_action,
    _seg_data,
    _supercommutes,
    acts_by_zero,
    dirac_cohomology,
    verify_vogan,
)
from hcdirac.dirac import casimirs, dirac_element
from hcdirac.engine import AlgebraParams, AlgElem, PbwMonomial, algebra_for, supercommutator
from hcdirac.linalg import Matrix, Subspace, quotient_matrix
from hcdirac.modules import ModuleRep, forced_n_constant, induced_module, steinberg_module
from hcdirac.partitions import Partition, all_partitions, distinct_partitions, phi_maps
from hcdirac.scalars import I, ONE, SQRT2, TWO, ZERO, Scalar
from test_centers import _class_members
from test_linalg import adjoint
from test_modules import _summed_relation_failures

HALF_K = Scalar(Fraction(1, 2))

_MODULES: dict = {}


def cached_module(parts, k):
    """X_lambda, built once and checked against every defining relation.

    The module's own check, run on first use, covers the generating relations only.
    """
    key = (parts, k)
    if key not in _MODULES:
        module = induced_module(Partition(parts), k)
        assert _summed_relation_failures(module) == []
        _MODULES[key] = module
    return _MODULES[key]


def test_distinct_partitions_order():
    assert [str(p) for p in distinct_partitions(3)] == ["3", "2,1"]
    assert [str(p) for p in distinct_partitions(4)] == ["4", "3,1"]
    assert [str(p) for p in distinct_partitions(5)] == ["5", "4,1", "3,2"]


def test_partition_parse_and_validation():
    assert Partition.parse("3,1").parts == (3, 1)
    for text in ["2_1", "\u0662,\u0661", " 3", "3,", ""]:
        with pytest.raises(ValueError):
            Partition.parse(text)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))


def test_phi_map_examples():
    assert phi_maps(Partition((3,))) == ((-2, 0, 2), 8, 8)
    assert phi_maps(Partition((2, 1))) == ((-1, 1, 0), 2, 2)
    assert phi_maps(Partition((1, 1, 1))) == ((0, 0, 0), 0, 0)
    assert phi_maps(Partition((3, 1)))[1] == 8
    assert phi_maps(Partition((4,)))[1] == 20


def test_phi_norm_identity_up_to_eight():
    for n in range(1, 9):
        for lam in all_partitions(n):
            phi1, n1, n2 = phi_maps(lam)
            assert n1 == n2 == sum((p - 1) * p * (p + 1) for p in lam.parts) // 3


def test_phi_table_distinct_for_small_n():
    # eigenvalue-based labelling is unambiguous for n <= 5
    for n in range(1, 6):
        norms = [phi_maps(mu)[1] for mu in distinct_partitions(n)]
        assert len(set(norms)) == len(norms)


_CHI_CASES = [(lam, k) for n in range(1, 6) for lam in all_partitions(n)
              for k in (ONE, -HALF_K, Scalar(Fraction(2, 3)))]


@pytest.mark.parametrize("lam, k", _CHI_CASES, ids=[f"{lam}-{k.compact()}" for lam, k in _CHI_CASES])
def test_power_sums_of_x_squared_read_the_central_character(lam, k, monkeypatch):
    # The central character of X_lambda is the multiset of k^2 j(j-1) over
    # the positions j within each block of lambda; p_r(x^2) = sum_i x_i^(2r)
    # is central in H, so it acts by the r-th power sum of that multiset,
    # read on one column with no whole matrix formed.
    module = induced_module(lam, k)
    alg = algebra_for(module.params)
    squares = [alg.multiply(alg.x(i), alg.x(i)) for i in range(1, module.params.n + 1)]
    values = [k * k * (j * (j - 1)) for part in lam.parts for j in range(1, part + 1)]
    monkeypatch.setattr(ModuleRep, "act", lambda self, elem: pytest.fail("act was called"))
    powers = squares
    for r in range(1, module.params.n + 1):
        p_r = sum(powers, AlgElem(alg.params))
        assert _orbit_width(module, p_r) == 1
        assert _scalar_action(module, p_r) == sum((v ** r for v in values), ZERO)
        powers = [alg.multiply(power, square) for power, square in zip(powers, squares)]


def test_dirac_cohomology_stops_when_ker_d_is_zero(monkeypatch):
    module = cached_module((2, 2), ONE)
    acted = []
    act = module.act
    monkeypatch.setattr(module, "act", lambda elem: acted.append(elem) or act(elem))
    report = dirac_cohomology(module)
    # chi + K is no root of m, so H_D = 0 is read off the center.  chi is
    # read on block 0, so no whole matrix is formed: neither pi(Omega_H)
    # nor pi(D).
    assert acted == []
    assert (report.dim_ker, report.dim_hd) == (0, 0)
    assert (report.spectrum, report.spectrum_complete, report.status) == ([], True, "pass")
    assert report.ker_equals_ker_sq and report.matched_partition == []


def _conjugated(module, perm):
    """The module with every generator conjugated by the basis permutation e_i -> e_perm[i]."""
    gens = {}
    for name, mat in module.gens.items():
        cols = [None] * module.dim
        for j, col in enumerate(mat.cols):
            cols[perm[j]] = {perm[i]: a for i, a in col.items()}
        gens[name] = Matrix.from_sparse(cols, module.dim)
    parity = [0] * module.dim
    for i, p in enumerate(module.parity):
        parity[perm[i]] = p
    return ModuleRep(module.params, module.kind, parity, gens, lam=module.lam)


def test_chi_is_read_on_one_column_in_any_basis(monkeypatch):
    # Swapping a basis vector of block 0 with one of block 1 keeps every
    # relation and moves no orbit of the monomial pi(g): chi is still read
    # on one column, to the same report, with no whole pi(Omega_H).
    good = cached_module((2, 1), ONE)
    perm = list(range(good.dim))
    perm[1], perm[9] = 9, 1
    module = _conjugated(good, perm)
    assert module.gens != good.gens and _summed_relation_failures(module) == []
    omega_h = casimirs(good.params)[0]
    assert _orbit_width(module, omega_h) == _orbit_width(good, omega_h) == 1
    acted = []
    act = module.act
    monkeypatch.setattr(module, "act", lambda elem: acted.append(elem) or act(elem))
    assert dirac_cohomology(module) == dirac_cohomology(good)
    assert omega_h not in acted


@pytest.mark.parametrize("parts, k", [((1,), ONE), ((1, 1), ZERO), ((2, 1), ZERO)])
def test_zero_chi_is_read_on_block_zero(parts, k, monkeypatch):
    # pi(Omega_H) = 0 stores no entry in block 0; that is the scalar 0, not
    # "not a scalar".
    module = cached_module(parts, k)
    acted = []
    act = module.act
    monkeypatch.setattr(module, "act", lambda elem: acted.append(elem) or act(elem))
    report = dirac_cohomology(module)
    assert report.chi_omega_h == ZERO
    assert casimirs(module.params)[0] not in acted
    assert report.spectrum_complete


def test_all_suite_n1_reads_zero_chi(capsys):
    assert cli.main(["all", "--n", "1", "--k", "1"]) == 0
    checks = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["cohomology-1:omega_h_scalar"] == checks["cohomology-1:eigenvalue_matches_chi"] == "pass"


def test_seg_stability_from_engine_matches_kernel_stability():
    # The engine identities g D = +-D g imply what the matrices show directly:
    # every Seg generator keeps ker D.
    for module in (cached_module((2, 1), ONE), cached_module((3,), TWO)):
        d = dirac_element(module.params)
        ker = Subspace.kernel(module.act(d))
        assert ker.dim
        alg = algebra_for(module.params)
        for key in alg.ctx.simple_names + [f"c{i}" for i in range(1, module.params.n + 1)]:
            assert supercommutator(module.params, alg.generators[key], d).is_zero()
            assert ker.is_invariant(module.gens[key])


def _broken_dirac(params):
    # E = Omega_H - 2k^2 acts by 0 on the A2 Steinberg module and on X_(2,1)
    # at k = 1, and commutes with W, but c_i E + E c_i = 2 c_i E != 0: D + E
    # realises as D, and only the engine sees that it fails (b).
    omega_h, _ = casimirs(params)
    return dirac_element(params) + omega_h - algebra_for(params).scalar(TWO)


def test_broken_c_anticommutation_reports_incomplete(monkeypatch, capsys):
    params = AlgebraParams("A", 2, ONE)
    module = steinberg_module(params)
    broken = _broken_dirac(params)
    assert module.act(broken - dirac_element(params)).is_zero()
    assert _seg_data(broken, *casimirs(params)) == (None, None)
    monkeypatch.setattr(cohomology, "dirac_element", _broken_dirac)
    kernels, _ = _count_kernels(monkeypatch)
    report = dirac_cohomology(module)
    # c0 is unknown: ker D comes from elimination, ker D^2 from (d), and the
    # nonzero H_D gets no spectrum.
    assert kernels == [module.act(broken).cols]
    assert (report.dim_ker, report.dim_hd, report.dim_im_cap_ker) == (module.dim, module.dim, 0)
    assert (report.spectrum, report.spectrum_complete, report.status) == ([], False, "incomplete")
    assert cli.main(["cohomology", "--lambda", "2,1", "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "fail"
    assert "Traceback" not in captured.err


def test_unchecked_module_is_certified_before_stability():
    # No constructor runs the relation check: dirac_cohomology runs it.
    good = cached_module((2, 1), ONE)
    fresh = ModuleRep(good.params, "induced", good.parity, good.gens, lam=good.lam)
    assert "relations" not in vars(fresh)
    assert dirac_cohomology(fresh) == dirac_cohomology(good)
    assert fresh.relations == good.relations == []
    # x1 negated breaks s1_x1 (and s1_x2, which the generating set leaves
    # out) but leaves ker D nonzero; the relation check refuses the module
    # before any dimension is read.
    gens = dict(good.gens, x1=-good.gens["x1"])
    broken = ModuleRep(good.params, "induced", good.parity, gens, lam=good.lam)
    assert Subspace.kernel(broken.act(dirac_element(good.params))).dim
    with pytest.raises(AssertionError, match="module relations fail"):
        dirac_cohomology(broken)
    assert broken.relations == ["s1_x1"]


def _matrices(value):
    """The Matrix objects in value and in the dicts, lists, tuples and sets it holds."""
    if isinstance(value, Matrix):
        yield value
    elif isinstance(value, dict):
        for item in value.items():
            yield from _matrices(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _matrices(item)


def test_module_keeps_only_its_generator_matrices():
    # A module holds its data and generator matrices: no pi(w), no pi(D) and
    # no other product built during dirac_cohomology is kept on it.
    module = induced_module(Partition((3, 1)), ONE)
    gens = {id(mat) for mat in module.gens.values()}
    assert dirac_cohomology(module).dim_hd
    assert [key for key, value in vars(module).items()
            if any(id(mat) not in gens for mat in _matrices(value))] == []


def test_verify_vogan_builds_d_and_casimirs_once(monkeypatch):
    calls = []
    for name in ("casimir_h", "casimir_seg", "dirac_element"):
        real = getattr(cohomology, name)
        monkeypatch.setattr(cohomology, name,
                            lambda p, real=real, name=name: calls.append(name) or real(p))
    checks, _ = verify_vogan(Partition((2, 1)), ONE)
    assert all(checks.values())
    assert sorted(calls) == ["casimir_h", "casimir_seg", "dirac_element"]


def test_dirac_cohomology_on_steinberg():
    for n in (1, 2, 3):
        p = AlgebraParams("A", n, ONE)
        st = steinberg_module(p)
        report = dirac_cohomology(st)
        assert report.dim_hd == st.dim  # D = 0
        assert report.dim_im == 0
        assert report.spectrum_complete


def test_dirac_cohomology_rank_one_induced():
    module = cached_module((1,), ONE)
    report = dirac_cohomology(module)
    assert report.dim_hd == 2
    assert report.spectrum == [(ZERO, 2)]


def test_dirac_cohomology_x21():
    report = dirac_cohomology(cached_module((2, 1), ONE))
    assert report.dim_ker == 8
    assert report.dim_im_cap_ker == 0
    assert report.dim_hd == 8
    assert report.ker_equals_ker_sq
    assert report.spectrum == [(TWO, 8)]
    assert report.matched_partition == ["2,1"]
    json_form = report.to_json()
    assert json_form["omega_seg_spectrum"] == [["2", 8]]
    assert json_form["dim_HD"] == 8


def test_non_distinct_partition_pipeline_runs():
    report = dirac_cohomology(cached_module((1, 1), ONE))
    assert report.dim_hd >= 0  # recorded, not asserted
    assert report.spectrum_complete


def test_hd_dimension_stable_under_k():
    for parts in ((2, 1), (3,)):
        dims = set()
        for k in (ONE, HALF_K):
            dims.add(dirac_cohomology(cached_module(parts, k)).dim_hd)
        assert len(dims) == 1


@pytest.mark.parametrize("parts", [(2, 1), (3,)])
@pytest.mark.parametrize("k", [ONE, HALF_K])
def test_verify_vogan_small(parts, k):
    checks, details = verify_vogan(Partition(parts), k)
    assert all(checks.values()), (checks, details)
    assert details["dim_HD"] > 0


def test_verify_vogan_preconditions():
    with pytest.raises(ValueError):
        verify_vogan(Partition((1, 1)), ONE)
    with pytest.raises(ValueError):
        verify_vogan(Partition((2,)), ZERO)


@pytest.mark.parametrize(
    "parts, dim_hd, norms_sq, spectrum",
    [((4, 1), 96, 20, [["20", 96]]), ((3, 2), 64, 10, [["10", 64]])],
    ids=["4,1", "3,2"],
)
def test_verify_vogan_n5(parts, dim_hd, norms_sq, spectrum):
    checks, details = verify_vogan(Partition(parts), ONE)
    assert all(checks.values()), (checks, details)
    assert (details["dim_HD"], details["norms_sq"]) == (dim_hd, norms_sq)
    assert details["omega_seg_spectrum"] == spectrum


def test_verify_vogan_eigenvalue_values():
    assert verify_vogan(Partition((2, 1)), ONE)[1]["omega_seg_spectrum"] == [["2", 8]]
    assert verify_vogan(Partition((3,)), ONE)[1]["omega_seg_spectrum"] == [["8", 8]]


@pytest.mark.parametrize("parts, k", [((2, 1), ONE), ((1, 1), ONE), ((2,), ZERO)])
def test_image_dimensions_from_kernel_ranks(parts, k):
    # dirac_cohomology reads dim im D and dim(ker D cap im D) off kernel dimensions.
    from hcdirac.dirac import dirac_element

    module = cached_module(parts, k)
    d_mat = module.act(dirac_element(module.params))
    ker, im = Subspace.kernel(d_mat), Subspace.image(d_mat)
    report = dirac_cohomology(module)
    assert report.dim_im == im.dim
    assert report.dim_im_cap_ker == ker.intersect(im).dim


def test_dirac_skew_hermitian_on_induced_modules():
    # The induced-module form is the standard one in the coset basis, so
    # pi(D) is anti-self-adjoint exactly when pi(D)^dagger = -pi(D).
    for parts in ((1,), (2,), (2, 1)):
        module = cached_module(parts, ONE)
        d_mat = module.act(dirac_element(module.params))
        assert adjoint(d_mat) == -d_mat


def _quotient_spectrum(module, ker, inter):
    """[(value, dim)] for Omega_Seg on ker / inter, asserted to act there by a scalar."""
    if ker.dim == inter.dim:
        return []
    omega_seg = module.act(casimirs(module.params)[1])
    value = quotient_matrix(omega_seg, ker, inter).scalar_value()
    assert value is not None
    return [(value, ker.dim - inter.dim)]


def _assert_matches_direct_computation(module, certified):
    # dirac_cohomology against ker D^2, ker D cap im D and Omega_Seg on the
    # quotient, computed here by elimination with no shortcut.
    d_mat = module.act(dirac_element(module.params))
    assert (adjoint(d_mat) == -d_mat) == certified
    ker = Subspace.kernel(d_mat)
    inter = ker.intersect(Subspace.image(d_mat))
    report = dirac_cohomology(module)
    assert report.dim_im_cap_ker == inter.dim
    assert report.ker_equals_ker_sq == (Subspace.kernel(d_mat * d_mat).dim == ker.dim)
    assert (report.spectrum, report.spectrum_complete) == (_quotient_spectrum(module, ker, inter), True)


@pytest.mark.parametrize(
    "parts, k, certified",
    [(parts, k, True) for parts in ((2, 2), (3, 1), (2, 1, 1)) for k in (ONE, HALF_K, SQRT2)]
    + [((2, 1), I, False), ((3, 1), I, False)],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_dirac_cohomology_matches_direct_computation(parts, k, certified):
    # k = i breaks pi(D)^dagger = -pi(D), so the general path runs.
    _assert_matches_direct_computation(cached_module(parts, k), certified)


@pytest.mark.parametrize(
    "typ, n, k_short, value, dim",
    [
        ("B", 2, HALF_K, Scalar(Fraction(17, 4), 1), 4),
        ("B", 3, HALF_K, Scalar(Fraction(163, 8), 3), 16),
        ("D", 3, ZERO, Scalar(20), 16),
    ],
    ids=["B2", "B3", "D3"],
)
def test_dirac_cohomology_reads_off_spectrum_outside_candidates(
    typ, n, k_short, value, dim, monkeypatch
):
    # On a type B or D Steinberg module D = 0, and Omega_Seg acts on the
    # whole module by a scalar outside the type A candidate table.  The
    # elimination fallback runs (no class sums in types B and D), and
    # D^2 = chi + K - Omega_Seg makes chi + K that scalar and the whole
    # spectrum, with no matrix of Omega_Seg formed.
    base = AlgebraParams(typ, n, ONE, k_short)
    module = steinberg_module(AlgebraParams(typ, n, ONE, k_short, forced_n_constant(base)))
    assert value not in [v for _, v in _phi_table(module.params)] + [ZERO]
    _, omega_seg = casimirs(module.params)
    assert module.act(omega_seg).scalar_value() == value
    acted = []
    act = module.act
    monkeypatch.setattr(module, "act", lambda elem: acted.append(elem) or act(elem))
    report = dirac_cohomology(module)
    assert omega_seg not in acted and dirac_element(module.params) in acted
    assert (report.dim_hd, report.spectrum) == (dim, [(value, dim)])
    assert report.spectrum_complete and report.status == "pass"


# ---------------------------------------------------------------------------
# dim H_D as the trace of a central idempotent, against exact elimination.

_TRACE_KS = (ONE, -HALF_K, Scalar(Fraction(2, 3)))


def _center_for(module):
    """(classes, M, m) for the module's parameters."""
    omega_h, omega_seg = casimirs(module.params)
    return _seg_data(dirac_element(module.params), omega_h, omega_seg)[1]


def _count_kernels(monkeypatch):
    """(kernels, d_calls), filled from here on.

    kernels holds the columns of every matrix eliminated, by cohomology's
    sparse_kernel or by Subspace.kernel.  d_calls holds "act" for each
    `ModuleRep.act` of the Dirac element D and ncols for each
    `ModuleRep.act_columns` of D, which `act` calls with every column.
    """
    kernels, d_calls, ds = [], [], {}
    real, real_sparse = Subspace.kernel, cohomology.sparse_kernel
    real_act, real_columns = ModuleRep.act, ModuleRep.act_columns

    def note(elem, what):
        if elem.params not in ds:
            ds[elem.params] = dirac_element(elem.params)
        if elem == ds[elem.params]:
            d_calls.append(what)

    monkeypatch.setattr(Subspace, "kernel", lambda matrix: kernels.append(matrix.cols) or real(matrix))
    monkeypatch.setattr(cohomology, "sparse_kernel", lambda cols: kernels.append(cols) or real_sparse(cols))
    monkeypatch.setattr(ModuleRep, "act", lambda self, elem: note(elem, "act") or real_act(self, elem))
    monkeypatch.setattr(ModuleRep, "act_columns",
                        lambda self, elem, ncols: note(elem, ncols) or real_columns(self, elem, ncols))
    return kernels, d_calls


@pytest.mark.parametrize(
    "parts, k",
    [(lam.parts, k) for n in range(1, 5) for lam in all_partitions(n) for k in _TRACE_KS]
    + [(parts, k) for parts in [(5,), (4, 1), (3, 2)] for k in _TRACE_KS]
    + [((7,), ONE), ((6, 1), ONE)],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v.compact(),
)
def test_trace_path_matches_elimination(parts, k, monkeypatch):
    module = cached_module(parts, k)
    kernels, d_calls = _count_kernels(monkeypatch)
    report = dirac_cohomology(module)
    assert kernels == []  # no elimination ran
    # (d) reads one column of pi(D), and only when H_D can be nonzero.
    assert d_calls == ([1] if report.dim_hd else [])
    monkeypatch.undo()
    d_mat = module.act(dirac_element(module.params))
    assert adjoint(d_mat) == -d_mat  # so ker D cap im D = 0
    ker = Subspace.kernel(d_mat)
    spectrum = _quotient_spectrum(module, ker, Subspace(module.dim))
    assert (report.dim_ker, report.dim_hd, report.dim_im_cap_ker) == (ker.dim, ker.dim, 0)
    assert (report.spectrum, report.spectrum_complete) == (spectrum, True)
    assert report.ker_equals_ker_sq and report.dim_im == module.dim - ker.dim


@pytest.mark.parametrize("parts", [(2, 1), (3, 1), (4, 1)])
def test_failed_skew_certificate_falls_back_to_elimination(parts, monkeypatch):
    # At k = i, pi(D)^dagger != -pi(D): tr pi(e) is dim ker D^2, which need
    # not be dim ker D, so ker D alone is eliminated, and Omega_Seg is never
    # formed as a matrix.
    module = cached_module(parts, I)
    omega_seg = casimirs(module.params)[1]
    d_mat = module.act(dirac_element(module.params))
    kernels, d_calls = _count_kernels(monkeypatch)
    acted = []
    act = module.act
    monkeypatch.setattr(module, "act", lambda elem: acted.append(elem) or act(elem))
    report = dirac_cohomology(module)
    assert kernels == [d_mat.cols]
    # (d) fails on its one column; pi(D) is then formed once, to eliminate.
    assert d_calls == [1, "act", module.dim]
    assert omega_seg not in acted
    monkeypatch.undo()
    ker = Subspace.kernel(d_mat)
    assert report.dim_ker == ker.dim
    assert report.dim_im_cap_ker == ker.intersect(Subspace.image(d_mat)).dim


def test_skew_read_off_fails_at_k_i():
    # At k = i, pi(D)^dagger != -pi(D) on each X_lambda with lambda |- n <= 5
    # distinct and pi(D) != 0, and the root column shows it.
    for parts in ((2, 1), (3, 1), (4, 1), (3, 2)):
        _assert_skew_read_off(induced_module(Partition(parts), I), False)


@pytest.mark.parametrize(
    "parts, dim_hd, spectrum", [((6,), 64, [["70", 64]]), ((5, 1), 256, [["40", 256]])],
    ids=["6", "5,1"],
)
def test_verify_vogan_n6_pins(parts, dim_hd, spectrum, monkeypatch):
    kernels, d_calls = _count_kernels(monkeypatch)
    checks, details = verify_vogan(Partition(parts), ONE)
    assert (kernels, d_calls) == ([], [1])
    assert all(checks.values()), (checks, details)
    assert (details["dim_HD"], details["omega_seg_spectrum"]) == (dim_hd, spectrum)


def test_minimal_polynomial_roots_are_the_phi_values():
    # At n = 4, m = (t - 20)(t - 8) for k = 1; the values are k^2 |phi(mu)|^2.
    _, mult, minpoly = _center_for(cached_module((3, 1), ONE))
    assert minpoly == [Scalar(160), Scalar(-28), ONE]
    assert mult.nrows == len(distinct_partitions(4))


def test_trace_at_a_wrong_c0_is_another_block():
    # On X_(2,1), Omega_Seg has the eigenvalues 2 (H_D, dim 8) and 8 (dim 16).
    module = cached_module((2, 1), ONE)
    center = _center_for(module)
    assert _idempotent_trace(module, center, TWO) == 8
    assert _idempotent_trace(module, center, Scalar(8)) == 16
    assert _idempotent_trace(module, center, Scalar(5)) == 0


def test_trace_with_a_dropped_factor_raises():
    module = cached_module((2, 1), ONE)
    table, mult, minpoly = _center_for(module)
    dropped, remainder = _divide_linear(minpoly, Scalar(8))
    assert not remainder and len(dropped) == len(minpoly) - 1
    with pytest.raises(AssertionError, match="m\\(Omega_Seg\\) != 0"):
        _idempotent_trace(module, (table, mult, dropped), TWO)


def test_non_central_stand_in_for_omega_seg_raises():
    params = AlgebraParams("A", 3, ONE)
    _, omega_seg = casimirs(params)
    stand_in = omega_seg + algebra_for(params).generators["s1"]
    with pytest.raises(ValueError, match="not central"):
        center_multiplication(stand_in, seg_even_center(3))


def test_class_sum_trace_needs_the_sign():
    # tr pi(z_rho) = |z_rho| tr pi(f_rho) holds with the signs of z_rho; without
    # them the trace of the idempotent on X_(3,1) is no longer dim H_D = 32.
    module = cached_module((3, 1), ONE)
    params = module.params
    _, mult, minpoly = center = _center_for(module)
    sums = _class_members(params.n)

    def trace(mono):
        word = PbwMonomial((0,) * params.n, *mono)
        return module.act(AlgElem(params, {word: ONE})).trace()

    c0 = Scalar(8)
    quotient, _ = _divide_linear(minpoly, c0)
    coords = _poly_apply(quotient, mult, {0: ONE})
    scale = _divide_linear(quotient, c0)[1].inverse()
    signed = unsigned = ZERO
    for o, coord in coords.items():
        z = sums[o]
        by_first = trace(next(iter(z))) * len(z)
        assert sum((trace(u) * sign for u, sign in z.items()), ZERO) == by_first
        signed = signed + coord * by_first
        unsigned = unsigned + coord * sum((trace(u) for u in z), ZERO)
    assert signed * scale == Scalar(32) == Scalar(_idempotent_trace(module, center, c0))
    assert unsigned * scale != Scalar(32)


def test_all_run_keeps_center_caches_bounded(capsys):
    for k in range(1, 11):
        dirac_cohomology(cached_module((2,), Scalar(k)))
    assert cli.main(["all", "--n", "3", "--k", "1"]) == 0
    capsys.readouterr()
    for cache in (_seg_data, _supercommutes):
        info = cache.cache_info()
        assert info.maxsize is not None and 1 <= info.currsize <= info.maxsize
    assert _seg_data.cache_info().currsize == _seg_data.cache_info().maxsize


def _steinberg_params(typ, n, k, ks):
    if typ == "A":
        return AlgebraParams("A", n, k)
    base = AlgebraParams(typ, n, k, k_short=ks if typ == "B" else ZERO)
    return AlgebraParams(typ, n, k, k_short=base.k_short, N=forced_n_constant(base))


def _assert_read_offs_agree(module, width):
    """The read-offs equal what the whole `act` gives, on `width` columns; pi(D) is skew."""
    d, omega_h = dirac_element(module.params), casimirs(module.params)[0]
    # The forest is the module's: D and Omega_H are read along the same one.
    assert _orbit(module, d) == _orbit(module, omega_h) == module.seg_forest[:2]
    assert _orbit_width(module, d) == _orbit_width(module, omega_h) == width
    assert _scalar_action(module, omega_h) == module.act(omega_h).scalar_value()
    zero = module.act(d).is_zero()
    assert acts_by_zero(module, d) is zero
    _assert_skew_read_off(module, True)
    return zero


def _assert_skew_read_off(module, skew):
    """(d) read off the root columns agrees with pi(D)^dagger = -pi(D) on the
    whole matrix, which is skew or not.  Every step of the forest is a move
    of its generator.  On a copy whose relations fail every index is a
    root, and the read-off is the entrywise check."""
    d = dirac_element(module.params)
    d_mat = module.act(d)
    assert (adjoint(d_mat) == -d_mat) is skew
    roots, steps = _orbit(module, d)
    assert len(roots) + len(steps) == module.dim
    assert all(module.gens[name].monomial()[0][j] == a for a, (j, name) in steps.items())
    assert _is_skew(module, d) is skew
    misgraded = _misgraded(module)
    assert _orbit(misgraded, d) == (list(range(module.dim)), {})
    assert _is_skew(misgraded, d) is skew


def _misgraded(module):
    """The module with the parity of e_0 flipped: the same matrices, failing the parity relations."""
    parity = [1 - module.parity[0], *module.parity[1:]]
    misgraded = ModuleRep(module.params, module.kind, parity, module.gens, lam=module.lam)
    assert misgraded.relations and all(name.startswith("parity_") for name in misgraded.relations)
    return misgraded


@pytest.mark.parametrize(
    "typ, n", [("A", n) for n in range(1, 7)] + [(typ, n) for typ in "BD" for n in range(1, 5)]
)
def test_dirac_read_off_agrees_with_act_on_steinberg(typ, n):
    # One column on X_(n), whose basis c^mask is one Clifford orbit.  On
    # U(n) (x) U(n) in types B and D the c_i leave 2^ceil(n/2) slices, which
    # the monomial s_i join into one orbit, or two in D1 and D3.
    width = 2 if (typ, n) in (("D", 1), ("D", 3)) else 1
    for k in (ONE, -HALF_K, Scalar(Fraction(2, 3))):
        for ks in (k, HALF_K) if typ == "B" else (ZERO,):
            module = steinberg_module(_steinberg_params(typ, n, k, ks))
            assert _assert_read_offs_agree(module, width) is True


_SHAPES = [lam for n in range(1, 6) for lam in all_partitions(n)]


@pytest.mark.parametrize("lam", _SHAPES, ids=map(str, _SHAPES))
def test_read_offs_agree_with_act_on_x_lambda(lam):
    # One column: the c_i carry e_0 through its coset block and the
    # monomial s_i carry it from block to block.  pi(D) = 0 on X_(n) only;
    # X_(2,1) and X_(3,1) are among the others.
    for k in (ONE, -HALF_K, Scalar(Fraction(2, 3))):
        assert _assert_read_offs_agree(induced_module(lam, k), 1) is (len(lam.parts) == 1)


def _changed_basis(module, first, first_inv):
    """The module in the basis P e_0 = first, e_1, e_2, ..., with P^-1 e_0 = first_inv.

    Each pi(g) becomes P^-1 pi(g) P; first must have the parity of e_0.
    """
    ident = [{i: ONE} for i in range(1, module.dim)]
    p = Matrix.from_sparse([first] + ident, module.dim)
    p_inv = Matrix.from_sparse([first_inv] + ident, module.dim)
    gens = {name: p_inv * mat * p for name, mat in module.gens.items()}
    return ModuleRep(module.params, module.kind, module.parity, gens, lam=module.lam)


def test_dirac_read_off_falls_back_without_its_premises(monkeypatch):
    params = _steinberg_params("B", 3, ONE, HALF_K)
    good = steinberg_module(params)
    alg = algebra_for(params)
    d = dirac_element(params)
    misgraded = _misgraded(good)
    # A change of basis keeps (a) and leaves no pi(g) monomial, pi(c1) included.
    j = good.parity.index(good.parity[0], 1)
    changed = _changed_basis(good, {0: ONE, j: ONE}, {0: ONE, j: -ONE})
    assert not any(mat.monomial() for mat in changed.gens.values())
    x_1 = induced_module(Partition((1,)), ONE)
    alg_1 = algebra_for(x_1.params)
    cases = [
        (good, d, 1),
        (misgraded, d, good.dim),
        (changed, d, good.dim),
        # 1 + c1 has mixed parity.
        (good, alg.one() + alg.c(1), good.dim),
        # x1 commutes with c1 and c1 squares to -1: neither supercommutes
        # with c1, which the module's forest uses, so both are read on
        # every column.
        (good, alg.x(1), good.dim),
        (good, alg.c(1), good.dim),
        # X_(1) has no generator but x1 and c1.
        (x_1, alg_1.x(1), x_1.dim),
        (x_1, alg_1.c(1), x_1.dim),
    ]
    calls = []
    real = ModuleRep.act_columns
    monkeypatch.setattr(ModuleRep, "act_columns",
                        lambda self, elem, ncols: calls.append((elem, ncols)) or real(self, elem, ncols))
    for module, elem, width in cases:
        assert _orbit_width(module, elem) == width
        # acts_by_zero forms width columns, then act forms all of them.
        assert acts_by_zero(module, elem) is module.act(elem).is_zero()
        assert calls[-2:] == [(elem, width), (elem, module.dim)]
    checked = []
    monkeypatch.setattr(cohomology, "_supercommutes", lambda elem, name: checked.append(name) or True)
    assert _orbit_width(changed, d) == changed.dim and checked == []


def test_read_off_on_x_n_checks_no_reflection(monkeypatch):
    # The c_i leave one orbit on X_(n): the s_i are never checked in the engine.
    module = cached_module((3,), ONE)
    real = cohomology._supercommutes
    checked = []
    monkeypatch.setattr(cohomology, "_supercommutes", lambda elem, name: checked.append(name) or real(elem, name))
    assert acts_by_zero(module, dirac_element(module.params))
    assert _scalar_action(module, casimirs(module.params)[0]) == Scalar(8)
    assert checked and set(checked) <= {"c1", "c2", "c3"}


def test_read_off_on_b4_steinberg_checks_only_the_forest_generators(monkeypatch):
    # The steps use c1, c3, s1 and s3 of the seven generators, and D is
    # certified on those only, in their order of first use.
    module = steinberg_module(_steinberg_params("B", 4, ONE, ONE))
    _, steps, names = module.seg_forest
    assert names == list(dict.fromkeys(name for _, name in steps.values())) == ["c1", "c3", "s1", "s3"]
    real = cohomology._supercommutes
    checked = []
    monkeypatch.setattr(cohomology, "_supercommutes", lambda elem, name: checked.append(name) or real(elem, name))
    assert acts_by_zero(module, dirac_element(module.params))
    assert checked == names


def test_dirac_cohomology_builds_the_forest_once(monkeypatch):
    # (c) and (d) both read the forest of X_(3,1), which is built on the first.
    builds, reads = [], []
    build = ModuleRep.seg_forest.func
    forest = functools.cached_property(lambda self: builds.append(self) or build(self))
    forest.__set_name__(ModuleRep, "seg_forest")
    monkeypatch.setattr(ModuleRep, "seg_forest", forest)
    real = cohomology._orbit
    monkeypatch.setattr(cohomology, "_orbit", lambda module, elem: reads.append(elem) or real(module, elem))
    module = induced_module(Partition((3, 1)), ONE)
    assert dirac_cohomology(module).dim_hd > 0
    assert builds == [module] and len(reads) == 2


def test_dirac_read_off_sees_a_nonzero_d(monkeypatch):
    # On X_(2,1) every premise holds and pi(D) != 0: its first column shows
    # it with no act.
    module = cached_module((2, 1), ONE)
    assert _orbit_width(module, dirac_element(module.params)) == 1
    monkeypatch.setattr(ModuleRep, "act", lambda self, elem: pytest.fail("act was called"))
    assert not acts_by_zero(module, dirac_element(module.params))


def test_skew_read_off_counts_only_unitary_moves():
    # P = diag(2, 1, ..., 1) keeps (a), and pi(c_i) and pi(s2) stay monomial
    # with entries 2 and 1/2.  They are not unitary, so X = pi(D) + pi(D)^dagger
    # need not vanish along them, and here it does not: only s1 counts, and
    # the check reads 14 root columns.
    good = cached_module((2, 1), ONE)
    d = dirac_element(good.params)
    module = _changed_basis(good, {0: TWO}, {0: HALF_K})
    d_mat = module.act(d)
    assert adjoint(d_mat) != -d_mat
    assert {name for name, mat in module.gens.items() if mat.monomial()} == {"c1", "c2", "c3", "s1", "s2"}
    assert {name for _, name in _orbit(module, d)[1].values()} == {"s1"}
    assert len(_orbit(module, d)[0]) == 14
    assert _is_skew(good, d) and not _is_skew(module, d)
    # P = diag(i, 1, ..., 1) is unitary: the entries +-i of pi(c_i) count,
    # one column is read again, and conj(sigma) keeps pi(D) skew.
    unitary = _changed_basis(good, {0: I}, {0: -I})
    assert any(I in mat.monomial()[1] for mat in unitary.gens.values() if mat.monomial())
    assert adjoint(unitary.act(d)) == -unitary.act(d)
    assert _orbit_width(unitary, d) == 1 and _is_skew(unitary, d)
