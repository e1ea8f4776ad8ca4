"""Dirac cohomology, central characters, phi maps, and the Vogan check."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from hcdirac import cli, cohomology
from hcdirac.centers import center_multiplication, class_sums
from hcdirac.cohomology import (
    CentralCharacter,
    _divide_linear,
    _idempotent_trace,
    _phi_values,
    _poly_apply,
    _seg_data,
    central_character,
    dirac_cohomology,
    expected_central_character,
    verify_vogan,
)
from hcdirac.dirac import casimirs, dirac_element, seg_commutators
from hcdirac.engine import AlgebraParams, AlgElem, PbwMonomial, algebra_for
from hcdirac.linalg import Matrix, Subspace, quotient_matrix
from hcdirac.modules import ModuleRep, forced_n_constant, induced_module, steinberg_module
from hcdirac.partitions import Partition, all_partitions, distinct_partitions, phi_maps
from hcdirac.scalars import I, ONE, SQRT2, TWO, ZERO, Scalar

HALF_K = Scalar(Fraction(1, 2))

_MODULES: dict = {}


def cached_module(parts, k):
    key = (parts, k)
    if key not in _MODULES:
        _MODULES[key] = induced_module(Partition(parts), k)
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


def test_central_character_examples():
    assert central_character(cached_module((2, 1), ONE)) == CentralCharacter.from_values(
        [ZERO, TWO, ZERO]
    )
    assert central_character(cached_module((3,), ONE)) == CentralCharacter.from_values(
        [ZERO, TWO, Scalar(6)]
    )
    assert central_character(cached_module((2, 1), ZERO)) == CentralCharacter.from_values(
        [ZERO, ZERO, ZERO]
    )
    assert expected_central_character(Partition((2, 1)), ONE) == central_character(
        cached_module((2, 1), ONE)
    )


def test_central_character_scales_with_k_squared():
    cc = central_character(cached_module((2,), HALF_K))
    assert cc == CentralCharacter.from_values([ZERO, HALF_K * HALF_K * 2])


def test_central_character_rejects_non_scalar_square():
    # x1 = diag(1, 2) gives x1^2 = diag(1, 4): diagonal, but not a scalar.
    params = AlgebraParams("A", 1, ONE)
    x1 = Matrix([[ONE, ZERO], [ZERO, TWO]])
    module = ModuleRep(params, "steinberg", [0, 1], {"x1": x1}, check=False)
    with pytest.raises(ValueError, match="not quasisimple"):
        central_character(module)


def test_dirac_cohomology_stops_when_ker_d_is_zero(monkeypatch):
    module = cached_module((2, 2), ONE)
    acted = []
    act = module.act
    monkeypatch.setattr(module, "act", lambda elem: acted.append(elem) or act(elem))
    report = dirac_cohomology(module)
    # chi + K is no root of m, so H_D = 0 is read off the center: only
    # pi(Omega_H) is formed, and pi(D) is not.
    assert acted == [casimirs(module.params)[0]]
    assert (report.dim_ker, report.dim_hd) == (0, 0)
    assert (report.spectrum, report.spectrum_complete, report.status) == ([], True, "pass")
    assert report.ker_equals_ker_sq and report.matched_partition == []


def test_seg_stability_from_engine_matches_kernel_stability():
    # The engine identities g D = +-D g imply what the matrices show directly:
    # every Seg generator keeps ker D.
    for module in (cached_module((2, 1), ONE), cached_module((3,), TWO)):
        ker = Subspace.kernel(module.act(dirac_element(module.params)))
        assert ker.dim
        for key, residual in seg_commutators(module.params, dirac_element(module.params)):
            assert residual.is_zero()
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
    kernels = _count_kernels(monkeypatch)
    report = dirac_cohomology(module)
    # c0 is unknown: ker D comes from elimination, ker D^2 from (d), and the
    # nonzero H_D gets no spectrum.
    assert kernels == [module.act(broken)]
    assert (report.dim_ker, report.dim_hd, report.dim_im_cap_ker) == (module.dim, module.dim, 0)
    assert (report.spectrum, report.spectrum_complete, report.status) == ([], False, "incomplete")
    assert cli.main(["cohomology", "--lambda", "2,1", "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "fail"
    assert "Traceback" not in captured.err


def test_unchecked_module_is_certified_before_stability():
    good = cached_module((2, 1), ONE)
    unchecked = ModuleRep(good.params, "induced", good.parity, good.gens, lam=good.lam, check=False)
    assert unchecked.relations is None
    assert dirac_cohomology(unchecked) == dirac_cohomology(good)
    assert unchecked.relations == good.relations
    # x1 negated breaks s1_x1 and s1_x2 but leaves ker D nonzero; the
    # relation check refuses the module before any dimension is read.
    gens = dict(good.gens, x1=-good.gens["x1"])
    broken = ModuleRep(good.params, "induced", good.parity, gens, lam=good.lam, check=False)
    assert Subspace.kernel(broken.act(dirac_element(good.params))).dim
    with pytest.raises(AssertionError, match="module relations fail"):
        dirac_cohomology(broken)
    assert broken.relations["failures"] == ["s1_x1", "s1_x2"]


def test_verify_vogan_builds_d_and_casimirs_once(monkeypatch):
    calls = []
    for name in ("casimir_h", "casimir_seg", "dirac_element"):
        real = getattr(cohomology, name)
        monkeypatch.setattr(cohomology, name,
                            lambda p, real=real, name=name: calls.append(name) or real(p))
    assert verify_vogan(Partition((2, 1)), ONE)["status"] == "pass"
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
    report = verify_vogan(Partition(parts), k)
    assert report["status"] == "pass", report
    assert report["dim_HD"] > 0


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
    report = verify_vogan(Partition(parts), ONE)
    assert report["status"] == "pass", report
    assert (report["dim_HD"], report["norms_sq"]) == (dim_hd, norms_sq)
    assert report["omega_seg_spectrum"] == spectrum


def test_verify_vogan_eigenvalue_values():
    assert verify_vogan(Partition((2, 1)), ONE)["omega_seg_spectrum"] == [["2", 8]]
    assert verify_vogan(Partition((3,)), ONE)["omega_seg_spectrum"] == [["8", 8]]


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
        assert d_mat.conj_transpose() == -d_mat


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
    assert (d_mat.conj_transpose() == -d_mat) == certified
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
    assert value not in _phi_values(module.params) + [ZERO]
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
    """(class sums, M, m) for the module's parameters."""
    omega_h, omega_seg = casimirs(module.params)
    return _seg_data(dirac_element(module.params), omega_h, omega_seg)[1]


def _count_kernels(monkeypatch):
    calls = []
    real = Subspace.kernel
    monkeypatch.setattr(Subspace, "kernel", lambda matrix: calls.append(matrix) or real(matrix))
    return calls


@pytest.mark.parametrize(
    "parts, k",
    [(lam.parts, k) for n in range(1, 5) for lam in all_partitions(n) for k in _TRACE_KS]
    + [(parts, k) for parts in [(5,), (4, 1), (3, 2)] for k in _TRACE_KS]
    + [((7,), ONE), ((6, 1), ONE)],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v.compact(),
)
def test_trace_path_matches_elimination(parts, k, monkeypatch):
    module = cached_module(parts, k)
    kernels = _count_kernels(monkeypatch)
    report = dirac_cohomology(module)
    assert kernels == []  # no elimination ran
    monkeypatch.undo()
    d_mat = module.act(dirac_element(module.params))
    assert d_mat.conj_transpose() == -d_mat  # so ker D cap im D = 0
    ker = Subspace.kernel(d_mat)
    spectrum = _quotient_spectrum(module, ker, Subspace(module.dim))
    assert (report.dim_ker, report.dim_hd, report.dim_im_cap_ker) == (ker.dim, ker.dim, 0)
    assert (report.spectrum, report.spectrum_complete) == (spectrum, True)
    assert report.ker_equals_ker_sq and report.dim_im == module.dim - ker.dim


@pytest.mark.parametrize("parts", [(2, 1), (3, 1)])
def test_failed_skew_certificate_falls_back_to_elimination(parts, monkeypatch):
    # At k = i, pi(D)^dagger != -pi(D): tr pi(e) is dim ker D^2, which need
    # not be dim ker D, so ker D alone is eliminated, and Omega_Seg is never
    # formed as a matrix.
    module = cached_module(parts, I)
    omega_seg = casimirs(module.params)[1]
    d_mat = module.act(dirac_element(module.params))
    kernels = _count_kernels(monkeypatch)
    acted = []
    act = module.act
    monkeypatch.setattr(module, "act", lambda elem: acted.append(elem) or act(elem))
    dirac_cohomology(module)
    assert kernels == [d_mat]
    assert omega_seg not in acted


@pytest.mark.parametrize(
    "parts, dim_hd, spectrum", [((6,), 64, [["70", 64]]), ((5, 1), 256, [["40", 256]])],
    ids=["6", "5,1"],
)
def test_verify_vogan_n6_pins(parts, dim_hd, spectrum, monkeypatch):
    kernels = _count_kernels(monkeypatch)
    report = verify_vogan(Partition(parts), ONE)
    assert kernels == []
    assert report["status"] == "pass", report
    assert (report["dim_HD"], report["omega_seg_spectrum"]) == (dim_hd, spectrum)


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
        center_multiplication(stand_in, class_sums(3))


def test_class_sum_trace_needs_the_sign():
    # tr pi(z_O) = |O| tr pi(f_O) holds with the signs of z_O; without them the
    # trace of the idempotent on X_(3,1) is no longer dim H_D = 32.
    module = cached_module((3, 1), ONE)
    params = module.params
    (sums, _), mult, minpoly = center = _center_for(module)

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
    for cache in (class_sums, _seg_data):
        info = cache.cache_info()
        assert info.maxsize is not None and 1 <= info.currsize <= info.maxsize
    assert _seg_data.cache_info().currsize == _seg_data.cache_info().maxsize
