"""Module constructions: Clifford matrices, Steinberg modules and induced modules."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from hcdirac.dirac import dirac_element
from hcdirac.engine import AlgebraParams, algebra_for, defining_relations, multiply, random_element
from hcdirac.linalg import Matrix
from hcdirac.modules import (
    ModuleRep,
    _InducedBuilder,
    _steinberg_b_ambient,
    check_module_relations,
    clifford_c_matrices,
    forced_n_constant,
    induced_module,
    minimal_coset_reps,
    steinberg_module,
)
from hcdirac.partitions import Partition, all_partitions
from hcdirac.scalars import HALF, I, ONE, TWO, ZERO, Scalar
from hcdirac.weyl import Root, SignedPerm, reflection_perm


def test_clifford_supermodule_dimensions():
    # U(n) has dimension 2^{n/2} for even n and 2^{(n+1)/2} for odd n.
    assert [len(clifford_c_matrices(n)[1]) for n in range(1, 6)] == [2, 2, 4, 4, 8]


def test_clifford_anticommutators_vanish():
    cs, parity = clifford_c_matrices(3)
    c1, c2 = cs[0], cs[1]
    dim = len(parity)
    assert (c1 * c2 + c2 * c1).is_zero()
    assert (c1 * c1 + Matrix.identity(dim)).is_zero()


def test_relation_checker_detects_breakage():
    st = steinberg_module(AlgebraParams("A", 2, ONE))
    broken = dict(st.gens)
    broken["c1"] = Matrix.identity(st.dim)
    with pytest.raises(AssertionError):
        ModuleRep(st.params, "steinberg", st.parity, broken, lam=st.lam)


def test_steinberg_a_actions():
    p = AlgebraParams("A", 2, ONE)
    st = steinberg_module(p)
    assert st.dim == 4
    # On the basis 1, c1, c2, c1c2: c_i multiplies from the left, and s12
    # swaps c1 and c2, so it sends c1c2 to c2c1 = -c1c2.
    o, m = ONE, -ONE
    s12 = Matrix([[o, ZERO, ZERO, ZERO], [ZERO, ZERO, o, ZERO], [ZERO, o, ZERO, ZERO], [ZERO, ZERO, ZERO, m]])
    c1 = Matrix([[ZERO, m, ZERO, ZERO], [o, ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO, m], [ZERO, ZERO, o, ZERO]])
    c2 = Matrix([[ZERO, ZERO, m, ZERO], [ZERO, ZERO, ZERO, o], [o, ZERO, ZERO, ZERO], [ZERO, m, ZERO, ZERO]])
    assert (st.gens["s1"], st.gens["c1"], st.gens["c2"]) == (s12, c1, c2)
    assert st.gens["x1"].is_zero()
    assert st.gens["x2"] == s12 * (Matrix.identity(4) - c2 * c1)


def test_steinberg_a_rank_one():
    p = AlgebraParams("A", 1, ONE)
    st = steinberg_module(p)
    assert st.gens["x1"].is_zero()
    assert st.act(dirac_element(p)).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_steinberg_a_dirac_vanishes(n):
    p = AlgebraParams("A", n, ONE)
    st = steinberg_module(p)
    assert st.dim == 2**n
    assert st.act(dirac_element(p)).is_zero()


@pytest.mark.parametrize(
    "typ,n,ks",
    [("B", 1, ONE), ("B", 2, ONE), ("B", 3, ONE), ("D", 2, ZERO), ("D", 3, ZERO)],
)
def test_steinberg_bd_dirac_vanishes(typ, n, ks):
    base = AlgebraParams(typ, n, ONE, k_short=ks)
    p = AlgebraParams(typ, n, ONE, k_short=ks, N=forced_n_constant(base))
    st = steinberg_module(p)
    cs, parity_u = clifford_c_matrices(n)
    assert st.dim == len(parity_u) ** 2
    assert st.act(dirac_element(p)).is_zero()


@pytest.mark.parametrize(
    "typ,n", [("A", n) for n in range(1, 5)] + [("B", n) for n in range(1, 4)]
    + [("D", n) for n in range(1, 5)],
)
def test_engine_and_modules_share_generator_names(typ, n):
    k = Scalar(Fraction(2, 3))
    base = AlgebraParams(typ, n, k, k_short=Scalar(Fraction(-1, 2)) if typ == "B" else ZERO)
    params = base if typ == "A" else AlgebraParams(
        typ, n, k, k_short=base.k_short, N=forced_n_constant(base))
    alg = algebra_for(params)
    roots = {f"s{t}": Root("diff", t, t + 1) for t in range(1, n)}
    if typ == "B":
        roots["sn"] = Root("short", n)
    elif typ == "D" and n >= 2:
        roots["sd"] = Root("sum", n - 1, n)
    assert alg.ctx.simple_names == list(roots)
    assert alg.ctx.simple_reflections == [reflection_perm(root, n) for root in roots.values()]
    for name, root in roots.items():
        assert alg.generators[name] == alg.w(reflection_perm(root, n))
    words = {name for _, terms in defining_relations(params) for _, word in terms for name in word}
    assert words == set(alg.generators)
    modules = [steinberg_module(params)]
    if typ == "A":
        modules.append(induced_module(Partition((n - 1, 1) if n > 1 else (1,)), k))
    for module in modules:
        assert set(module.gens) == words


@pytest.mark.parametrize("typ,n", [("A", 3), ("A", 4), ("B", 3), ("D", 4)])
def test_group_matrix_is_product_along_reduced_word(typ, n):
    base = AlgebraParams(typ, n, ONE, k_short=ONE if typ == "B" else ZERO)
    params = base if typ == "A" else AlgebraParams(
        typ, n, ONE, k_short=base.k_short, N=forced_n_constant(base))
    ctx = algebra_for(params).ctx
    longest = max(ctx.elements(), key=lambda w: len(ctx.reduced_word(w)))
    module = steinberg_module(params)
    module.group_matrix(longest)
    # One product per letter: the cache holds the nonempty prefixes of the word.
    assert len(module._group_cache) == len(ctx.reduced_word(longest))
    for w in ctx.elements():
        expected = Matrix.identity(module.dim)
        for idx in ctx.reduced_word(w):
            expected = expected * module.gens[ctx.simple_names[idx]]
        assert module.group_matrix(w) == expected
    assert len(module._group_cache) == len(ctx.elements())


def test_steinberg_b_rejects_wrong_n():
    with pytest.raises(ValueError):
        steinberg_module(AlgebraParams("B", 2, ONE, k_short=ONE, N=ZERO))


def test_steinberg_b_wrong_n_breaks_x_commutator():
    # Forcing the module matrices onto params with N = 0 must fail exactly on
    # the x-x relations.
    good = AlgebraParams("B", 2, ONE, k_short=ONE, N=forced_n_constant(AlgebraParams("B", 2, ONE, k_short=ONE)))
    bad = AlgebraParams("B", 2, ONE, k_short=ONE, N=ZERO)
    gens = _steinberg_b_ambient(good)
    cs, parity_u = clifford_c_matrices(2)
    du = len(parity_u)
    parity = [(parity_u[p] + parity_u[q]) & 1 for p in range(du) for q in range(du)]
    module = ModuleRep(bad, "steinberg", parity, gens, check=False)
    assert module.relations is None
    report = check_module_relations(module)
    assert report["status"] == "fail"
    assert report["failures"] == ["x1_x2"]


def _summed_relation_failures(module: ModuleRep) -> list[str]:
    """Reference check: every term of a relation multiplied out, summed, then tested for zero."""
    failures = []
    for name, terms in defining_relations(module.params):
        total = Matrix.zeros(module.dim, module.dim)
        for coef, word in terms:
            product = Matrix.identity(module.dim)
            for gen in word:
                product = product * module.gens[gen]
            total = total + product.scale(coef)
        if not total.is_zero():
            failures.append(name)
    return failures


def _tampered(gens: dict, rng: random.Random, dim: int) -> dict:
    """gens with one or two matrices scaled, swapped, transposed or nudged in one entry."""
    gens = dict(gens)
    keys = sorted(gens)
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(keys)
        how = rng.randrange(4)
        if how == 0:
            gens[key] = gens[key].scale(rng.choice([-ONE, TWO, I]))
        elif how == 1:
            gens[key] = gens[rng.choice(keys)]
        elif how == 2:
            gens[key] = gens[key].transpose()
        else:
            cols = [dict(col) for col in gens[key].cols]
            row, col = rng.randrange(dim), rng.randrange(dim)
            entry = cols[col].get(row, ZERO) + ONE
            if entry:
                cols[col][row] = entry
            else:
                del cols[col][row]
            gens[key] = Matrix.from_sparse(cols, dim)
    return gens


_TAMPER_MODULES = {
    "steinberg-A3": lambda: steinberg_module(AlgebraParams("A", 3, Scalar(Fraction(2, 3)))),
    "steinberg-B2": lambda: steinberg_module(AlgebraParams(
        "B", 2, ONE, k_short=HALF, N=forced_n_constant(AlgebraParams("B", 2, ONE, k_short=HALF)))),
    "steinberg-D3": lambda: steinberg_module(AlgebraParams(
        "D", 3, ONE, N=forced_n_constant(AlgebraParams("D", 3, ONE)))),
    "induced-2,1": lambda: induced_module(Partition((2, 1)), ONE),
    "induced-3,1": lambda: induced_module(Partition((3, 1)), Scalar(Fraction(-1, 2))),
}


@pytest.mark.parametrize("which", list(_TAMPER_MODULES))
def test_two_sided_relation_check_matches_summed_check(which):
    good = _TAMPER_MODULES[which]()
    assert _summed_relation_failures(good) == []
    rng = random.Random(which)
    broken = 0
    for _ in range(6):
        gens = _tampered(good.gens, rng, good.dim)
        module = ModuleRep(good.params, good.kind, good.parity, gens, lam=good.lam, check=False)
        expected = _summed_relation_failures(module)
        got = [name for name in check_module_relations(module)["failures"]
               if not name.startswith("parity_")]
        assert got == expected
        broken += bool(expected)
    assert broken  # the tampering is seen at least once


def test_minimal_coset_reps():
    reps = minimal_coset_reps(Partition((2, 1)))
    assert len(reps) == 3
    assert reps[0].is_identity()
    reps4 = minimal_coset_reps(Partition((3, 1)))
    assert len(reps4) == 4


def _brute_force_coset_reps(lam: Partition) -> list[tuple[int, ...]]:
    """Shortest window per coset w S_lambda by a search over all of S_n."""

    def inversions(window):
        return sum(window[a] > window[b] for a in range(len(window)) for b in range(a + 1, len(window)))

    best: dict[tuple, tuple[int, ...]] = {}
    for window in itertools.permutations(range(1, lam.n + 1)):
        key = tuple(frozenset(window[start - 1 : stop]) for start, stop in lam.blocks())
        if key not in best or (inversions(window), window) < (inversions(best[key]), best[key]):
            best[key] = window
    return sorted(best.values(), key=lambda window: (inversions(window), window))


@pytest.mark.parametrize("n", range(1, 7))
def test_minimal_coset_reps_match_search_over_sn(n):
    for lam in all_partitions(n):
        assert [w.images for w in minimal_coset_reps(lam)] == _brute_force_coset_reps(lam)


def test_coset_factor_splits_every_permutation():
    lam = Partition((2, 1, 1))
    builder = _InducedBuilder(lam, ONE)
    blocks = lam.blocks()
    for window in itertools.permutations(range(1, lam.n + 1)):
        w = SignedPerm(window)
        t, u = builder.coset_factor(w)
        assert builder.reps[t] * u == w
        # u lies in S_lambda: it maps every block of positions onto itself.
        assert all(start <= u.image(i) <= stop for start, stop in blocks for i in range(start, stop + 1))


@pytest.mark.parametrize(
    "parts,expected",
    [((2,), 4), ((1, 1), 8), ((2, 1), 24), ((3,), 8), ((4,), 16)],
)
def test_induced_dimensions(parts, expected):
    module = induced_module(Partition(parts), ONE)
    assert module.dim == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_induced_of_full_partition_matches_steinberg(n):
    # The type-A Steinberg module is X_(n), pinned by the same digests.
    for k in ("1", "-1/2", "2/3"):
        st = steinberg_module(AlgebraParams("A", n, Scalar(Fraction(k))))
        assert (st.kind, st.lam, st.dim) == ("steinberg", Partition((n,)), 2**n)
        assert _gens_sha256(st) == _INDUCED_GENS_SHA256[(n,), k]


def test_act_matrix_is_algebra_map():
    rng = random.Random(71)
    p2 = AlgebraParams("A", 2, ONE)
    st = steinberg_module(p2)
    for _ in range(100):
        a = random_element(p2, rng, max_deg=1, max_terms=2)
        b = random_element(p2, rng, max_deg=1, max_terms=2)
        assert st.act(multiply(p2, a, b)) == st.act(a) * st.act(b)
    module = induced_module(Partition((1, 1)), ONE)
    for _ in range(30):
        a = random_element(p2, rng, max_deg=1, max_terms=2)
        b = random_element(p2, rng, max_deg=1, max_terms=2)
        assert module.act(multiply(p2, a, b)) == module.act(a) * module.act(b)


# sha256 of the generator matrices of X_lambda, taken before the block-wise
# builder; those of (1,), (2,), (4,) and (5,) were taken from the type-A
# Steinberg module while it was still built apart from X_(n).  See
# _gens_sha256 for the text they are the digest of.
_INDUCED_GENS_SHA256 = {
    ((1,), "1"): "63c6ae595e219103505b8af9484230fee6503d80649c3bebcb89b9bf22b13cb4",
    ((1,), "-1/2"): "63c6ae595e219103505b8af9484230fee6503d80649c3bebcb89b9bf22b13cb4",
    ((1,), "2/3"): "63c6ae595e219103505b8af9484230fee6503d80649c3bebcb89b9bf22b13cb4",
    ((2,), "1"): "5b6b47ec3fea25315904c6d2255b1949de2f2508372e5c37e4766102f876d2e1",
    ((2,), "-1/2"): "bbf7d05552fe11c85b89f0fd6a3ae6ad3c10468a680818bd69d2f2d4c251091c",
    ((2,), "2/3"): "f23d674cd1d280900ddb246fd4ebfb1db8dccc8d84d6feafbfa1442e0ea2da45",
    ((3,), "1"): "19f0c59082f759f8dc2c917d541bd75cb95f7298ea2bb7aa30064520f4219202",
    ((3,), "-1/2"): "c0095aa2cfe85dd0a6a5edf6a6d3888cbcab7bda08045bead652bceb74a950fd",
    ((3,), "2/3"): "8e4e495081004ed87ce21c28893b2b19ea1fe691733b478029025e0de8578e8c",
    ((4,), "1"): "d71a6f7a7bc7257a89d16a64385f8dea7b82d9c6e92edd7b61d33b3f87597f54",
    ((4,), "-1/2"): "49f0d09b3edc18ab4e7e64b7e89b2b7415956c38b28d9622b953832d0d4b79f9",
    ((4,), "2/3"): "1b0ba04a895bdc4774f1f438ee6b9666fd7ceb80e8e7b895aa3883c5f0a9a5ad",
    ((5,), "1"): "ad6fd990883274d779621eaca3a67885088baf734d9b69e93c0261dc76f57466",
    ((5,), "-1/2"): "e9b46435b31c8af8c7b14b6a7de7b80ab8aeaadfb1b06989171072f7e2fb032f",
    ((5,), "2/3"): "034443ce4fea17504538839e19efd9d40fc3bafa3e1c5dc0cb451d62c382e3a0",
    ((2, 1), "1"): "23f4796c6b4fabd1162a9de51f8822f86b4f765063d4d994ab22142533ff7818",
    ((2, 1), "-1/2"): "3a378928d677148c6ffbfe89f2e91ba441dd6113bf8a24da985a2258476ecf93",
    ((2, 1), "2/3"): "1a40e808961c50952bbb2583fec68c1bbe089b9caa6854338f5eface16b008b0",
    ((3, 1), "1"): "1d228b2505527c4d1a10492485aab255a56c86cfa47859e51b86f588ef5bed88",
    ((3, 1), "-1/2"): "d2e93c7d629b63d159e980f1700be40406c4259249febed9c0ebb51deaf606cc",
    ((3, 1), "2/3"): "bcae0527ecce38859365bc7394ea7d04a92090550f421bd485a3270d29921ee1",
    ((2, 2), "1"): "6571022a50d3adbd32162154ec73247db09ae4f27cad0e898c0ad5d0dad0b2b6",
    ((2, 2), "-1/2"): "c03b308e13a5bd11b449b346c79f0a5ba9ca4c19a6ad80600d080182aa2ae610",
    ((2, 2), "2/3"): "fc7903b42f8199ec1f8b0ee1324189cfbe23e362181df297cc00a6525c7fe6a5",
    ((2, 1, 1), "1"): "9f4f061ff9030c737a47e04a26509a99d0550612acd8a65ee161423338af65d3",
    ((2, 1, 1), "-1/2"): "cb5e75eb8f3f9f2aead6dec9524583291b9af5858b5fbb4b8f6f9ed47f866fd0",
    ((2, 1, 1), "2/3"): "5ba6c2a452fec40634f6a04db06f67c9a54cc1f8860e61a61dd9b8c8ede5d052",
}


def _gens_sha256(module: ModuleRep) -> str:
    """One line per generator, sorted by name: its (row, column, compact entry) triples, sorted."""
    lines = []
    for name in sorted(module.gens):
        cols = module.gens[name].cols
        entries = sorted((r, c, v.compact()) for c, col in enumerate(cols) for r, v in col.items())
        lines.append(name + ":" + ";".join(f"{r},{c},{v}" for r, c, v in entries))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "parts,k", [pytest.param(*key, id=f"{key[0]}-{key[1]}") for key in _INDUCED_GENS_SHA256]
)
def test_induced_generator_matrices_are_pinned(parts, k):
    # The relations pass for many wrong matrices; the digests pin every entry.
    module = induced_module(Partition(parts), Scalar(Fraction(k)))
    assert _gens_sha256(module) == _INDUCED_GENS_SHA256[parts, k]


def test_seg_acts_by_monomial_matrices():
    # c_i, s_i and every pi(w) are signed permutations on the bases of X_lambda
    # and of the type-A Steinberg module, so products with them re-index.
    for module in [induced_module(Partition((3, 1)), HALF), induced_module(Partition((2, 1)), ONE),
                   steinberg_module(AlgebraParams("A", 4, TWO))]:
        for name, mat in module.gens.items():
            assert (mat.monomial() is not None) == (not name.startswith("x")), name
        for w in module.ctx.elements():
            module.group_matrix(w)
        assert len(module._group_cache) == len(module.ctx.elements())
        assert all(mat.monomial() is not None for mat in module._group_cache.values())
    # x_i of X_(3,1) mixes basis vectors, and so does s_2 of the type-B Steinberg module.
    b3 = _forced_steinberg("B", 3, HALF)
    assert b3.gens["s2"].monomial() is None
    # The builder takes x-degree at most 1.
    builder = _InducedBuilder(Partition((2, 1)), ONE)
    x1 = builder.alg.x(1)
    with pytest.raises(ValueError):
        builder.generator_matrix(builder.alg.multiply(x1, x1))


@pytest.mark.parametrize("parts", [(2, 1), (3, 1), (2, 1, 1)])
def test_builder_agrees_with_act_in_x_degree_one(parts):
    # Generators reach only words x_i w; random elements also bring x_i c^h w
    # with c_i in c^h, and corrections c^h corr with c^h != 1.
    lam = Partition(parts)
    builder = _InducedBuilder(lam, HALF)
    module = induced_module(lam, HALF)
    rng = random.Random(str(parts))
    for _ in range(8):
        elem = random_element(module.params, rng, max_deg=1, max_terms=3)
        assert builder.generator_matrix(elem) == module.act(elem)


def test_act_identity_and_params_mismatch():
    module = induced_module(Partition((2,)), ONE)
    alg = algebra_for(module.params)
    assert module.act(alg.one()) == Matrix.identity(module.dim)
    other = algebra_for(AlgebraParams("A", 3, ONE)).one()
    with pytest.raises(ValueError):
        module.act(other)


def test_block_x_squared_on_slice():
    # pi(x_i^2) on the 1 (x) St slice is k^2 (j-1) j for local position j.
    k = Scalar(Fraction(1, 2))
    module = induced_module(Partition((2, 1)), k)
    cl_dim = 1 << 3
    expected = [ZERO, k * k * 2, ZERO]
    for i in range(1, 4):
        sq = module.gens[f"x{i}"] * module.gens[f"x{i}"]
        for col in range(cl_dim):
            column = sq.column(col)
            for row, entry in enumerate(column):
                if row == col:
                    assert entry == expected[i - 1]
                else:
                    assert not entry, "x_i^2 leaks off the St slice"


def test_steinberg_x_squared_eigenvalues():
    # On St_A(n) = X_(n), x_i^2 = k^2 (i-1) i identically.
    p = AlgebraParams("A", 3, TWO)
    st = steinberg_module(p)
    for i in range(1, 4):
        sq = st.gens[f"x{i}"] * st.gens[f"x{i}"]
        assert sq.scalar_value() == TWO * TWO * (i - 1) * i


def test_module_summary():
    module = induced_module(Partition((2,)), ONE)
    summary = module.summary()
    assert summary["lambda"] == "2"
    assert summary["dim"] == 4
    assert summary["type"] == "A"


def _forced_steinberg(typ, n, k_short):
    base = AlgebraParams(typ, n, ONE, k_short=k_short)
    return steinberg_module(AlgebraParams(typ, n, ONE, k_short, forced_n_constant(base)))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: induced_module(Partition((2, 1)), ONE), id="induced-2,1"),
        pytest.param(lambda: induced_module(Partition((2, 1, 1)), HALF), id="induced-2,1,1"),
        pytest.param(lambda: induced_module(Partition((3, 1)), ONE), id="induced-3,1"),
        pytest.param(lambda: _forced_steinberg("B", 3, HALF), id="steinberg-B3"),
        pytest.param(lambda: _forced_steinberg("D", 4, ZERO), id="steinberg-D4"),
    ],
)
def test_act_is_algebra_map_on_group_parts(build):
    # Products of random elements whose group parts lie in a Weyl group with
    # at least two simple reflections pin the order of pi(w) against the
    # engine's product, which the Seg-stability argument of H_D relies on.
    module = build()
    params = module.params
    rng = random.Random(73)
    for _ in range(12):
        a = random_element(params, rng, max_deg=1, max_terms=2)
        b = random_element(params, rng, max_deg=1, max_terms=2)
        assert module.act(multiply(params, a, b)) == module.act(a) * module.act(b)
