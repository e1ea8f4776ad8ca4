"""Exact matrix and echelon-subspace machinery."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hcdirac.linalg import (
    Matrix,
    Subspace,
    add_scaled,
    dense,
    quotient_matrix,
    sparse,
    sparse_kernel,
)
from hcdirac.scalars import HALF, I, MINUS_ONE, ONE, SQRT2, TWO, ZERO, Scalar


def rand_matrix(rng, nrows, ncols, density=0.6):
    rows = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            if rng.random() < density:
                row.append(Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
            else:
                row.append(ZERO)
        rows.append(row)
    return Matrix(rows)


def test_matrix_basics():
    a = Matrix([[ONE, SQRT2], [ZERO, I]])
    assert a.transpose().rows[0] == (ONE, ZERO)
    assert a.conj_transpose().rows[1] == (SQRT2, -I)
    assert (a - a).is_zero()
    assert Matrix.identity(2).scalar_value() == ONE
    assert Matrix.identity(2).scale(SQRT2).scalar_value() == SQRT2
    assert a.scalar_value() is None


def test_matvec_and_mul_agree():
    rng = random.Random(3)
    a = rand_matrix(rng, 4, 5)
    b = rand_matrix(rng, 5, 3)
    prod = a * b
    for j in range(3):
        assert prod.column(j) == a.matvec(b.column(j))


def test_rank_nullity_random():
    rng = random.Random(8)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), density=0.5)
        ker = Subspace.kernel(m)
        im = Subspace.image(m)
        assert ker.dim + im.dim == m.ncols
        for vec in ker.vectors:
            assert not m.apply(vec)


def test_kernel_with_irrational_pivots():
    # Every entry is a nonzero multiple of sqrt2, i, i*sqrt2, 1+sqrt2 or 1-i.
    rng = random.Random(21)
    units = [SQRT2, I, SQRT2 * I, ONE + SQRT2, ONE - I]
    for _ in range(6):
        rows = [
            [rng.choice(units) * Scalar(rng.randint(1, 3)) if rng.random() < 0.6 else ZERO
             for _ in range(5)]
            for _ in range(3)
        ]
        # a fourth row in the span of the first two must cancel exactly
        rows.append([SQRT2 * a + I * b for a, b in zip(rows[0], rows[1])])
        m = Matrix(rows)
        ker = Subspace.kernel(m)
        assert ker.dim + Subspace.image(m).dim == m.ncols
        for vec in ker.vectors:
            assert not m.apply(vec)


def test_sparse_kernel_over_fractions():
    # Columns c0, c1, c2 = c0 + 2 c1, c3 = c1 / 2 in Q^3, as {row: value} dicts.
    columns = [{0: ONE, 2: Scalar(3)}, {1: TWO}, {0: ONE, 1: Scalar(4), 2: Scalar(3)}, {1: ONE}]
    kernel = sparse_kernel(columns)
    assert len(kernel) == 2
    for combo in kernel:
        assert all(isinstance(v, Scalar) and v for v in combo.values())
        for row in range(3):
            assert sum((c * columns[j].get(row, ZERO) for j, c in combo.items()), ZERO) == ZERO
    assert kernel == [{2: ONE, 0: -ONE, 1: -TWO}, {3: ONE, 1: -HALF}]


def test_kernel_edge_cases():
    z = Matrix.zeros(3, 3)
    assert Subspace.kernel(z).dim == 3
    assert Subspace.kernel(Matrix.identity(4)).dim == 0


def test_echelon_form_is_reduced():
    rng = random.Random(4)
    vs = [rand_matrix(rng, 6, 1).cols[0] for _ in range(5)]
    space = Subspace.spanned_by(vs, 6)
    assert space.pivots == sorted(space.pivots)
    for bvec, p in zip(space.vectors, space.pivots):
        assert bvec[p] == ONE
        for other, q in zip(space.vectors, space.pivots):
            if q != p:
                assert p not in other


def test_membership_and_coords():
    v1 = (ONE, ZERO, SQRT2)
    v2 = (ZERO, ONE, I)
    space = Subspace.spanned_by([sparse(v1), sparse(v2)], 3)
    combo = tuple(a + b * SQRT2 for a, b in zip(v1, v2))
    assert space.contains(sparse(combo))
    coords = space.coords(sparse(combo))
    rebuilt = [ZERO] * 3
    for t, c in coords.items():
        rebuilt = [r + c * x for r, x in zip(rebuilt, dense(space.vectors[t], 3))]
    assert tuple(rebuilt) == combo
    assert not space.contains(sparse((ONE, ONE, ZERO)))
    with pytest.raises(ValueError):
        space.coords(sparse((ONE, ONE, ZERO)))


def test_intersection_against_brute_force():
    rng = random.Random(12)
    for _ in range(10):
        a = Subspace.spanned_by([rand_matrix(rng, 5, 1).cols[0] for _ in range(2)], 5)
        b_vecs = [rand_matrix(rng, 5, 1).cols[0] for _ in range(2)]
        # force an overlap
        if a.vectors:
            b_vecs.append(a.vectors[0])
        b = Subspace.spanned_by(b_vecs, 5)
        inter = a.intersect(b)
        for vec in inter.vectors:
            assert a.contains(vec) and b.contains(vec)
        assert inter.dim >= max(0, a.dim + b.dim - 5)
        if a.vectors:
            assert inter.contains(a.vectors[0]) or not b.contains(a.vectors[0])


def test_quotient_dim_and_matrix():
    space = Subspace.spanned_by(Matrix.identity(3).cols, 3)
    sub = Subspace.spanned_by([sparse((ONE, ZERO, ZERO))], 3)
    # a diagonal operator descends with the remaining eigenvalues
    m = Matrix([[ONE, ZERO, ZERO], [ZERO, SQRT2, ZERO], [ZERO, ZERO, SQRT2]])
    q = quotient_matrix(m, space, sub)
    assert q.nrows == space.dim - sub.dim == 2
    assert q.scalar_value() == SQRT2
    # e1 -> e1 + e2 leaves the line through e1, so nothing descends
    shear = Matrix([[ONE, ZERO, ZERO], [ONE, ONE, ZERO], [ZERO, ZERO, ONE]])
    with pytest.raises(ValueError):
        quotient_matrix(shear, space, sub)


def test_invariance_and_restriction():
    m = Matrix([[ONE, ONE], [ZERO, ONE]])
    line = Subspace.spanned_by([sparse((ONE, ZERO))], 2)
    assert line.is_invariant(m)
    assert line.eigenvalue(m) == ONE
    other = Subspace.spanned_by([sparse((ZERO, ONE))], 2)
    assert not other.is_invariant(m)


def test_explicit_zero_is_not_stored():
    m = Matrix([[ZERO]])
    assert m == Matrix.zeros(1, 1)
    assert m.cols == [{}]
    assert Matrix([[ONE, ZERO], [ZERO, ONE]]) == Matrix.identity(2)


def test_equal_matrices_hash_equal():
    a = Matrix([[ONE, SQRT2], [ZERO, I]])
    doubled = a + a
    assert doubled == a.scale(Scalar(2))
    assert hash(doubled) == hash(a.scale(Scalar(2)))
    assert hash(a - a) == hash(Matrix.zeros(2, 2))
    assert hash(Matrix([[ONE, ZERO], [ZERO, ONE]])) == hash(Matrix.identity(2))
    assert len({a, Matrix(a.rows), a * Matrix.identity(2)}) == 1


def _rand_irrational(rng, nrows, ncols, zero_share=0.7):
    units = [SQRT2, I, SQRT2 * I, ONE]
    return [
        [ZERO if rng.random() < zero_share else rng.choice(units) * Scalar(rng.randint(-3, 3) or 1)
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _dense_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_sparse_operations_match_dense_reference():
    rng = random.Random(31)
    for _ in range(20):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, a2, b = _rand_irrational(rng, n, k), _rand_irrational(rng, n, k), _rand_irrational(rng, k, m)
        vec = [row[0] for row in _rand_irrational(rng, k, 1)]
        A, A2, B = Matrix(a), Matrix(a2), Matrix(b)
        assert (A * B).rows == tuple(map(tuple, _dense_mul(a, b)))
        assert (A + A2).rows == tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, a2))
        assert (A - A2).rows == tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, a2))
        assert A.matvec(vec) == tuple(sum((x * v for x, v in zip(r, vec)), ZERO) for r in a)
        assert A.transpose().rows == tuple(zip(*a))
        assert A.conj_transpose().rows == tuple(tuple(x.conjugate() for x in col) for col in zip(*a))
        assert all(v for col in (A * B).cols + (A - A2).cols for v in col.values())
    # Monomial left factors, re-indexed, and their one-entry-per-column
    # look-alikes with a repeated row, which must add up.
    for k in [0, 1, 1, 2, 3, 4, 5, 6, 6]:
        m = rng.randint(0, 4)
        B = Matrix.from_sparse([sparse(col) for col in _rand_irrational(rng, m, k, zero_share=0.4)], k)
        lefts = [_monomial(rng, k, k), _monomial(rng, k + rng.randint(1, 2), k), _signed_perm(rng, k)]
        lefts += [_repeated_row(rng, k)] if k >= 2 else []
        for j, A in enumerate(lefts):
            assert (A.monomial() is not None) == (j < 3)
            assert (A * B).rows == _dense_product(A, B)
            assert _no_zero_stored((A * B).cols)
            vec = [ZERO if rng.random() < 0.3 else rng.choice(_ENTRIES) for _ in range(k)]
            assert A.matvec(vec) == tuple(sum((x * v for x, v in zip(r, vec)), ZERO) for r in A.rows)
    # One entry per column in a repeated row: [[1, 1], [0, 0]] [[1], [1]] = [[2], [0]].
    repeated = Matrix([[ONE, ONE], [ZERO, ZERO]])
    assert repeated.monomial() is None
    assert (repeated * Matrix([[ONE], [ONE]])).rows == ((TWO,), (ZERO,))


def test_dense_views_round_trip():
    rng = random.Random(32)
    for _ in range(10):
        a = Matrix(_rand_irrational(rng, rng.randint(1, 5), rng.randint(1, 5)))
        assert Matrix(a.rows) == a
        assert Matrix(list(zip(*a.columns()))) == a
        assert all(a.column(j) == tuple(row[j] for row in a.rows) for j in range(a.ncols))


def _jordan_block(n):
    return Matrix([[ONE if j == i + 1 else ZERO for j in range(n)] for i in range(n)])


def test_ker_cap_im_dimension_from_kernel_ranks():
    # dim(ker D cap im D) = dim ker D^2 - dim ker D for any square D.
    rng = random.Random(33)
    cases = [_jordan_block(n) for n in (1, 2, 4)]
    for _ in range(15):
        n = rng.randint(1, 6)
        rows = _rand_irrational(rng, n, n, zero_share=0.6)
        if rng.random() < 0.5:  # strictly upper triangular, hence nilpotent
            rows = [[x if j > i else ZERO for j, x in enumerate(r)] for i, r in enumerate(rows)]
        cases.append(Matrix(rows))
    seen_nonzero = False
    for m in cases:
        ker = Subspace.kernel(m)
        inter = ker.intersect(Subspace.image(m))
        assert inter.dim == Subspace.kernel(m * m).dim - ker.dim
        seen_nonzero |= inter.dim > 0
    assert seen_nonzero
    assert Subspace.kernel(_jordan_block(4)).intersect(Subspace.image(_jordan_block(4))).dim == 1


def test_skew_hermitian_kernel_meets_image_trivially():
    # A^dagger = -A gives ker A cap im A = 0 over Q(i, sqrt2), since the
    # standard form is anisotropic there; hence dim ker A^2 = dim ker A.
    rng = random.Random(34)
    entries = [ONE, -ONE, SQRT2, -SQRT2, I, -I, I * SQRT2, -(I * SQRT2), Scalar(Fraction(1, 2))]
    singular = gaps = 0
    for _ in range(30):
        n = rng.randint(4, 8)
        b = Matrix([[rng.choice(entries) if rng.random() < 0.2 else ZERO for _ in range(n)]
                    for _ in range(n)])
        a = b - b.conj_transpose()
        assert a.conj_transpose() == -a
        ker = Subspace.kernel(a)
        assert Subspace.kernel(a * a).dim == ker.dim
        assert ker.intersect(Subspace.image(a)).dim == 0
        singular += ker.dim > 0
        gaps += Subspace.kernel(b * b).dim > Subspace.kernel(b).dim  # B alone may fail it
    assert singular >= 10 and gaps >= 10


def test_subspace_eigenvalue():
    diag = Matrix([[TWO, ZERO, ZERO], [ZERO, TWO, ZERO], [ZERO, ZERO, SQRT2]])
    plane = Subspace.spanned_by([sparse((ONE, ZERO, ZERO)), sparse((ZERO, ONE, ZERO))], 3)
    assert plane.eigenvalue(diag) == TWO
    assert Subspace.spanned_by(Matrix.identity(3).cols, 3).eigenvalue(diag) is None  # diagonal but not scalar
    shift = Matrix([[ZERO, ZERO, ZERO], [ONE, ZERO, ZERO], [ZERO, ONE, ZERO]])
    assert plane.eigenvalue(shift) is None  # leaves the plane
    assert Subspace.spanned_by([sparse((ZERO, ZERO, ONE))], 3).eigenvalue(shift) == ZERO
    assert Subspace(3).eigenvalue(diag) is None


def test_eigenvalue_checks_every_row():
    # M e0 = 2 e0 + e1: the pivot row of span(e0) reads 2, but M leaves the span.
    m = Matrix([[TWO, ZERO], [ONE, ONE]])
    line = Subspace.spanned_by([{0: ONE}], 2)
    assert m.apply(line.vectors[0])[line.pivots[0]] == TWO
    assert line.eigenvalue(m) is None


# Entries for add_scaled and sum_of_products: the singletons +-1, a +-1 that
# no unit produced, and non-units.
_LOOSE_ONE = TWO * HALF
_ENTRIES = [ONE, MINUS_ONE, _LOOSE_ONE, -_LOOSE_ONE, TWO, HALF, SQRT2, I, -I * SQRT2]


def _rand_entries(rng, nrows, ncols, zero_share=0.5):
    return [[ZERO if rng.random() < zero_share else rng.choice(_ENTRIES) for _ in range(ncols)]
            for _ in range(nrows)]


def _signed_perm(rng, n):
    image = list(range(n))
    rng.shuffle(image)
    return Matrix.from_sparse([{image[j]: rng.choice([ONE, MINUS_ONE])} for j in range(n)], n)


# Entries of monomial matrices: units, non-units, and the non-singleton +-1.
_MONOMIAL_ENTRIES = [ONE, MINUS_ONE, TWO, I, -SQRT2, _LOOSE_ONE, -_LOOSE_ONE]


def _monomial(rng, nrows, ncols):
    """One nonzero per column, in distinct rows: a rescaled signed permutation when square."""
    rows = rng.sample(range(nrows), ncols)
    return Matrix.from_sparse([{row: rng.choice(_MONOMIAL_ENTRIES)} for row in rows], nrows)


def _repeated_row(rng, n):
    """One nonzero per column, but two columns share their row: not monomial."""
    rows = [rng.randrange(n) for _ in range(n)]
    rows[rng.randrange(1, n)] = rows[0]
    return Matrix.from_sparse([{row: rng.choice(_MONOMIAL_ENTRIES)} for row in rows], n)


def _dense_product(a, b):
    """The rows of a * b by dense arithmetic, for any shapes, empty ones included."""
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in b.columns())
                 for row in a.rows)


def _no_zero_stored(vectors):
    return all(v for vec in vectors for v in vec.values())


def test_add_scaled_matches_dense_reference():
    rng = random.Random(41)
    cancelled = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        factor = rng.choice(_ENTRIES)
        source = sparse(_rand_entries(rng, 1, n)[0])
        target = {} if rng.random() < 0.3 else sparse(_rand_entries(rng, 1, n)[0])
        if target:
            for key in rng.sample(sorted(source), len(source) // 2):
                target[key] = -(factor * source[key])  # these entries cancel exactly
        expected = tuple(t + factor * x for t, x in zip(dense(target, n), dense(source, n)))
        before = dict(source)
        add_scaled(target, factor, source)
        assert dense(target, n) == expected
        assert _no_zero_stored([target])
        assert source == before
        cancelled += sum(1 for key in source if key not in target)
    assert cancelled > 100


def test_sum_of_products_matches_dense_reference():
    rng = random.Random(42)
    cancelled = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        pool = [_signed_perm(rng, n) for _ in range(2)] + [Matrix(_rand_entries(rng, n, n))]
        # Monomial prefixes with non-unit entries, and a look-alike that is not one.
        pool += [_monomial(rng, n, n)] + ([_repeated_row(rng, n)] if n >= 2 else [])
        terms = []
        for _ in range(rng.randint(1, 4)):
            word = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
            coef = rng.choice(_ENTRIES + [ZERO])
            terms.append((coef, word))
            if rng.random() < 0.4:
                terms.append((-coef, word))  # cancels the term before it
        expected = [[ZERO] * n for _ in range(n)]
        for coef, word in terms:
            prod = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
            for f in word:
                prod = _dense_mul(prod, [list(r) for r in f.rows])
            expected = [[e + coef * p for e, p in zip(er, pr)] for er, pr in zip(expected, prod)]
        total = Matrix.sum_of_products(terms, n, n)
        assert total.rows == tuple(map(tuple, expected))
        assert _no_zero_stored(total.cols)
        cancelled += total.is_zero()
    assert cancelled > 5
    # Empty and 1x1 shapes, with a monomial prefix of two factors.
    for n in [0, 0, 1, 1, 1]:
        a, b, c = _monomial(rng, n, n), _monomial(rng, n, n), Matrix(_rand_entries(rng, n, n))
        coef = rng.choice(_ENTRIES)
        total = Matrix.sum_of_products([(coef, [a, b, c]), (ONE, [a])], n, n)
        abc = _dense_product(Matrix(_dense_product(a, b)), c)
        assert (total.nrows, total.ncols) == (n, n)
        assert total.rows == tuple(tuple(coef * x + y for x, y in zip(r, s)) for r, s in zip(abc, a.rows))


def test_trace_is_a_signed_fixed_point_count():
    # Columns 0 and 2 are fixed, with signs -1 and +1; 1 and 3 are swapped.
    perm = Matrix.from_sparse([{0: MINUS_ONE}, {3: ONE}, {2: ONE}, {1: ONE}], 4)
    assert perm.trace() == ZERO
    assert Matrix([[TWO, ONE], [ONE, I]]).trace() == TWO + I
    assert Matrix.identity(5).trace() == Scalar(5) and Matrix.zeros(0, 0).trace() == ZERO


def test_sum_of_products_takes_unit_coefficients_by_value(monkeypatch):
    # A +-1 that is not the singleton adds or subtracts without a product.
    a = Matrix([[TWO, HALF], [SQRT2, I]])
    b = Matrix([[ONE, ZERO], [I, -SQRT2]])
    assert _LOOSE_ONE is not ONE and -_LOOSE_ONE is not MINUS_ONE
    products = []
    real = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda x, y: products.append(1) or real(x, y))
    total = Matrix.sum_of_products([(_LOOSE_ONE, [a]), (-_LOOSE_ONE, [b])], 2, 2)
    count = len(products)
    monkeypatch.undo()
    assert count == 0
    assert total == a - b
