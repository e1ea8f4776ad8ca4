"""Exact linear algebra over the scalar field, on sparse columns.

A matrix is stored by columns, each a {row: nonzero} dict with no zero
stored, and every operation walks the stored entries only: a product forms
column j of AB as the sum of B[k, j] * A[:, k].  Sums run through
`add_scaled`, which adds or subtracts without a product when the factor is
the singleton ONE or MINUS_ONE (the common case: signed permutation
matrices and relation coefficients +-1).  `Matrix.sum_of_products` forms a
sum of coef * F1 ... Fk with the last factor applied straight into the sum,
so a whole word's product is never stored.

A matrix is monomial when it has exactly one nonzero sigma_k in each
column k, and the rows p(k) of those nonzeros are pairwise distinct: signed
permutation matrices are, and so are their rescalings by other nonzero
entries.  A matrix finds out once, lazily, whether it is monomial, and
keeps the answer.  A monomial left factor of a product, or a monomial
multiplied-out prefix of a word, is applied by re-indexing: a column
{k: b} of the other factor becomes {p(k): sigma_k b}, with no product when
sigma_k is ONE or MINUS_ONE, so a product costs one new column per column
instead of one `add_scaled` per entry.  The distinct rows are what keep
this exact: two entries moved to the same row would have to be added up,
and re-indexing would keep only one of them.

Subspaces keep sparse basis vectors in reduced column echelon form (pivot
rows strictly increasing, pivot entries 1, zeros above and below every
pivot), which makes membership, intersection and quotient computations
deterministic and exact.  That form is unique for a subspace, so a kernel
or intersection does not depend on which spanning vectors the eliminator
finds.

`sparse_kernel` is the package's one null-space routine: column elimination
on {row: nonzero} dicts of `Scalar`s, used by `Subspace.kernel`,
`Subspace.intersect` and `centers.minimal_polynomial`.  Vectors are {index: nonzero} dicts throughout; the
only dense views are those of `Matrix`.
"""

from __future__ import annotations

import bisect
import functools
import operator

from .scalars import MINUS_ONE, ONE, UNITS, ZERO, Scalar

Vector = tuple[Scalar, ...]


class Matrix:
    """An immutable exact matrix over Q(i, sqrt2), stored by sparse columns.

    `cols[j]` maps each row of a nonzero entry of column j to that entry;
    no zero is ever stored.  `Matrix(rows)`, `rows`, `column` and `columns`
    are dense views for literals and tests; the arithmetic never uses them.
    `_monomial` caches `monomial()`: None until first asked, then False or (p, sigma).
    """

    __slots__ = ("cols", "nrows", "ncols", "_monomial")

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.nrows = len(rows)
        self.ncols = ncols
        self.cols = [{} for _ in range(ncols)]
        self._monomial = None
        for i, row in enumerate(rows):
            for col, a in zip(self.cols, row):
                if a:
                    col[i] = a

    @classmethod
    def from_sparse(cls, cols: list[dict], nrows: int) -> Matrix:
        """The matrix with these {row: nonzero} columns, taken without a copy."""
        self = object.__new__(cls)
        self.cols = cols
        self.nrows = nrows
        self.ncols = len(cols)
        self._monomial = None
        return self

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls.from_sparse([{j: ONE} for j in range(n)], n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> Matrix:
        return cls.from_sparse([{} for _ in range(ncols)], nrows)

    @classmethod
    def sum_of_products(cls, terms, nrows: int, ncols: int) -> Matrix:
        """The sum of coef * F1 ... Fk over the (coef, [F1, ..., Fk]) pairs of terms.

        F1 ... F(k-1) is multiplied out, and Fk is applied to it column by
        column straight into the sum, so the product of a whole word is
        never stored; a one-factor word adds coef * F1 directly.  A coef
        equal to +-1 is replaced by the singleton once, so `add_scaled`
        adds or subtracts it without products.  A
        monomial prefix re-indexes each column of Fk, which is then added
        at once.  An empty word stands for the identity.
        """
        cols = [{} for _ in range(ncols)]
        for coef, factors in terms:
            if not coef:
                continue
            if coef is not ONE and coef is not MINUS_ONE:
                coef = UNITS.get(coef, coef)
            *head, last = factors or (cls.identity(nrows),)
            if not head:
                for acc, col in zip(cols, last.cols):
                    add_scaled(acc, coef, col)
                continue
            prefix = functools.reduce(operator.mul, head)
            monomial = prefix.monomial()
            if monomial is not None:
                for acc, col in zip(cols, last.cols):
                    add_scaled(acc, coef, _reindex(monomial, col))
                continue
            for acc, col in zip(cols, last.cols):
                for k, a in col.items():
                    add_scaled(acc, a if coef is ONE else coef * a, prefix.cols[k])
        return cls.from_sparse(cols, nrows)

    @property
    def rows(self) -> tuple[Vector, ...]:
        return tuple(zip(*self.columns())) if self.ncols else ((),) * self.nrows

    def column(self, j: int) -> Vector:
        return dense(self.cols[j], self.nrows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def __add__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix.sum_of_products(((ONE, [self]), (ONE, [other])), self.nrows, self.ncols)

    def __sub__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix.sum_of_products(((ONE, [self]), (MINUS_ONE, [other])), self.nrows, self.ncols)

    def __neg__(self) -> Matrix:
        return self.scale(MINUS_ONE)

    def scale(self, scalar: Scalar) -> Matrix:
        return Matrix.sum_of_products(((scalar, [self]),), self.nrows, self.ncols)

    def __mul__(self, other: Matrix) -> Matrix:
        """Column j of the product is the sum of B[k, j] * A[:, k]."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return Matrix.from_sparse([self.apply(col) for col in other.cols], self.nrows)

    def monomial(self) -> tuple[list[int], list[Scalar]] | None:
        """(p, sigma) when this matrix is monomial, with column k = {p[k]: sigma[k]}, else None.

        Monomial: exactly one nonzero per column, and those nonzeros in
        pairwise distinct rows.  Found on the first call and cached.
        """
        found = self._monomial
        if found is None:
            found = False
            if all(len(col) == 1 for col in self.cols):
                rows = [next(iter(col)) for col in self.cols]
                if len(set(rows)) == self.ncols:
                    found = (rows, [col[row] for col, row in zip(self.cols, rows)])
            self._monomial = found
        return found or None

    def apply(self, vec: dict) -> dict:
        """The product with a sparse vector {index: nonzero}, as one; re-indexed when monomial."""
        monomial = self.monomial()
        if monomial is not None:
            return _reindex(monomial, vec)
        out: dict = {}
        for j, v in vec.items():
            add_scaled(out, v, self.cols[j])
        return out

    def matvec(self, vec) -> Vector:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        return dense(self.apply(sparse(vec)), self.nrows)

    def transpose(self) -> Matrix:
        cols = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, a in col.items():
                cols[i][j] = a
        return Matrix.from_sparse(cols, self.ncols)

    def conj_transpose(self) -> Matrix:
        cols = [{i: a.conjugate() for i, a in col.items()} for col in self.transpose().cols]
        return Matrix.from_sparse(cols, self.ncols)

    def is_zero(self) -> bool:
        return not any(self.cols)

    def trace(self) -> Scalar:
        """The sum of the diagonal entries; for a signed permutation, its signed fixed points."""
        return sum((col.get(j, ZERO) for j, col in enumerate(self.cols)), ZERO)

    def scalar_value(self) -> Scalar | None:
        """The scalar s when this matrix is s * identity, else None."""
        if self.nrows != self.ncols or self.nrows == 0:
            return None
        s = self.cols[0].get(0, ZERO)
        for j, col in enumerate(self.cols):
            if col != ({j: s} if s else {}):
                return None
        return s

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.cols) == (other.nrows, other.ncols, other.cols)

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(frozenset(col.items()) for col in self.cols)))

    def _same_shape(self, other: Matrix) -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"<Matrix {self.nrows}x{self.ncols}>"


def sparse(vec) -> dict:
    """A dense vector as {index: nonzero}."""
    return {i: v for i, v in enumerate(vec) if v}


def dense(vec: dict, n: int) -> Vector:
    """A sparse vector {index: nonzero} as a dense tuple of length n."""
    out = [ZERO] * n
    for i, v in vec.items():
        out[i] = v
    return tuple(out)


def _reindex(monomial: tuple[list[int], list[Scalar]], vec: dict) -> dict:
    """The monomial matrix (p, sigma) times vec: entry k moves to row p[k], times sigma[k]."""
    rows, sigmas = monomial
    out = {}
    for k, b in vec.items():
        sigma = sigmas[k]
        out[rows[k]] = b if sigma is ONE else -b if sigma is MINUS_ONE else sigma * b
    return out


def sparse_kernel(columns: list[dict]) -> list[dict]:
    """Null-space combinations of sparse columns {row: nonzero}.

    Each column is reduced against the pivot columns before it, always at
    its lowest nonzero row, while the combination of input columns it has
    become is tracked; a column that reduces to zero gives a kernel vector.
    Each pivot is inverted once, when it is stored.
    """
    pivots: dict[int, tuple[dict, dict, Scalar]] = {}
    kernel = []
    for j, column in enumerate(columns):
        cur = dict(column)
        combo = {j: ONE}
        while cur:
            row = min(cur)
            hit = pivots.get(row)
            if hit is None:
                pivots[row] = (cur, combo, -cur[row].inverse())
                break
            pcol, pcombo, neg_inv = hit
            factor = cur[row] * neg_inv
            add_scaled(cur, factor, pcol)
            add_scaled(combo, factor, pcombo)
        else:
            kernel.append(combo)
    return kernel


def add_scaled(target: dict, factor: Scalar, source: dict) -> None:
    """target += factor * source for a nonzero factor, dropping the entries that cancel.

    The factors ONE and MINUS_ONE, recognised by identity, add or subtract
    the entries without a product, and an empty target takes a copy.  Any
    other factor, a +-1 that is not the singleton included, multiplies.
    """
    if not target:
        if factor is ONE:
            target.update(source)
        elif factor is MINUS_ONE:
            target.update({key: -val for key, val in source.items()})
        else:
            target.update({key: factor * val for key, val in source.items()})
    elif factor is ONE:
        for key, val in source.items():
            prev = target.get(key)
            if prev is None:
                target[key] = val
            else:
                new = prev + val
                if new:
                    target[key] = new
                else:
                    del target[key]
    elif factor is MINUS_ONE:
        for key, val in source.items():
            prev = target.get(key)
            if prev is None:
                target[key] = -val
            else:
                new = prev - val
                if new:
                    target[key] = new
                else:
                    del target[key]
    else:
        for key, val in source.items():
            prev = target.get(key)
            if prev is None:
                target[key] = factor * val
            else:
                new = prev + factor * val
                if new:
                    target[key] = new
                else:
                    del target[key]


class Subspace:
    """A subspace of Scalar^ambient in reduced column echelon form.

    The basis is kept as sparse {index: nonzero} dicts in `vectors`, with
    pivot rows in `pivots`, and every vector passed in is such a dict.
    """

    __slots__ = ("ambient", "vectors", "pivots")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.vectors: list[dict] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def _residual(self, vec: dict) -> tuple[dict, dict]:
        """vec reduced against the basis, plus its coordinates {basis index: nonzero}."""
        res = dict(vec)
        coords = {}
        for t, (bvec, p) in enumerate(zip(self.vectors, self.pivots)):
            c = res.get(p)
            if c is not None:
                coords[t] = c
                add_scaled(res, -c, bvec)
        return res, coords

    def coords(self, vec: dict) -> dict:
        """The coordinates {basis index: nonzero} of a vector in this space."""
        res, coords = self._residual(vec)
        if res:
            raise ValueError("vector not in subspace")
        return coords

    @classmethod
    def spanned_by(cls, vectors, ambient: int) -> Subspace:
        """The span of sparse vectors {index: nonzero}, each reduced in turn."""
        space = cls(ambient)
        for vec in vectors:
            res, _ = space._residual(vec)
            if not res:
                continue
            p = min(res)
            inv = res[p].inverse()
            new = {i: r * inv for i, r in res.items()}
            for bvec in space.vectors:
                c = bvec.get(p)
                if c is not None:
                    add_scaled(bvec, -c, new)
            at = bisect.bisect(space.pivots, p)
            space.vectors.insert(at, new)
            space.pivots.insert(at, p)
        return space

    @classmethod
    def image(cls, matrix: Matrix) -> Subspace:
        return cls.spanned_by(matrix.cols, matrix.nrows)

    @classmethod
    def kernel(cls, matrix: Matrix) -> Subspace:
        """Exact null space by sparse column elimination."""
        return cls.spanned_by(sparse_kernel(matrix.cols), matrix.ncols)

    def contains(self, vec: dict) -> bool:
        return not self._residual(vec)[0]

    def intersect(self, other: Subspace) -> Subspace:
        """Intersection from the null-space combinations of both bases."""
        if self.ambient != other.ambient:
            raise ValueError("dimension mismatch")
        if not self.vectors or not other.vectors:
            return Subspace(self.ambient)
        vectors = []
        for combo in sparse_kernel(self.vectors + other.vectors):
            vec: dict = {}
            for j, coef in combo.items():
                if j < self.dim:
                    add_scaled(vec, coef, self.vectors[j])
            vectors.append(vec)
        return Subspace.spanned_by(vectors, self.ambient)

    def is_invariant(self, matrix: Matrix) -> bool:
        return all(not self._residual(matrix.apply(vec))[0] for vec in self.vectors)

    def eigenvalue(self, matrix: Matrix) -> Scalar | None:
        """The scalar by which matrix acts on this nonzero space, else None.

        The value is read at the first pivot, where the first basis vector
        has entry 1, and then checked exactly on every basis vector.
        """
        if not self.vectors:
            return None
        value = matrix.apply(self.vectors[0]).get(self.pivots[0], ZERO)
        for vec in self.vectors:
            scaled = {i: value * a for i, a in vec.items()} if value else {}
            if matrix.apply(vec) != scaled:
                return None
        return value

    def __repr__(self):
        return f"<Subspace dim {self.dim} of {self.ambient}>"


def quotient_matrix(matrix: Matrix, space: Subspace, sub: Subspace) -> Matrix:
    """Induced action on space/sub for an operator preserving both.

    The basis vectors of `space` off the pivots of `sub` (in `space`
    coordinates) stand for the cosets.
    """
    if not space.is_invariant(matrix) or not sub.is_invariant(matrix):
        raise ValueError("operator does not preserve the filtration")
    inner = Subspace.spanned_by([space.coords(vec) for vec in sub.vectors], space.dim)
    rep_idx = [i for i in range(space.dim) if i not in inner.pivots]
    cols = []
    for i in rep_idx:
        residual, _ = inner._residual(space.coords(matrix.apply(space.vectors[i])))
        cols.append({r: residual[j] for r, j in enumerate(rep_idx) if j in residual})
    return Matrix.from_sparse(cols, len(rep_idx))
