"""Exact linear algebra over the scalar field.

Matrices are immutable row tuples of Scalars; subspaces are kept in reduced
column echelon form (pivot rows strictly increasing, pivot entries 1, zeros
above and below every pivot), which makes membership, intersection and
quotient computations deterministic and exact.  That form is unique for a
subspace, so a kernel or intersection does not depend on which spanning
vectors the eliminator finds.

`sparse_kernel` is the package's one null-space routine: column elimination
on {row: nonzero} dicts over any exact field, used by `Subspace.kernel`,
`Subspace.intersect` and the rational even-center computation in `centers`.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar

Vector = tuple[Scalar, ...]


class Matrix:
    """An immutable exact matrix over Q(i, sqrt2)."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> Matrix:
        return cls([[ZERO] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, cols, nrows: int) -> Matrix:
        return cls([[col[i] for col in cols] for i in range(nrows)])

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.ncols)]

    def __add__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix(
            [
                [(a + b if a else b) if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix(
            [
                [(a - b if a else -b) if b else a for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __neg__(self) -> Matrix:
        return Matrix([[-a if a else a for a in row] for row in self.rows])

    def scale(self, scalar: Scalar) -> Matrix:
        if not scalar:
            return Matrix.zeros(self.nrows, self.ncols)
        return Matrix([[a * scalar if a else a for a in row] for row in self.rows])

    def __mul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = [[ZERO] * other.ncols for _ in range(self.nrows)]
        for i, arow in enumerate(self.rows):
            orow = out[i]
            for k, aik in enumerate(arow):
                if not aik:
                    continue
                brow = other.rows[k]
                for j, bkj in enumerate(brow):
                    if bkj:
                        orow[j] = orow[j] + aik * bkj
        return Matrix(out)

    def matvec(self, vec) -> Vector:
        if len(vec) != self.ncols:
            raise ValueError("shape mismatch")
        out = [ZERO] * self.nrows
        for i, row in enumerate(self.rows):
            acc = ZERO
            for a, v in zip(row, vec):
                if a and v:
                    acc = acc + a * v
            out[i] = acc
        return tuple(out)

    def transpose(self) -> Matrix:
        return Matrix(list(zip(*self.rows))) if self.rows else Matrix([])

    def conj_transpose(self) -> Matrix:
        return Matrix([[a.conjugate() for a in col] for col in zip(*self.rows)])

    def trace(self) -> Scalar:
        return sum((self.rows[i][i] for i in range(min(self.nrows, self.ncols))), ZERO)

    def is_zero(self) -> bool:
        return all(not a for row in self.rows for a in row)

    def scalar_value(self) -> Scalar | None:
        """The scalar s when this matrix is s * identity, else None."""
        if self.nrows != self.ncols or self.nrows == 0:
            return None
        s = self.rows[0][0]
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if (a != s) if i == j else bool(a):
                    return None
        return s

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def _same_shape(self, other: Matrix) -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"<Matrix {self.nrows}x{self.ncols}>"


def sparse_kernel(columns: list[dict], one) -> list[dict]:
    """Null-space combinations of sparse columns {row: nonzero}.

    Each column is reduced against the pivot columns before it, always at
    its lowest nonzero row, while the combination of input columns it has
    become is tracked; a column that reduces to zero gives a kernel vector.
    Entries may come from any exact field: `one` is its unit (ONE for
    Scalar, Fraction(1) for rationals), and no other constant is built.
    """
    pivots: dict[int, tuple[dict, dict]] = {}
    kernel = []
    for j, column in enumerate(columns):
        cur = dict(column)
        combo = {j: one}
        while cur:
            row = min(cur)
            hit = pivots.get(row)
            if hit is None:
                pivots[row] = (cur, combo)
                break
            pcol, pcombo = hit
            factor = cur[row] / pcol[row]
            _sub_scaled(cur, factor, pcol)
            _sub_scaled(combo, factor, pcombo)
        else:
            kernel.append(combo)
    return kernel


def _sub_scaled(target: dict, factor, source: dict) -> None:
    """target -= factor * source, dropping the entries that cancel."""
    for key, val in source.items():
        if key in target:
            new = target[key] - factor * val
            if new:
                target[key] = new
            else:
                del target[key]
        else:
            target[key] = -(factor * val)


def _first_nonzero(vec) -> int | None:
    for i, v in enumerate(vec):
        if v:
            return i
    return None


class Subspace:
    """A subspace of Scalar^ambient in reduced column echelon form."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.basis: list[Vector] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _reduce(self, vec) -> tuple[list[Scalar], list[Scalar]]:
        """Residual of vec against the basis, plus the coordinates used."""
        res = list(vec)
        coords = []
        for bvec, p in zip(self.basis, self.pivots):
            c = res[p]
            coords.append(c)
            if c:
                res = [r - c * b for r, b in zip(res, bvec)]
        return res, coords

    def add_vector(self, vec) -> bool:
        """Insert a vector; returns True when it enlarged the space."""
        if len(vec) != self.ambient:
            raise ValueError("dimension mismatch")
        res, _ = self._reduce(vec)
        p = _first_nonzero(res)
        if p is None:
            return False
        inv = res[p].inverse()
        new = tuple(r * inv for r in res)
        self.basis = [
            tuple(b - bvec_p * nv for b, nv in zip(bvec, new)) if (bvec_p := bvec[p]) else bvec
            for bvec in self.basis
        ]
        at = sum(1 for q in self.pivots if q < p)
        self.basis.insert(at, new)
        self.pivots.insert(at, p)
        return True

    @classmethod
    def from_vectors(cls, vectors, ambient: int) -> Subspace:
        space = cls(ambient)
        for vec in vectors:
            space.add_vector(vec)
        return space

    @classmethod
    def full(cls, ambient: int) -> Subspace:
        return cls.from_vectors(Matrix.identity(ambient).columns(), ambient)

    @classmethod
    def image(cls, matrix: Matrix) -> Subspace:
        return cls.from_vectors(matrix.columns(), matrix.nrows)

    @classmethod
    def kernel(cls, matrix: Matrix) -> Subspace:
        """Exact null space by sparse column elimination."""
        columns = [{i: a for i, a in enumerate(col) if a} for col in matrix.columns()]
        vectors = []
        for combo in sparse_kernel(columns, ONE):
            vec = [ZERO] * matrix.ncols
            for j, coef in combo.items():
                vec[j] = coef
            vectors.append(tuple(vec))
        return cls.from_vectors(vectors, matrix.ncols)

    def contains(self, vec) -> bool:
        res, _ = self._reduce(vec)
        return _first_nonzero(res) is None

    def coords(self, vec) -> list[Scalar]:
        res, coords = self._reduce(vec)
        if _first_nonzero(res) is not None:
            raise ValueError("vector not in subspace")
        return coords

    def contains_subspace(self, other: Subspace) -> bool:
        return all(self.contains(b) for b in other.basis)

    def intersect(self, other: Subspace) -> Subspace:
        """Intersection from the null-space combinations of both bases."""
        if self.ambient != other.ambient:
            raise ValueError("dimension mismatch")
        if not self.basis or not other.basis:
            return Subspace(self.ambient)
        columns = [{i: a for i, a in enumerate(b) if a} for b in self.basis + other.basis]
        vectors = []
        for combo in sparse_kernel(columns, ONE):
            vec = [ZERO] * self.ambient
            for j, coef in combo.items():
                if j < self.dim:
                    vec = [v + coef * b if b else v for v, b in zip(vec, self.basis[j])]
            vectors.append(tuple(vec))
        return Subspace.from_vectors(vectors, self.ambient)

    def is_invariant(self, matrix: Matrix) -> bool:
        return all(self.contains(matrix.matvec(b)) for b in self.basis)

    def restricted_matrix(self, matrix: Matrix) -> Matrix:
        """The action of an invariant operator in this basis."""
        cols = [self.coords(matrix.matvec(b)) for b in self.basis]
        return Matrix.from_columns(cols, self.dim)

    def to_matrix(self) -> Matrix:
        return Matrix.from_columns([list(b) for b in self.basis], self.ambient)

    def __repr__(self):
        return f"<Subspace dim {self.dim} of {self.ambient}>"


def quotient_dim(space: Subspace, sub: Subspace) -> int:
    if not space.contains_subspace(sub):
        raise ValueError("not a subspace")
    return space.dim - sub.dim


def quotient_matrix(matrix: Matrix, space: Subspace, sub: Subspace) -> tuple[Matrix, list[int]]:
    """Induced action on space/sub for an operator preserving both.

    Returns the quotient matrix together with the indices of the basis
    vectors of `space` chosen as coset representatives.
    """
    if not space.is_invariant(matrix) or not sub.is_invariant(matrix):
        raise ValueError("operator does not preserve the filtration")
    inner = Subspace.from_vectors([space.coords(b) for b in sub.basis], space.dim)
    rep_idx = [i for i in range(space.dim) if i not in inner.pivots]
    cols = []
    for i in rep_idx:
        img = space.coords(matrix.matvec(space.basis[i]))
        residual, _ = inner._reduce(img)
        cols.append([residual[j] for j in rep_idx])
    return Matrix.from_columns(cols, len(rep_idx)), rep_idx
