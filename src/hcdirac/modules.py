"""Finite-dimensional modules with exact generator matrices.

Contents: the Steinberg-type modules for types B and D (built on the
Jordan-Wigner Clifford matrices), the induced modules X_lambda of type A,
of which the type-A Steinberg module is X_(n), matrix realisation of
arbitrary algebra elements, and a relation checker that verifies the
relations of `engine.generating_relations` as matrix identities.  Those
are the relations on the generators x1, c1 and the simple reflections,
which imply all the others in every type.  A `ModuleRep` holds only its
data and generator matrices.  `ModuleRep.relations` is the checker's list
of failing relation names, empty on a certified module; it is computed on
first use, once, and no constructor runs it, so each caller reads it where
it reports it.  `ModuleRep.seg_forest`, cached alike for the life of the
module, is the forest of the basis under the unitary monomial pi(c_i) and
pi(s_i) along which `cohomology` reads Seg-equivariant elements: about dim
entries, small beside the generator matrices.  Once the relations pass, pi
is an algebra homomorphism: `act` realises each PBW monomial as the product
of its generator matrices, so an identity proved in the engine, such as
g D = +-D g for the Seg generators g, holds for the realised matrices with
no matrix computed.

Generator matrices are keyed by the engine's generator names: x1..xn,
c1..cn and the simple reflections under RootSystemCtx.simple_names (s1..s(n-1),
then sn in type B or sd in type D).  A relation word of
`engine.defining_relations` is a tuple of those names, so the checker
multiplies `module.gens[name]` along it, and the induced module builds one
matrix per entry of `Algebra.generators`.

Every matrix is built directly in the sparse column form of
`linalg.Matrix`: generator columns are assembled from {index: nonzero}
vectors, and realisations and relation sums add up stored entries only.  A
realisation is one `Matrix.sum_of_products` over its words, and a relation
coef0 * w0 + sum(rest) = 0 is two, compared as coef0 * w0 = -sum(rest):
each column of a word's last factor is carried through the factors before
it, so no product of two generator matrices is stored.  A group element w
is the word s_i1 ... s_il of its left descents, s_i1 the least left
descent of w and the rest the word of s_i1 w, read off the window with no
enumeration of the group: the same kind of word the checker multiplies.
No pi(w) is kept, and `act_columns` carries only the columns it reads
through the word, once per distinct w of the element within one call:
monomials that share w, such as the two Clifford terms of a twisted
reflection, share the carried columns.

The Steinberg modules of types B and D live on U(n) (x) U(n), with U(n)
the Jordan-Wigner module of the Clifford algebra; the c_i act on the
second factor, which is the slow tensor index.

The induced module X_lambda = H (x)_{H_lambda} St_lambda has the basis
w_t (x) c^mask, with w_t the minimal coset representatives and c^mask the
Clifford monomials spanning St_lambda, and it is built one column block per
w_t.  For a generator g, the product g w_t is straightened once in the
engine.  On this basis every Seg word c^h w acts by a signed permutation:
with w = w_t' u, u in S_lambda, and c^h w_t' = +-w_t' c^eps, it sends
1 (x) v to +-w_t' (x) c^eps pi(u) v, one block of row block t'.  A word
x_i c^h w of x-degree 1 equals +-c^h (w x_j + corr), where j = w^{-1}(i)
and corr has x-degree 0; it adds the block of c^h w times x_j on
St_lambda, and the blocks of the words of c^h corr, multiplied once per
word and w_t rather than once per basis vector.  x_j on St_lambda is the
Jucys-Murphy element of S_lambda (`centers.jucys_murphy`), summed over the
same blocks.  Generators have x-degree at most 1, and the builder refuses
anything of higher degree.
"""

from __future__ import annotations

import collections
import functools
import itertools

from .centers import jucys_murphy
from .engine import (
    AlgebraParams,
    AlgElem,
    PbwMonomial,
    algebra_for,
    cliff_mul,
    generating_relations,
    perm_on_cliff,
)
from .linalg import Matrix
from .partitions import Partition
from .scalars import HALF_SQRT2, I, MINUS_ONE, ONE, SQRT2, TWO, ZERO, Scalar
from .weyl import SignedPerm


class ModuleRep:
    """A representation given by exact generator matrices plus parities."""

    def __init__(
        self,
        params: AlgebraParams,
        kind: str,
        parity: list[int],
        gens: dict[str, Matrix],
        lam: Partition | None = None,
    ):
        self.params = params
        self.kind = kind
        self.parity = tuple(parity)
        self.gens = dict(gens)
        self.lam = lam
        self.dim = len(parity)
        self.ctx = algebra_for(params).ctx

    @functools.cached_property
    def relations(self) -> list[str]:
        """The failures of `check_module_relations`, run on first use."""
        return check_module_relations(self)

    @functools.cached_property
    def seg_forest(self) -> tuple[list[int], dict[int, tuple[int, str]], list[str]]:
        """(roots, steps, names): the breadth-first forest of the basis under the unitary pi(g).

        g runs over c1..cn, then the simple reflections, when pi(g) is
        monomial with entries of modulus 1.  Each orbit is searched from its
        least index, its root, trying every g in order at each index; steps
        maps every other index a to the (j, g) with pi(g) e_j = sigma e_a that
        reached it, and names lists the g of the steps in order of first use.
        """
        names = [f"c{i}" for i in range(1, self.params.n + 1)] + self.ctx.simple_names
        moves = [(name, mono[0]) for name in names
                 if (mono := self.gens[name].monomial())
                 and all(s is ONE or s is MINUS_ONE or s * s.conjugate() == ONE for s in mono[1])]
        roots, steps = [], {}
        for root in range(self.dim):
            if root not in steps:
                roots.append(root)
                orbit = [root]
                for j in orbit:  # the loop reaches what it appends
                    for name, rows in moves:
                        if (a := rows[j]) != root and a not in steps:
                            steps[a] = (j, name)
                            orbit.append(a)
        return roots, steps, list(dict.fromkeys(name for _, name in steps.values()))

    def certify_relations(self) -> None:
        """Raise unless every checked relation holds."""
        if self.relations:
            raise AssertionError(f"module relations fail: {self.relations}")

    # -- matrix realisation ----------------------------------------------

    def _descent_word(self, w: SignedPerm) -> list[Matrix]:
        """The generator matrices of s_i1 ... s_il = w, in order.

        s_i1 is the least left descent of w and s_i2 ... s_il the word of
        s_i1 w (`RootSystemCtx.left_descent` reads each off the window).
        """
        ctx, word = self.ctx, []
        while (idx := ctx.left_descent(w)) is not None:
            word.append(self.gens[ctx.simple_names[idx]])
            w = ctx.simple_reflections[idx] * w
        return word

    def act(self, elem: AlgElem) -> Matrix:
        """pi(elem) as an exact dim x dim matrix, one fused sum over its monomials."""
        return self.act_columns(elem, self.dim)

    def act_columns(self, elem: AlgElem, ncols: int) -> Matrix:
        """The first ncols columns of pi(elem), a dim x ncols matrix.

        One `Matrix.sum_of_products` over the generator words
        x^exps c^cliff s_i1 ... s_il of elem's monomials, which carries only
        the first ncols columns of each word's last factor through it: on
        the 2^n columns of the first block of X_lambda this is a small part
        of `act`.  The monomials are grouped by w: when several share w,
        the first ncols columns of pi(w) are carried through w's descent
        word once, and each of those monomials starts from them.
        """
        if elem.params != self.params:
            raise ValueError("params mismatch")
        tails = {}
        for w, count in collections.Counter(mono.w for mono in elem.terms).items():
            word = self._descent_word(w)
            if count > 1 and len(word) > 1:
                word = [Matrix.sum_of_products(((ONE, word),), self.dim, ncols)]
            tails[w] = word
        terms = ((coef, self._head_factors(mono) + tails[mono.w]) for mono, coef in elem.terms.items())
        return Matrix.sum_of_products(terms, self.dim, ncols)

    def _head_factors(self, mono: PbwMonomial) -> list[Matrix]:
        """The generator matrices of x^exps c^cliff, in order."""
        n, gens = self.params.n, self.gens
        factors = [gens[f"x{i}"] for i in range(1, n + 1) for _ in range(mono.exps[i - 1])]
        return factors + [gens[f"c{i}"] for i in range(1, n + 1) if mono.cliff & (1 << (i - 1))]

    def summary(self) -> dict:
        out = {
            "kind": self.kind,
            "dim": self.dim,
            "type": self.params.type,
            "n": self.params.n,
            "k_long": self.params.k_long.compact(),
            "k_short": self.params.k_short.compact(),
            "N": self.params.N.compact(),
        }
        if self.lam is not None:
            out["lambda"] = str(self.lam)
        return out

    def __repr__(self):
        return f"<ModuleRep {self.kind} dim {self.dim}>"


# ---------------------------------------------------------------------------
# Relation checking (direct matrix arithmetic; independent of the engine's
# straightening, so engine and modules certify each other).


def check_module_relations(module: ModuleRep) -> list[str]:
    """Check `generating_relations` as exact matrix identities, and the parities.

    Returns the names of the failures, empty when every one holds.

    In type A the generating relations imply every defining relation (see
    `engine.generating_relations`); in types B and D they are all of them.
    A relation coef0 * w0 + sum(rest) = 0 is checked as the two-sided
    identity coef0 * w0 = -sum(rest), each side one `sum_of_products`, so
    no entry is added only to cancel; the comparison is exact because
    neither side stores a zero.
    """
    failures = []
    dim = module.dim
    for name, ((coef0, word0), *rest) in generating_relations(module.params):
        lhs = Matrix.sum_of_products([(coef0, [module.gens[gen] for gen in word0])], dim, dim)
        words = ((-coef, [module.gens[gen] for gen in word]) for coef, word in rest)
        if lhs != Matrix.sum_of_products(words, dim, dim):
            failures.append(name)
    # Structural check: c-generators are odd maps, everything else even.
    parity = module.parity
    for key, mat in module.gens.items():
        flip = 1 if key.startswith("c") else 0
        if any(parity[r] != parity[c] ^ flip for c, col in enumerate(mat.cols) for r in col):
            failures.append(f"parity_{key}")
    return failures


# ---------------------------------------------------------------------------
# Jordan-Wigner Clifford matrices, the building blocks of U(n) (x) U(n).


def _pauli() -> tuple[Matrix, Matrix, Matrix, Matrix]:
    sx = Matrix([[ZERO, ONE], [ONE, ZERO]])
    sy = Matrix([[ZERO, -I], [I, ZERO]])
    sz = Matrix([[ONE, ZERO], [ZERO, -ONE]])
    id2 = Matrix.identity(2)
    return sx, sy, sz, id2


def _kron(a: Matrix, b: Matrix) -> Matrix:
    cols = [
        {i * b.nrows + k: x * y for i, x in acol.items() for k, y in bcol.items()}
        for acol in a.cols
        for bcol in b.cols
    ]
    return Matrix.from_sparse(cols, a.nrows * b.nrows)


def clifford_c_matrices(n: int) -> tuple[list[Matrix], list[int]]:
    """Jordan-Wigner matrices for c_1..c_n with c_i^2 = -1, plus parities."""
    sx, sy, sz, id2 = _pauli()
    qubits = (n + 1) // 2
    cs = []
    for j in range(1, n + 1):
        t = (j + 1) // 2
        factors = [sz] * (t - 1) + [sx if j % 2 else sy] + [id2] * (qubits - t)
        mat = factors[0]
        for f in factors[1:]:
            mat = _kron(mat, f)
        cs.append(mat.scale(I))
    parity = [bin(b).count("1") & 1 for b in range(1 << qubits)]
    return cs, parity


# ---------------------------------------------------------------------------
# Steinberg-type modules.


def forced_n_constant(params: AlgebraParams) -> Scalar:
    """The N value for which the Steinberg module of type B/D exists."""
    base = TWO * (params.n - 1) * params.k_long * params.k_long
    if params.type == "B":
        return base + SQRT2 * params.k_long * params.k_short
    return base


def _graded_pair_op(p_mat: Matrix, q_mat: Matrix, parity_u: list[int], coef: Scalar) -> Matrix:
    """coef * (-1)^{deg u} (P u) (x) (Q v): the columns of P at odd u are negated.

    u (x) v has index v * dim U + u: the second factor, on which the c_i
    act, is the slow index, so the first dim U basis vectors meet every
    orbit of the pi(c_i).
    """
    twisted = [
        {p2: (-coef if odd else coef) * a for p2, a in col.items()}
        for odd, col in zip(parity_u, p_mat.cols)
    ]
    return _kron(q_mat, Matrix.from_sparse(twisted, p_mat.nrows))


def _steinberg_b_ambient(params: AlgebraParams) -> tuple[dict[str, Matrix], list[int]]:
    """Generator matrices of the type-B Steinberg action on U(n) (x) U(n),
    and the parities of the basis of U(n)."""
    n = params.n
    cs, parity_u = clifford_c_matrices(n)
    du = len(parity_u)
    id_u = Matrix.identity(du)
    gens: dict[str, Matrix] = {}
    for i in range(1, n + 1):
        a_i = Matrix.zeros(du, du)
        for t in range(1, i):
            a_i = a_i + cs[t - 1].scale(params.k_long)
        a_i = a_i + cs[i - 1].scale(params.k_long * (n - i) + HALF_SQRT2 * params.k_short)
        gens[f"x{i}"] = _graded_pair_op(a_i, cs[i - 1], parity_u, -I)
        gens[f"c{i}"] = _graded_pair_op(id_u, cs[i - 1], parity_u, ONE)
    b_mats = [(cs[t - 1] - cs[t]).scale(HALF_SQRT2) for t in range(1, n)] + [cs[n - 1]]
    for name, b in zip(algebra_for(params).push_ctx.simple_names, b_mats, strict=True):
        gens[name] = _graded_pair_op(b, b, parity_u, I)
    return gens, parity_u


def steinberg_module(params: AlgebraParams) -> ModuleRep:
    """The Steinberg-type module: X_(n) in type A; for B/D the N parameter is forced."""
    if params.type == "A":
        return _build_induced(Partition((params.n,)), params.k_long, "steinberg")
    if params.N != forced_n_constant(params):
        raise ValueError(
            f"type {params.type} Steinberg module requires N = "
            f"{forced_n_constant(params).compact()}, got {params.N.compact()}"
        )
    gens, parity_u = _steinberg_b_ambient(params)
    du = len(parity_u)
    parity = [(parity_u[p] + parity_u[q]) & 1 for p in range(du) for q in range(du)]
    if params.type == "D":
        # W(D_n) keeps s_1..s_{n-1} of W(B_n) and trades s_n for the fork
        # s_{n-1,-n} = s_n s_{n-1} s_n, which D_1 lacks.
        alg = algebra_for(params)
        b_names = alg.push_ctx.simple_names
        sn = gens.pop(b_names[-1])
        if params.n >= 2:
            gens[alg.ctx.simple_names[-1]] = sn * gens[b_names[-2]] * sn
    return ModuleRep(params, "steinberg", parity, gens)


# ---------------------------------------------------------------------------
# Induced modules X_lambda (type A).


def _coset_key(w: SignedPerm, blocks) -> tuple[frozenset[int], ...]:
    """The images of the position blocks under w, equal exactly on a coset w S_lambda."""
    return tuple(frozenset(w.image(i) for i in range(start, stop + 1)) for start, stop in blocks)


def _inversions(window: tuple[int, ...]) -> int:
    """The length of a permutation in S_n: the number of its inversions."""
    return sum(a > b for i, a in enumerate(window) for b in window[i + 1 :])


def minimal_coset_reps(lam: Partition) -> list[SignedPerm]:
    """Length-minimal representatives of S_n / S_lambda, by (length, window).

    The shortest element of a coset w S_lambda is the one whose window is
    increasing on every block of positions, so the representatives are the
    shuffles of 1..n into blocks of sizes lambda, built without enumerating
    S_n.
    """
    windows: list[tuple[int, ...]] = [()]
    for part in lam.parts:
        windows = [
            window + chosen
            for window in windows
            for chosen in itertools.combinations(
                [v for v in range(1, lam.n + 1) if v not in window], part
            )
        ]
    windows.sort(key=lambda window: (_inversions(window), window))
    return [SignedPerm(window) for window in windows]


class _InducedBuilder:
    """Scratch state for building the generator matrices of X_lambda block by block."""

    def __init__(self, lam: Partition, k: Scalar):
        self.n = lam.n
        self.params = AlgebraParams("A", self.n, k)
        self.alg = algebra_for(self.params)
        self.cl_dim = 1 << self.n
        self.reps = minimal_coset_reps(lam)
        self.dim = len(self.reps) * self.cl_dim
        self.zero_exps = (0,) * self.n
        self.identity = SignedPerm.identity(self.n)
        self.blocks = lam.blocks()
        self.coset_of = {_coset_key(rep, self.blocks): t for t, rep in enumerate(self.reps)}
        self._factor_cache: dict[SignedPerm, tuple[int, SignedPerm]] = {}
        self._block_cache: dict[tuple[int, SignedPerm], Matrix] = {}
        self._push_cache: dict[tuple[int, SignedPerm], tuple[int, AlgElem]] = {}
        # x_i on St_lambda is the Jucys-Murphy element of S_lambda.  Its words
        # lie in S_lambda, the coset of reps[0] = 1, so their blocks fill row
        # block 0 only, which is St_lambda itself.
        assert self.reps[0].is_identity()
        self.st_x = []
        for start, stop in self.blocks:
            for i in range(start, stop + 1):
                jm = jucys_murphy(self.n, i, k, start)
                terms = [(coef, [self.seg_block(mono.cliff, mono.w)]) for mono, coef in jm.terms.items()]
                self.st_x.append(Matrix.sum_of_products(terms, self.cl_dim, self.cl_dim))

    def coset_factor(self, w: SignedPerm) -> tuple[int, SignedPerm]:
        """(t, u) with w = w_t * u and u in S_lambda, read off the coset key."""
        cached = self._factor_cache.get(w)
        if cached is None:
            t = self.coset_of[_coset_key(w, self.blocks)]
            cached = self._factor_cache[w] = (t, self.reps[t].inverse() * w)
        return cached

    def seg_block(self, cliff: int, w: SignedPerm) -> Matrix:
        """c^cliff w on the slice 1 (x) St_lambda, a dim x cl_dim signed permutation.

        With w = w_t u and c^cliff w_t = sign * w_t c^eps, the vector 1 (x) v
        goes to sign * w_t (x) c^eps pi(u) v in row block t, where pi(u)
        permutes the Clifford monomials with signs and c^eps multiplies them
        from the left.
        """
        key = (cliff, w)
        cached = self._block_cache.get(key)
        if cached is None:
            t, u = self.coset_factor(w)
            sign, eps = perm_on_cliff(self.reps[t].inverse(), cliff)
            cols = []
            for mask in range(self.cl_dim):
                s1, m1 = perm_on_cliff(u, mask)
                s2, m2 = cliff_mul(eps, m1)
                cols.append({t * self.cl_dim + m2: ONE if sign * s1 * s2 > 0 else -ONE})
            cached = self._block_cache[key] = Matrix.from_sparse(cols, self.dim)
        return cached

    def push_x(self, i: int, w: SignedPerm) -> tuple[int, AlgElem]:
        """x_i w = w x_j + corr with j = w^{-1}(i) and corr of x-degree 0."""
        key = (i, w)
        cached = self._push_cache.get(key)
        if cached is None:
            j = w.inverse().image(i)
            w_elem = self.alg.w(w)
            corr = self.alg.sum_of_products(
                ((ONE, [self.alg.x(i), w_elem]), (MINUS_ONE, [w_elem, self.alg.x(j)])))
            cached = self._push_cache[key] = (j, corr)
        return cached

    def generator_matrix(self, elem: AlgElem) -> Matrix:
        """pi(elem) for an element of x-degree at most 1, one column block per w_t.

        elem w_t is straightened once.  A word c^h w of it adds the block
        `seg_block(h, w)`; a word x_i c^h w = +-c^h (w x_j + corr) adds
        `seg_block(h, w)` times x_j on St_lambda, and the words of c^h corr.
        """
        if elem.x_degree() > 1:
            raise ValueError("the induced-module builder takes elements of x-degree at most 1")
        cols = []
        for rep in self.reps:
            terms = []
            for mono, coef in self.alg.multiply(elem, self.alg.w(rep)).terms.items():
                if not mono.x_degree():
                    terms.append((coef, [self.seg_block(mono.cliff, mono.w)]))
                    continue
                i = mono.exps.index(1) + 1
                if mono.cliff & (1 << (i - 1)):  # x_i c_i = -c_i x_i
                    coef = -coef
                j, corr = self.push_x(i, mono.w)
                terms.append((coef, [self.seg_block(mono.cliff, mono.w), self.st_x[j - 1]]))
                if not corr.is_zero():
                    head = AlgElem(self.params, {PbwMonomial(self.zero_exps, mono.cliff, self.identity): ONE})
                    for word, c in self.alg.multiply(head, corr).terms.items():
                        terms.append((coef * c, [self.seg_block(word.cliff, word.w)]))
            cols += Matrix.sum_of_products(terms, self.dim, self.cl_dim).cols
        return Matrix.from_sparse(cols, self.dim)


def _build_induced(lam: Partition, k: Scalar, kind: str) -> ModuleRep:
    """X_lambda, labelled kind.

    Type-A `steinberg_module` calls this, not `induced_module`, so a wrapper
    of either public name sees only its own builds.
    """
    builder = _InducedBuilder(lam, k)
    gens = {name: builder.generator_matrix(elem) for name, elem in builder.alg.generators.items()}
    parity = [mask.bit_count() & 1 for _ in builder.reps for mask in range(builder.cl_dim)]
    return ModuleRep(builder.params, kind, parity, gens, lam=lam)


def induced_module(lam: Partition, k: Scalar) -> ModuleRep:
    """X_lambda on the basis {minimal coset rep} x {Clifford monomials}."""
    return _build_induced(lam, k, "induced")
