"""PBW normal-form engine for the Hecke-Clifford superalgebras of types A, B, D.

Elements are sparse linear combinations of basis words

    x_1^{m_1} ... x_n^{m_n} c_1^{e_1} ... c_n^{e_n} w

with scalar coefficients in Q(i, sqrt2).

Straightening strategy.  The Sergeev part Seg = Cl_n x| W acts on x and c by
signed permutations, so a product of basis words

    (x^a c^e w)(x^b c^f v)

needs real rewriting in two places only: T = w x^b, and x^a x^b1 for each
x^b1 of T (a plain exponent sum in type A).  The Clifford word c^e crosses
x^b1 with the sign (-1)^{sum_{i in e} b1_i}, and c^f v joins on the right
through u c^f = +-c^{u(f)} u and the group product uv.  Both rewritings act
on exponent vectors only (`_x_times_x`, and `_s_times_x` applied one left
descent of w at a time in `_w_times_x`).  A reflection crosses one
x-generator at a time, with a main term of the same x-degree plus corrections
of strictly smaller x-degree; type-B x-generators cross each other at the
cost of an N-weighted Clifford correction, again of smaller x-degree.  The
measure (x-degree, then remaining disorder) strictly decreases, so the
rewriting terminates; confluence is not assumed but tested through
associativity.

Memo tables and accumulation.  Inside an Algebra a basis word is one int,
its word code ((x << b) | u) << n | e: x the id of its exponent vector, u
the id of its group element, e its Clifford mask, and 2^b > |W| (W the
ambient group).  Ids are small ints given on first sight (`_xid`, `_uid`;
0 is x^0 and 1), and `_exps` and `_elements` list what they stand for.  A
structure constant is a signed id 2i + s, (-1)^s times `_consts[i]`, so
+-1 are 0 and 1 and no table holds a Scalar.  The tables, by ids: x^a x^b
as ((x, cliff, constant), ...) in one dict per a, s x^b on (simple index,
b), and w x^b in one dict per w, each entry one flat tuple read five items
a term (x, odd, cliff, u, constant), odd the mask of the odd entries of x.
w x^b has no entry for w = 1 or b = 0, which `_mono_product` writes down
directly.  The tables grow with the x-degrees met, w x^b by at most |W|
entries per b.  A new entry w x^b is one step s ((sw) x^b) from the entry
of the shorter sw, for the least left descent s of w.  The sign of c^e c^g
= +-c^(e xor g) is read from e's row of `_crows`, and u c^f = +-c^u(f) u
and uv from u's row of `_seg_rows`, a dict by mask and one by v.  Each row
is made on first use: at most 2^n Clifford rows of 2^n signs, and |W| Seg
rows of at most 2^n and |W| entries.  `_mono_product` forms scale times
each non-unit constant once per term pair and its negation at most once.
`Algebra.sum_of_products` is the one accumulation routine: it turns its
words into codes, builds the sum in one dict, the last product of each
word added term by term through `_mono_product`, and turns the codes back
into PbwMonomial words once, in insertion order.  `multiply` is its
two-factor word, and AlgElem's +, - and scale its one-factor words.
`algebra_for` keeps the engines, and so their tables, of the 8 parameter
sets used last.

Type D has no standalone engine: its elements live inside the type-B engine
with the short-root parameter frozen at zero, and only group elements with an
even number of sign flips are accepted as input.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cache, cached_property, lru_cache, partial, reduce
from math import factorial
from typing import NamedTuple

from .scalars import HALF, I, I_SQRT2, MINUS_ONE, ONE, SQRT2, TWO, UNITS, ZERO, Scalar
from .weyl import Root, RootSystemCtx, SignedPerm


# ---------------------------------------------------------------------------
# Clifford / signed-permutation sign bookkeeping (shared with the Sergeev
# machinery in centers.py).


@cache
def cliff_mul(mask1: int, mask2: int) -> tuple[int, int]:
    """Product c^mask1 * c^mask2 as (sign, mask); memoised for the process,
    over the 4^n mask pairs of the largest n it meets.  Each c_i of mask1
    passes the c_j of mask2 with j < i, and c_i^2 = -1."""
    flips = (mask1 & mask2).bit_count() + sum((mask2 & ((1 << i) - 1)).bit_count()
                                               for i in range(mask1.bit_length()) if mask1 >> i & 1)
    return -1 if flips & 1 else 1, mask1 ^ mask2


def perm_on_cliff(w: SignedPerm, mask: int) -> tuple[int, int]:
    """Push w left past c^mask: w c^mask = sign * c^new_mask * w.

    Uses w c_i = c_{w(i)} w, with c_{-j} read as -c_j.
    """
    flips = new_mask = 0
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            # A sign for c_{-j}, and one per image already placed above j.
            j = abs(w[i])
            flips += (w[i] < 0) + (new_mask >> j).bit_count()
            new_mask |= 1 << j - 1
    return -1 if flips & 1 else 1, new_mask


# ---------------------------------------------------------------------------
# Parameters and element containers.


class AlgebraParams(namedtuple("AlgebraParams", "type n k_long k_short N")):
    """Specialised parameters of one Hecke-Clifford algebra.

    Type A uses the single coupling k_long; types B and D add the
    x-noncommutativity constant N, and type B a short-root coupling.
    Type D is realised inside the ambient type-B engine with k_short = 0.
    """

    __slots__ = ()

    def __new__(cls, type: str, n: int, k_long: Scalar, k_short: Scalar = ZERO,
                N: Scalar = ZERO) -> AlgebraParams:
        if type not in ("A", "B", "D"):
            raise ValueError(f"unknown algebra type {type!r}")
        if n < 1:
            raise ValueError("rank must be at least 1")
        for name, value in (("k_long", k_long), ("k_short", k_short), ("N", N)):
            if not isinstance(value, Scalar):
                raise TypeError(f"{name} must be a Scalar")
        if type == "A" and (k_short or N):
            raise ValueError("type A admits only the single parameter k_long")
        if type == "D" and k_short:
            raise ValueError("type D forces k_short = 0")
        return super().__new__(cls, type, n, k_long, k_short, N)

    def k_for(self, root: Root) -> Scalar:
        return self.k_short if root.kind == "short" else self.k_long


class PbwMonomial(NamedTuple):
    """One basis word x^exps c^cliff w (cliff is a bitmask over 1..n)."""

    exps: tuple[int, ...]
    cliff: int
    w: SignedPerm

    def x_degree(self) -> int:
        return sum(self.exps)

    def parity(self) -> int:
        return self.cliff.bit_count() & 1

    def render(self, coef: Scalar) -> str:
        xs = [f"x{i}^{m}" if m > 1 else f"x{i}" for i, m in enumerate(self.exps, start=1) if m]
        cs = [f"c{i + 1}" for i in range(len(self.exps)) if self.cliff >> i & 1]
        return "*".join([f"({coef.compact()})", *xs, *cs, str(self.w)])


Terms = dict[PbwMonomial, Scalar]

# A PbwMonomial from a (exps, cliff, w) tuple, skipping the Python-level
# NamedTuple __new__ on the engine's hot path.
_new_mono = partial(tuple.__new__, PbwMonomial)


def _signed_product(neg: int, a: Scalar, b: Scalar) -> Scalar:
    """(-1)^neg * a * b, taking a factor +-1 (the singletons) by value."""
    if b is ONE or b is MINUS_ONE:
        a, b = b, a
    if a is ONE or a is MINUS_ONE:
        return -b if neg ^ (a is MINUS_ONE) else b
    product = a * b
    return -product if neg else product


def _add_term(terms: dict, key, coef: Scalar) -> None:
    old = terms.get(key)
    if old is None:
        terms[key] = coef
    elif new := old + coef:
        terms[key] = new
    else:
        del terms[key]


def _shift(exps: tuple[int, ...], i: int, delta: int) -> tuple[int, ...]:
    """exps with its i-th entry (1-based) moved by delta."""
    return exps[:i - 1] + (exps[i - 1] + delta,) + exps[i:]


class AlgElem:
    """A finite Scalar-linear combination of PBW basis words.

    `terms` is kept as given, without a copy, and must store no zero
    coefficient: every constructor in the package builds it zero-free.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: AlgebraParams, terms: Terms | None = None):
        self.params = params
        self.terms: Terms = {} if terms is None else terms

    def is_zero(self) -> bool:
        return not self.terms

    def x_degree(self) -> int:
        return max((m.x_degree() for m in self.terms), default=0)

    def is_seg(self) -> bool:
        """True when supported on x-degree-zero words (the Seg(W) part)."""
        return all(m.x_degree() == 0 for m in self.terms)

    def sorted_terms(self) -> list[tuple[PbwMonomial, Scalar]]:
        # A word is the tuple (exps, cliff, w), so words sort as tuples.
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __add__(self, other: AlgElem) -> AlgElem:
        return algebra_for(self.params).sum_of_products(((ONE, [self]), (ONE, [other])))

    def __sub__(self, other: AlgElem) -> AlgElem:
        return algebra_for(self.params).sum_of_products(((ONE, [self]), (MINUS_ONE, [other])))

    def __neg__(self) -> AlgElem:
        return self.scale(MINUS_ONE)

    def scale(self, scalar: Scalar) -> AlgElem:
        return algebra_for(self.params).sum_of_products(((scalar, [self]),))

    def __mul__(self, other):
        if isinstance(other, AlgElem):
            return algebra_for(self.params).multiply(self, other)
        coerced = Scalar._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.scale(coerced)

    __rmul__ = __mul__  # scalars are central

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgElem):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(mono.render(coef) for mono, coef in self.sorted_terms())

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"<AlgElem {self.to_string()}>"


# ---------------------------------------------------------------------------
# The straightening engine proper.


class Algebra:
    """Normal-form multiplication engine for one parameter set.

    Immutable after construction apart from internal memo tables and ids;
    all public operations are pure.
    """

    def __init__(self, params: AlgebraParams):
        self.params = params
        n = params.n
        # The group of the algebra itself (used for membership and roots).
        self.ctx = RootSystemCtx(params.type, n)
        # The ambient group whose simple reflections drive the rewriting:
        # type D elements are straightened inside W(B_n).
        self.push_ctx = RootSystemCtx("B", n) if params.type == "D" else self.ctx
        wbits = ((factorial(n) << (n if self.push_ctx.type == "B" else 0)) - 1).bit_length()
        # The word code's layout: (n, shift of x, Clifford mask, mask of u).
        self._layout = (n, n + wbits, (1 << n) - 1, (1 << wbits) - 1)
        # By id: exponent vectors with their odd masks and x^a x^b rows, and
        # group elements with their w x^b and Seg rows; then the constants.
        self._exps, self._xids, self._odds, self._xx = [], {}, [], []
        self._elements, self._uids, self._wx, self._seg_rows = [], {}, [], []
        self._consts, self._cids, self._sx = [ONE], {ONE: 0, MINUS_ONE: 1}, {}
        self._crows = [None] * (1 << n)
        self._parity = [m.bit_count() & 1 for m in range(1 << n)]
        self._zero_exps = (0,) * n
        self._xid(self._zero_exps)  # id 0
        self._uid(SignedPerm.identity(n))  # id 0
        self._units = [self._xid(_shift(self._zero_exps, i, 1)) for i in range(1, n + 1)]
        self._simples = [self._uid(s) for s in self.push_ctx.simple_reflections]

    # -- element constructors ------------------------------------------------

    def one(self) -> AlgElem:
        return AlgElem(self.params, {PbwMonomial(self._zero_exps, 0, self._elements[0]): ONE})

    def x(self, i: int) -> AlgElem:
        self._check_index(i)
        return AlgElem(self.params, {PbwMonomial(self._exps[self._units[i - 1]], 0, self._elements[0]): ONE})

    def c(self, i: int) -> AlgElem:
        self._check_index(i)
        return AlgElem(self.params, {PbwMonomial(self._zero_exps, 1 << (i - 1), self._elements[0]): ONE})

    def w(self, perm: SignedPerm) -> AlgElem:
        if perm.n != self.params.n:
            raise ValueError("rank mismatch")
        if not self.ctx.is_member(perm):
            raise ValueError(f"{perm} is not an element of W({self.params.type}_{self.params.n})")
        return AlgElem(self.params, {PbwMonomial(self._zero_exps, 0, perm): ONE})

    def scalar(self, value: Scalar) -> AlgElem:
        return self.one().scale(value)

    @cached_property
    def generators(self) -> dict[str, AlgElem]:
        """The generators by name: x1..xn, c1..cn and RootSystemCtx.simple_names."""
        n = self.params.n
        gens = {f"x{i}": self.x(i) for i in range(1, n + 1)}
        gens.update((f"c{i}", self.c(i)) for i in range(1, n + 1))
        gens.update(zip(self.ctx.simple_names, map(self.w, self.ctx.simple_reflections)))
        return gens

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.params.n:
            raise ValueError(f"index {i} out of range 1..{self.params.n}")

    # -- ids, constants and rows ----------------------------------------------

    def _xid(self, exps: tuple[int, ...]) -> int:
        xid = self._xids.get(exps)
        if xid is None:
            xid = self._xids[exps] = len(self._exps)
            self._exps.append(exps)
            # The mask of the odd entries: c_i passes x^exps with the sign (-1)^{exps_i}.
            self._odds.append(sum((e & 1) << i for i, e in enumerate(exps)))
            self._xx.append({})
        return xid

    def _uid(self, w: SignedPerm) -> int:
        uid = self._uids.get(w)
        if uid is None:
            uid = self._uids[w] = len(self._elements)
            self._elements.append(w)
            self._wx.append({})
            self._seg_rows.append(None)
        return uid

    def _cid(self, c: Scalar) -> int:
        """The signed id of a nonzero constant c; c and -c share one id."""
        if c is ONE or c is MINUS_ONE:
            return 0 if c is ONE else 1
        cid = self._cids.get(c)
        if cid is None:
            cid = self._cids[c] = 2 * len(self._consts)
            self._cids[-c] = cid + 1
            self._consts.append(c)
        return cid

    def _scaled(self, vals: dict[int, Scalar], cid: int) -> Scalar:
        """vals[cid] = vals[0] times the signed constant cid, or the negation
        of vals[cid ^ 1] when that is there."""
        other = vals.get(cid ^ 1)
        value = vals[cid] = _signed_product(cid & 1, vals[0], self._consts[cid >> 1]) if other is None else -other
        return value

    def _crow(self, e: int) -> list[int]:
        """e's Clifford row: item g is the sign bit of c^e c^g = +-c^(e xor g)."""
        row = self._crows[e] = [int(cliff_mul.__wrapped__(e, g)[0] < 0) for g in range(1 << self.params.n)]
        return row

    def _seg_row(self, u: int) -> tuple[dict[int, tuple[int, int]], dict[int, int]]:
        """u's Seg row, ({mask: (sign bit, u(mask))}, {v: uv})."""
        row = self._seg_rows[u] = ({}, {})
        return row

    def _perm_on_cliff(self, u: int, mask: int) -> tuple[int, int]:
        sign, moved = perm_on_cliff(self._elements[u], mask)
        entry = (self._seg_rows[u] or self._seg_row(u))[0][mask] = (int(sign < 0), moved)
        return entry

    def _group_mul(self, u: int, v: int) -> int:
        row = (self._seg_rows[u] or self._seg_row(u))[1]
        uv = row.get(v)
        if uv is None:
            uv = row[v] = self._uid(self._elements[u] * self._elements[v])
        return uv

    # -- straightening on x-exponent vectors ---------------------------------

    def _x_times_x(self, a: int, b: int) -> tuple:
        """x^a * x^b in normal form, as ((exps, cliff, constant), ...).

        x^a = x^head x_i for the last i with a_i > 0, so x^a x^b is x^head
        applied to x_i x^b.  A single x_i passes the first x_j of x^b with
        j < i by x_i x_j = x_j x_i + N c_j c_i; the correction drops two
        x-factors, so the recursion is well founded.
        """
        cached = self._xx[a].get(b)
        if cached is not None:
            return cached
        out: dict = {}
        ea, eb = self._exps[a], self._exps[b]
        i = next((t for t in range(len(ea), 0, -1) if ea[t - 1]), None)
        if i is None:
            out[b, 0] = ONE
        elif a != self._units[i - 1]:
            self._x_into(out, self._xid(_shift(ea, i, -1)), self._x_times_x(self._units[i - 1], b))
        else:
            j = next((t for t in range(1, i) if eb[t - 1]), None)
            if j is None:
                out[self._xid(_shift(eb, i, 1)), 0] = ONE
            else:
                rest = self._xid(_shift(eb, j, -1))
                self._x_into(out, self._units[j - 1], self._x_times_x(a, rest))
                if self.params.N:
                    # c_j c_i x^rest = (-1)^{rest_i + rest_j} x^rest c_j c_i
                    mask = (1 << (j - 1)) | (1 << (i - 1))
                    odd = self._parity[self._odds[rest] & mask]
                    _add_term(out, (rest, mask), -self.params.N if odd else self.params.N)
        cached = self._xx[a][b] = tuple((exps, mask, self._cid(c)) for (exps, mask), c in out.items())
        return cached

    def _x_into(self, out: dict, a: int, terms: tuple, neg: int = 0) -> None:
        """Add (-1)^neg x^a * sum x^b c^g coef t, over the (b, g, coef, *t)
        of terms, to `out` as {(exps, cliff, *t): coefficient}."""
        consts = self._consts
        for b, g, k, *tail in terms:
            for exps, h, k2 in self._x_times_x(a, b):
                sign = (neg ^ k ^ k2 ^ (self._crows[h] or self._crow(h))[g]) & 1
                _add_term(out, (exps, h ^ g, *tail), _signed_product(sign, consts[k >> 1], consts[k2 >> 1]))

    def _s_times_x(self, idx: int, b: int) -> tuple:
        """s_idx * x^b in normal form, as ((exps, cliff, constant, v), ...),
        where v is s_idx on the main terms and 1 on the corrections."""
        key = (idx, b)
        cached = self._sx.get(key)
        if cached is not None:
            return cached
        n, exps = self.params.n, self._exps[b]
        j = next((t for t in range(1, n + 1) if exps[t - 1]), None)
        if j is None:
            return self._sx.setdefault(key, ((b, 0, 0, self._simples[idx]),))
        rest = self._xid(_shift(exps, j, -1))
        k = self.params.k_long
        neg, target, corrections = 0, j, []  # corrections: (coefficient, cliff mask)
        if self.params.type != "A" and idx == n - 1:
            # s_n x_n = -x_n s_n - sqrt2 * k_short;  s_n x_j = x_j s_n.
            if j == n:
                neg, corrections = 1, [(-(SQRT2 * self.params.k_short), 0)]
        elif j in (idx + 1, idx + 2):
            # With t = idx + 1:  s_t x_t = x_{t+1} s_t + k(-1 + c_t c_{t+1}),
            #                    s_t x_{t+1} = x_t s_t + k(1 + c_t c_{t+1}).
            target = 2 * idx + 3 - j
            corrections = [(-k if j == idx + 1 else k, 0), (k, 0b11 << idx)]
        out: dict = {}
        # The main term x_target (s x^rest), with s x^rest = sum x^b1 c^g v.
        self._x_into(out, self._units[target - 1], self._s_times_x(idx, rest), neg)
        # The corrections c^mask x^rest = (-1)^{sum_{i in mask} rest_i} x^rest c^mask.
        for coef, mask in corrections:
            if coef:
                _add_term(out, (rest, mask, 0), -coef if self._parity[self._odds[rest] & mask] else coef)
        cached = self._sx[key] = tuple((b2, h, self._cid(c), v) for (b2, h, v), c in out.items())
        return cached

    def _w_times_x(self, w: int, b: int) -> tuple:
        """w * x^b in normal form for w != 1 and b != 0, as the flat tuple
        (exps1, odd, cliff, u, constant, exps1, ...), five items a term, `odd`
        the mask of the odd entries of exps1, which is all that the sign of
        moving a Clifford word past x^exps1 depends on.

        One step from a shorter element: for the least left descent s of w
        (`RootSystemCtx.left_descent`), w x^b = s ((sw) x^b), and (sw) x^b is
        memoised, or x^b itself for sw = 1.  Each term x^b1 c^g u of it meets
        s x^b1 = sum x^b2 c^h v, and c^h v c^g u = +-c^h c^{v(g)} vu.
        """
        idx = self.push_ctx.left_descent(self._elements[w])
        sw = self._group_mul(self._simples[idx], w)
        rows, crows, consts, out = self._seg_rows, self._crows, self._consts, {}
        it = iter(self._wx[sw].get(b) or self._w_times_x(sw, b) if sw else (b, 0, 0, 0, 0))
        for b1, _, g, u, k in zip(it, it, it, it, it):
            for b2, h, k2, v in self._sx.get((idx, b1)) or self._s_times_x(idx, b1):
                moves, products = rows[v] or self._seg_row(v)
                sign, moved = moves.get(g) or self._perm_on_cliff(v, g)
                sign = (sign ^ k ^ k2 ^ (crows[h] or self._crow(h))[moved]) & 1
                vu = products.get(u)
                _add_term(out, (b2, h ^ moved, self._group_mul(v, u) if vu is None else vu),
                          (MINUS_ONE if sign else ONE) if (k | k2) < 2
                          else _signed_product(sign, consts[k >> 1], consts[k2 >> 1]))
        cached = self._wx[w][b] = tuple(item for (b2, mask, vu), c in out.items()
                                        for item in (b2, self._odds[b2], mask, vu, self._cid(c)))
        return cached

    def _mono_product(self, out: dict[int, Scalar], left: int, right: int, scale: Scalar) -> None:
        """Add scale * (x^a c^e w)(x^b c^f v) to `out`, on word codes,
        factored through Seg.

        1. T = w x^b = sum x^b1 c^g u, memoised on (w, b).
        2. c^e x^b1 = (-1)^{sum_{i in e} b1_i} x^b1 c^e, then c^e c^g.
        3. x^a x^b1 = sum x^b2 c^h, memoised on (a, b1).
        4. c^g u c^f v = +-c^g c^{u(f)} uv, with u(f) and uv read from u's
           Seg row, which the group bounds.

        Only steps 1 and 3 straighten; the rest is sign bookkeeping on bits.
        `vals` holds scale times each signed constant met, formed once, so
        a unit constant costs no product, and a product is nonzero: only a
        sum onto a word in `out` can cancel.
        """
        n, xs, full, um = self._layout
        e, f, w, v, a, b = left & full, right & full, left >> n & um, right >> n & um, left >> xs, right >> xs
        crows, rows, parity, consts = self._crows, self._seg_rows, self._parity, self._consts
        erow, xx, vals = crows[e] or self._crow(e), self._xx[a], {0: scale}
        it = iter(self._wx[w].get(b) or self._w_times_x(w, b) if b and w else (b, self._odds[b], 0, w, 0))
        for b1, odd, g, u, k in zip(it, it, it, it, it):
            moves, products = rows[u] or self._seg_row(u)
            s, moved = moves.get(f) or self._perm_on_cliff(u, f)
            m = e ^ g
            k ^= erow[g] ^ parity[odd & e] ^ s ^ (crows[m] or self._crow(m))[moved]
            m ^= moved
            uv = products.get(v)
            if uv is None:
                uv = self._group_mul(u, v)
            uv <<= n
            c = vals.get(k)
            if c is None:
                c = self._scaled(vals, k)
            for b2, h, k2 in xx.get(b1) or self._x_times_x(a, b1):
                s = (crows[h] or self._crow(h))[m] ^ k2
                if k2 > 1:
                    term = c * consts[k2 >> 1]
                    if s & 1:
                        term = -term
                elif s:
                    term = vals.get(k ^ 1)
                    if term is None:
                        term = self._scaled(vals, k ^ 1)
                else:
                    term = c
                code = b2 << xs | uv | h ^ m
                old = out.get(code)
                if old is None:
                    out[code] = term
                elif new := old + term:
                    out[code] = new
                else:
                    del out[code]

    def sum_of_products(self, terms) -> AlgElem:
        """sum(coef * F1 ... Fk) over the (coef, [F1, ..., Fk]) terms, built in one dict.

        F1 ... F(k-1) are multiplied out first, and the last product goes
        straight into the sum through `_mono_product`, with coef folded into
        the left coefficient once per left term: each term pair costs one
        product.  A one-factor word adds coef * F1 and an empty word adds
        coef; a zero coef is skipped, and one equal to +-1 is taken by value
        as the singleton.  The sum is kept on word codes, and its words are
        decoded once at the end.  The twin of `Matrix.sum_of_products`.
        """
        n, xs, full, um = self._layout
        out: dict[int, Scalar] = {}

        def codes(elem):
            return [(self._xid(m.exps) << xs | self._uid(m.w) << n | m.cliff, c) for m, c in elem.terms.items()]

        for coef, factors in terms:
            if any(f.params != self.params for f in factors):
                raise ValueError("params mismatch")
            if not coef:
                continue
            if coef is not ONE and coef is not MINUS_ONE:
                coef = UNITS.get(coef, coef)
            if len(factors) < 2:
                for code, c in codes(factors[0] if factors else self.one()):
                    _add_term(out, code, _signed_product(0, coef, c))
                continue
            *head, last = factors
            right = codes(last)
            for la, ca in codes(reduce(self.multiply, head)):
                ca = _signed_product(0, coef, ca)
                for mb, cb in right:
                    self._mono_product(out, la, mb, ca * cb)
        exps, elements = self._exps, self._elements
        return AlgElem(self.params, {_new_mono((exps[code >> xs], code & full, elements[code >> n & um])): c
                                     for code, c in out.items()})

    def multiply(self, a: AlgElem, b: AlgElem) -> AlgElem:
        """a * b, the two-factor word of `sum_of_products`."""
        return self.sum_of_products(((ONE, (a, b)),))


@lru_cache(maxsize=8)
def algebra_for(params: AlgebraParams) -> Algebra:
    """Shared engine instance for a parameter set.  The 8 most recently used
    stay, with their memo tables; an evicted one is only rebuilt, as engines
    are stateless apart from those tables."""
    return Algebra(params)


# ---------------------------------------------------------------------------
# Spec-level operations.


def parity(a: AlgElem) -> str:
    """'even', 'odd' or 'mixed'; the zero element counts as even."""
    parities = {mono.parity() for mono in a.terms}
    if parities <= {0}:
        return "even"
    if parities == {1}:
        return "odd"
    return "mixed"


def supercommutator(params: AlgebraParams, a: AlgElem, b: AlgElem) -> AlgElem:
    """ab - (-1)^{deg a deg b} ba for parity-homogeneous a, b."""
    pa, pb = parity(a), parity(b)
    if "mixed" in (pa, pb):
        raise ValueError("supercommutator requires parity-homogeneous arguments")
    sign = ONE if (pa == "odd" and pb == "odd") else MINUS_ONE
    return algebra_for(params).sum_of_products(((ONE, (a, b)), (sign, (b, a))))


def random_group_element(params: AlgebraParams, rng: random.Random) -> SignedPerm:
    values = list(range(1, params.n + 1))
    rng.shuffle(values)
    if params.type != "A":
        values = [v if rng.random() < 0.5 else -v for v in values]
    if params.type == "D" and sum(1 for v in values if v < 0) % 2:
        values[0] = -values[0]
    return SignedPerm(tuple(values))


_COEFF_POOL = (ONE, -ONE, TWO, HALF, SQRT2, -SQRT2, I, I_SQRT2, ONE + SQRT2)


def random_element(
    params: AlgebraParams, rng: random.Random, max_deg: int = 2, max_terms: int = 3
) -> AlgElem:
    """A small random element used by the consistency checks."""
    terms: Terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * params.n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(params.n)] += 1
        cliff = rng.randrange(1 << params.n)
        mono = PbwMonomial(tuple(exps), cliff, random_group_element(params, rng))
        _add_term(terms, mono, rng.choice(_COEFF_POOL))
    return AlgElem(params, terms)


def check_pbw_consistency(
    params: AlgebraParams, trials: int, max_deg: int = 2, seed: int = 0
) -> list[dict]:
    """Associativity of `trials` random triples, the engine's soundness oracle.

    Returns the failing triples, empty when every product associates.
    """
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        a = random_element(params, rng, max_deg)
        b = random_element(params, rng, max_deg)
        c = random_element(params, rng, max_deg)
        left = (a * b) * c
        right = a * (b * c)
        if left != right:
            failures.append(
                {"trial": t, "a": a.to_string(), "b": b.to_string(), "c": c.to_string()}
            )
    return failures


# ---------------------------------------------------------------------------
# Defining relations, shared by the engine tests and the module checker.
# Each relation is (name, [(coefficient, word), ...]) asserting that the sum
# of the scalar-weighted generator words vanishes.  A word is a tuple of
# generator names, the keys of Algebra.generators and of ModuleRep.gens:
# x1..xn, c1..cn and the simple reflections of RootSystemCtx.simple_names.

Relation = tuple[str, list[tuple[Scalar, tuple[str, ...]]]]


def defining_relations(params: AlgebraParams) -> list[Relation]:
    n, k, typ = params.n, params.k_long, params.type
    ctx = algebra_for(params).ctx
    names = ctx.simple_names
    x, c = "x{}".format, "c{}".format
    rels: list[Relation] = []

    def add(name, left, sign, right, *rest):
        rels.append((name, [(ONE, left), (sign, right), *rest]))

    def comm(name, a, b):
        add(name, (a, b), MINUS_ONE, (b, a))

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            extra = [(-params.N, (c(j), c(i)))] if typ != "A" else []
            add(f"x{i}_x{j}", (x(i), x(j)), MINUS_ONE, (x(j), x(i)), *extra)
    for i in range(1, n + 1):
        for j in (i, *(j for j in range(1, n + 1) if j != i)):
            # x_i anticommutes with c_i only
            add(f"x{i}_c{j}", (x(i), c(j)), ONE if j == i else MINUS_ONE, (c(j), x(i)))
    for i in range(1, n + 1):
        add(f"c{i}_sq", (c(i), c(i)), ONE, ())
        for j in range(i + 1, n + 1):
            add(f"c{i}_c{j}", (c(i), c(j)), ONE, (c(j), c(i)))

    # The algebra's own simple reflections: s_1..s_{n-1}, then s_n in type B
    # or the fork s_{n-1,-n} in type D.
    for s, perm in zip(names, ctx.simple_reflections, strict=True):
        add(f"{s}_sq", (s, s), MINUS_ONE, ())
        for i in range(1, n + 1):
            v = perm.image(i)
            add(f"{s}_c{i}", (s, c(i)), MINUS_ONE if v > 0 else ONE, (c(abs(v)), s))

    # Cross relations between simple reflections and the x-generators.
    for t in range(1, n):
        s, xt, xu, cc = names[t - 1], x(t), x(t + 1), (c(t), c(t + 1))
        add(f"{s}_{xt}", (s, xt), MINUS_ONE, (xu, s), (k, ()), (-k, cc))
        # Derived companion: s_t x_{t+1} = x_t s_t + k(1 + c_t c_{t+1}).
        add(f"{s}_{xu}", (s, xu), MINUS_ONE, (xt, s), (-k, ()), (-k, cc))
        for j in range(1, n + 1):
            if j not in (t, t + 1):
                comm(f"{s}_x{j}", s, x(j))

    s = names[-1] if names else ""
    if typ == "B":
        add(f"{s}_xn", (s, x(n)), ONE, (x(n), s), (SQRT2 * params.k_short, ()))
    if typ == "D" and n >= 2:
        xm, xn, cm, cn = x(n - 1), x(n), c(n - 1), c(n)
        # s_{n-1,-n} x_{n-1} + x_n s_{n-1,-n} = k(-1 + c_n c_{n-1}); derived
        # from the type-B presentation (the Clifford factors anticommute, so
        # their order carries a sign).
        add(f"{s}_xfork", (s, xm), ONE, (xn, s), (k, ()), (-k, (cn, cm)))
        add(f"{s}_xfork2", (s, xn), ONE, (xm, s), (k, ()), (-k, (cm, cn)))
    if typ != "A":
        for j in range(1, n - (typ == "D")):
            comm(f"{s}_x{j}", s, x(j))

    # Braid relations of the group.
    for t in range(1, n - 1):
        a, b = names[t - 1], names[t]
        add(f"braid_{a}", (a, b, a), MINUS_ONE, (b, a, b))
    for t in range(1, n):
        for u in range(t + 2, n):
            comm(f"comm_{names[t - 1]}_{names[u - 1]}", names[t - 1], names[u - 1])
    if typ == "B" and n >= 2:
        a = names[n - 2]
        add(f"braid_{s}", (a, s, a, s), MINUS_ONE, (s, a, s, a))
        for a in names[: n - 2]:
            comm(f"comm_{a}_{s}", a, s)
    if typ == "D" and n >= 2:
        for t, a in enumerate(names[: n - 1], start=1):
            if t == n - 2:
                add(f"braid_{s}", (a, s, a), MINUS_ONE, (s, a, s))
            else:
                comm(f"comm_{a}_{s}", a, s)
    return rels


def generating_relations(params: AlgebraParams) -> list[Relation]:
    """The relations of `defining_relations` that certify a module.

    The algebra is generated by x1, c1 and the simple reflections (in type
    A, M. Nazarov, "Young's symmetrizers for projective representations of
    the symmetric group", Adv. Math. 127 (1997); in types B and D, the
    presentations of Khongsap and Wang, Transform. Groups 13 (2008)), and
    the list keeps, in the order of `defining_relations`:

    - the Coxeter relations *_sq, braid_* and comm_* of the Weyl group;
    - c1_sq, c1_c2 and x1_x2;
    - x1_c{j} for every j, and s{j}_c1 and s{j}_x1 for 2 <= j < n;
    - s{i}_c{i} and s{i}_x{i} for every i < n;
    - in type B, sn_c1, sn_x1, sn_c{n} and sn_xn;
    - in type D, sd_c1, sd_x1, sd_c{n-1} and sd_xfork.

    D1 has no reflection, and keeps its whole list, x1_c1 and c1_sq.

    Why they suffice.  With s_i^2 = 1, s{i}_c{i} and s{i}_x{i} say

        c_{i+1} = s_i c_i s_i,   x_{i+1} = s_i x_i s_i + k (1 - c_i c_{i+1}) s_i,

    so the matrices of c_{i+1} and x_{i+1} are fixed by those of x1, c1 and
    the s_i.  Every other relation follows by conjugation, in four steps.

    - Clifford part.  c_i = w c_1 w^-1 for w = s_{i-1} ... s_1, and the
      Coxeter relations with s{j}_c1 give s_j c_i s_j = c_{s_j(i)}, every
      s{j}_c{i}.  Conjugation then carries c1_sq and c1_c2 to every c{i}_sq
      and c{i}_c{j}.
    - x against c and s.  By induction on i through the formula for
      x_{i+1}, x1_c{j} gives every x{i}_c{j}, and s{j}_x1 every s{j}_x{i}
      with i not in {j, j+1} (the braid relation moves s_{i-1} past
      s_i s_{i-1}); s_i times both sides of s{i}_x{i} gives s{i}_x{i+1}.
    - x against x.  x1_x2 says x_1 x_2 = x_2 x_1 + N c_2 c_1 (N = 0 in
      type A).  For j >= 3, s_{j-1}, c_{j-1} and c_j commute with x_1, so
      by induction through the formula for x_j,
      x_1 x_j = s_{j-1} (x_{j-1} x_1 + N c_{j-1} c_1) s_{j-1}
      + k (1 - c_{j-1} c_j) s_{j-1} x_1 = x_j x_1 + N c_j c_1, every
      x1_x{j}.  Conjugating x_{i-1} x_j = x_j x_{i-1} + N c_j c_{i-1} by
      s_{i-1}, for j > i, gives x{i}_x{j}, as the correction
      k (1 - c_{i-1} c_i) s_{i-1} commutes with x_j.
    - The last reflection.  In type B, s_n commutes with s_1..s_{n-2}
      (comm_*), so sn_c1 and sn_x1 carry over, along the formulas for
      c_{i+1} and x_{i+1}, to every sn_c{i} and sn_x{i} with i < n.  In
      type D the fork s_{n-1,-n} commutes with s_1..s_{n-3}, so sd_c1 and
      sd_x1 give sd_c{i} and sd_x{i} for i <= n-2 in the same way;
      sd_c{n} and sd_xfork2 are the sd-conjugates of sd_c{n-1} and
      sd_xfork.
    """
    n = params.n
    names = {"c1_sq", "c1_c2", "x1_x2"}
    names.update(f"x1_c{j}" for j in range(1, n + 1))
    for i, s in enumerate(algebra_for(params).ctx.simple_names, start=1):
        names.add(f"{s}_sq")
        if i < n:
            names.update((f"{s}_c{i}", f"{s}_x{i}"))
        if i >= 2:
            names.update((f"{s}_c1", f"{s}_x1"))
    if params.type == "B":
        names.update((f"sn_c{n}", "sn_xn"))
    if params.type == "D":
        names.update((f"sd_c{n - 1}", "sd_xfork"))
    return [rel for rel in defining_relations(params)
            if rel[0] in names or rel[0].startswith(("braid_", "comm_"))]


def eval_relation_tokens(params: AlgebraParams, word: tuple[str, ...]) -> AlgElem:
    """Evaluate a relation word, a tuple of generator names, inside the engine."""
    alg = algebra_for(params)
    return alg.sum_of_products(((ONE, [alg.generators[name] for name in word]),))


def check_relations_in_engine(params: AlgebraParams) -> list[dict]:
    """Normalise LHS - RHS of every defining relation; the failures, each with its residual."""
    alg = algebra_for(params)
    failures = []
    for name, terms in defining_relations(params):
        total = alg.sum_of_products((coef, [eval_relation_tokens(params, word)]) for coef, word in terms)
        if not total.is_zero():
            failures.append({"relation": name, "residual": total.to_string()})
    return failures
