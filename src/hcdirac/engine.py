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

Memo tables and accumulation.  Each Algebra memoises x^a x^b on (a, b), s x^b
on (simple index, b) and w x^b on (w, b): no key holds a Clifford word or a
group tail, so these tables grow with the x-degrees met, w x^b by at most |W|
entries per exponent vector b (W the ambient group).  A w x^b entry, often of
tens of terms, is a tuple of parallel columns read with `zip`, one per part of
a term, so a term costs one slot per column and no tuple of its own.  The x^a
x^b and s x^b entries, mostly of one to three terms, keep one tuple per term,
which at that size is smaller and quicker to read in the inner loop of
`_mono_product`.  A new entry w x^b is one step s ((sw) x^b) from the entry of
the shorter sw, for the least left descent s of w.  Every group element in a
key, an entry or a product is the engine's one object for it (`_intern`), so
the tables hold at most |W| of them.  The Seg lookups u c^f and uv are one
pair of row dicts per u, {mask: (sign, u(f))} and {v: uv}: at most |W| rows
of at most 2^n and |W| entries.  The module-level `cliff_mul` has at most 4^n
entries, masks x masks.
The three straightening tables store +-1 only as the singletons ONE and
MINUS_ONE, so `_mono_product`, and `_signed_product` when a new entry is
built from older ones, recognise a unit structure constant by `is` and take
it by value, with no product.  `Algebra.sum_of_products` is the one
accumulation routine: it builds a sum of scalar-weighted words in one dict,
the last product of each word added term by term through `_mono_product`.
`multiply` is its two-factor word, and AlgElem's +, - and scale its
one-factor words.  Words and memo keys are tuples all the way down
(`SignedPerm` too), so they hash in C.  `algebra_for` keeps the engines, and
so their tables, of the 8 parameter sets used last.

Type D has no standalone engine: its elements live inside the type-B engine
with the short-root parameter frozen at zero, and only group elements with an
even number of sign flips are accepted as input.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cache, cached_property, lru_cache, partial, reduce
from typing import NamedTuple

from .scalars import HALF, I, I_SQRT2, MINUS_ONE, ONE, SQRT2, TWO, UNITS, ZERO, Scalar
from .weyl import Root, RootSystemCtx, SignedPerm


# ---------------------------------------------------------------------------
# Clifford / signed-permutation sign bookkeeping (shared with the Sergeev
# machinery in centers.py).


def cliff_insert(i: int, mask: int) -> tuple[int, int]:
    """Left-multiply c_i onto the sorted Clifford word c^mask.

    Returns (sign, new_mask); uses c_i c_j = -c_j c_i and c_i^2 = -1.
    """
    below = (mask & ((1 << (i - 1)) - 1)).bit_count()
    sign = -1 if below & 1 else 1
    bit = 1 << (i - 1)
    if mask & bit:
        return -sign, mask & ~bit
    return sign, mask | bit


@cache
def cliff_mul(mask1: int, mask2: int) -> tuple[int, int]:
    """Product c^mask1 * c^mask2 as (sign, mask); memoised, as the keys are
    bounded by 4^n."""
    sign = 1
    mask = mask2
    for i in range(mask1.bit_length(), 0, -1):
        if mask1 & (1 << (i - 1)):
            s, mask = cliff_insert(i, mask)
            sign *= s
    return sign, mask


def perm_on_cliff(w: SignedPerm, mask: int) -> tuple[int, int]:
    """Push w left past c^mask: w c^mask = sign * c^new_mask * w.

    Uses w c_i = c_{w(i)} w, with c_{-j} read as -c_j.
    """
    sign = 1
    images = []
    for i in range(1, mask.bit_length() + 1):
        if mask & (1 << (i - 1)):
            v = w[i - 1]
            if v < 0:
                sign = -sign
                v = -v
            images.append(v)
    # Sort the relabelled word back into ascending order.
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if images[a] > images[b]:
                sign = -sign
    new_mask = 0
    for v in images:
        new_mask |= 1 << (v - 1)
    return sign, new_mask


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
        parts = [f"({coef.compact()})"]
        for i, m in enumerate(self.exps, start=1):
            if m == 1:
                parts.append(f"x{i}")
            elif m > 1:
                parts.append(f"x{i}^{m}")
        for i in range(1, len(self.exps) + 1):
            if self.cliff & (1 << (i - 1)):
                parts.append(f"c{i}")
        parts.append(str(self.w))
        return "*".join(parts)


Terms = dict[PbwMonomial, Scalar]

# A PbwMonomial from a (exps, cliff, w) tuple, skipping the Python-level
# NamedTuple __new__ on the engine's hot path.
_new_mono = partial(tuple.__new__, PbwMonomial)


def _signed_product(sign: int, a: Scalar, b: Scalar) -> Scalar:
    """sign * a * b, taking a factor +-1 (the singletons) by value."""
    if b is ONE or b is MINUS_ONE:
        a, b = b, a
    if a is ONE or a is MINUS_ONE:
        return b if (sign > 0) == (a is ONE) else -b
    product = a * b
    return product if sign > 0 else -product


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


def _odd_mask(exps: tuple[int, ...]) -> int:
    """Bitmask of the odd entries of exps: c_i passes x^exps with the sign
    (-1)^{exps_i}."""
    return sum((e & 1) << i for i, e in enumerate(exps))


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

    Immutable after construction apart from internal memo tables; all public
    operations are pure, so one instance is safe to share between threads.
    """

    def __init__(self, params: AlgebraParams):
        self.params = params
        # The group of the algebra itself (used for membership and roots).
        self.ctx = RootSystemCtx(params.type, params.n)
        # The ambient group whose simple reflections drive the rewriting:
        # type D elements are straightened inside W(B_n).
        self.push_ctx = RootSystemCtx("B", params.n) if params.type == "D" else self.ctx
        self._xx_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple] = {}
        self._sx_cache: dict[tuple[int, tuple[int, ...]], tuple] = {}
        self._wx_cache: dict[tuple[SignedPerm, tuple[int, ...]], tuple] = {}
        # One object per group element, and the Seg lookups of each u,
        # ({mask: u c^mask as (sign, mask')}, {v: uv}): bounded by the group.
        self._elements: dict[SignedPerm, SignedPerm] = {}
        self._seg_rows: dict[SignedPerm, tuple[dict[int, tuple[int, int]],
                                               dict[SignedPerm, SignedPerm]]] = {}
        self._id = self._intern(SignedPerm.identity(params.n))
        self._simples = [self._intern(s) for s in self.push_ctx.simple_reflections]
        self._zero_exps = (0,) * params.n
        self._units = [_shift(self._zero_exps, i, 1) for i in range(1, params.n + 1)]

    # -- element constructors ------------------------------------------------

    def one(self) -> AlgElem:
        return AlgElem(self.params, {PbwMonomial(self._zero_exps, 0, self._id): ONE})

    def x(self, i: int) -> AlgElem:
        self._check_index(i)
        exps = list(self._zero_exps)
        exps[i - 1] = 1
        return AlgElem(self.params, {PbwMonomial(tuple(exps), 0, self._id): ONE})

    def c(self, i: int) -> AlgElem:
        self._check_index(i)
        return AlgElem(self.params, {PbwMonomial(self._zero_exps, 1 << (i - 1), self._id): ONE})

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

    # -- straightening on x-exponent vectors ---------------------------------

    def _x_times_x(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple:
        """x^a * x^b in normal form, as ((exps, cliff, coefficient), ...).

        x^a = x^head x_i for the last i with a_i > 0, so x^a x^b is x^head
        applied to x_i x^b.  A single x_i passes the first x_j of x^b with
        j < i by x_i x_j = x_j x_i + N c_j c_i; the correction drops two
        x-factors, so the recursion is well founded.
        """
        key = (a, b)
        cached = self._xx_cache.get(key)
        if cached is not None:
            return cached
        out: dict = {}
        i = next((t for t in range(len(a), 0, -1) if a[t - 1]), None)
        if i is None:
            out[b, 0] = ONE
        elif a != self._units[i - 1]:
            self._x_into(out, _shift(a, i, -1), self._x_times_x(self._units[i - 1], b))
        else:
            j = next((t for t in range(1, i) if b[t - 1]), None)
            if j is None:
                out[_shift(b, i, 1), 0] = ONE
            else:
                rest = _shift(b, j, -1)
                self._x_into(out, self._units[j - 1], self._x_times_x(a, rest))
                if self.params.N:
                    # c_j c_i x^rest = (-1)^{rest_i + rest_j} x^rest c_j c_i
                    mask = (1 << (j - 1)) | (1 << (i - 1))
                    odd = (_odd_mask(rest) & mask).bit_count() & 1
                    _add_term(out, (rest, mask), -self.params.N if odd else self.params.N)
        cached = tuple((exps, mask, UNITS.get(c, c)) for (exps, mask), c in out.items())
        self._xx_cache[key] = cached
        return cached

    def _x_into(self, out: dict, a: tuple[int, ...], terms: tuple) -> None:
        """Add x^a * sum x^b c^g coef, over the (b, g, coef) of terms, to
        `out` as {(exps, cliff): coefficient}; c^g stays on the right."""
        for b, g, coef in terms:
            for exps, h, coef2 in self._x_times_x(a, b):
                sign, mask = cliff_mul(h, g)
                _add_term(out, (exps, mask), _signed_product(sign, coef, coef2))

    def _s_times_x(self, idx: int, b: tuple[int, ...]) -> tuple:
        """s_idx * x^b in normal form, as ((exps, cliff, v, coefficient), ...),
        where v is s_idx on the main terms and 1 on the corrections."""
        key = (idx, b)
        cached = self._sx_cache.get(key)
        if cached is not None:
            return cached
        n = self.params.n
        j = next((t for t in range(1, n + 1) if b[t - 1]), None)
        if j is None:
            return self._sx_cache.setdefault(key, ((b, 0, self._simples[idx], ONE),))
        rest = _shift(b, j, -1)
        k = self.params.k_long
        sign, target, corrections = 1, j, []  # corrections: (coefficient, cliff mask)
        if self.params.type != "A" and idx == n - 1:
            # s_n x_n = -x_n s_n - sqrt2 * k_short;  s_n x_j = x_j s_n.
            if j == n:
                sign, corrections = -1, [(-(SQRT2 * self.params.k_short), 0)]
        elif j in (idx + 1, idx + 2):
            # With t = idx + 1:  s_t x_t = x_{t+1} s_t + k(-1 + c_t c_{t+1}),
            #                    s_t x_{t+1} = x_t s_t + k(1 + c_t c_{t+1}).
            target = 2 * idx + 3 - j
            corrections = [(-k if j == idx + 1 else k, 0), (k, 0b11 << idx)]
        out: dict = {}
        # The main term x_target (s x^rest), with s x^rest = sum x^b1 c^g v.
        for b1, g, v, coef in self._s_times_x(idx, rest):
            for exps, h, coef2 in self._x_times_x(self._units[target - 1], b1):
                s2, mask = cliff_mul(h, g)
                _add_term(out, (exps, mask, v), _signed_product(sign * s2, coef, coef2))
        # The corrections c^mask x^rest = (-1)^{sum_{i in mask} rest_i} x^rest c^mask.
        odd = _odd_mask(rest)
        for coef, mask in corrections:
            if coef:
                _add_term(out, (rest, mask, self._id),
                          -coef if (odd & mask).bit_count() & 1 else coef)
        cached = tuple((exps, mask, v, UNITS.get(c, c)) for (exps, mask, v), c in out.items())
        self._sx_cache[key] = cached
        return cached

    def _w_times_x(self, w: SignedPerm, exps: tuple[int, ...]) -> tuple:
        """w * x^exps in normal form, as the columns (exps1, odd, cliff, u,
        coefficient): parallel tuples with one item per term, read with `zip`.

        One step from a shorter element: for the least left descent s of w
        (`RootSystemCtx.left_descent`), w x^b = s ((sw) x^b), and (sw) x^b is
        memoised.  Each term x^b1 c^g u of it meets s x^b1 = sum x^b2 c^h v,
        and c^h v c^g u = +-c^h c^{v(g)} vu.  `odd` is the mask of the odd
        entries of exps1, which is all that the sign of moving a Clifford
        word past x^exps1 depends on.  The key holds the engine's own object
        for w, and every u is one too (`_intern`).
        """
        cached = self._wx_cache.get((w, exps))
        if cached is not None:
            return cached
        w = self._intern(w)
        idx = self.push_ctx.left_descent(w) if any(exps) else None
        if idx is None:  # w = 1, or w x^0 = w
            cached = ((exps,), (_odd_mask(exps),), (0,), (w,), (ONE,))
        else:
            out: dict = {}
            seg_rows = self._seg_rows
            sw = self._group_mul(self._simples[idx], w)
            for b1, _, g, u, coef in zip(*self._w_times_x(sw, exps)):
                for b2, h, v, coef2 in self._s_times_x(idx, b1):
                    cliff_row, product_row = seg_rows.get(v) or self._seg_row(v)
                    sign, moved = cliff_row.get(g) or self._perm_on_cliff(v, g)
                    s2, mask = cliff_mul(h, moved)
                    _add_term(out, (b2, mask, product_row.get(u) or self._group_mul(v, u)),
                              _signed_product(sign * s2, coef, coef2))
            bs, gs, us = zip(*out)
            cached = (bs, tuple(map(_odd_mask, bs)), gs, us,
                      tuple(UNITS.get(c, c) for c in out.values()))
        self._wx_cache[w, exps] = cached
        return cached

    def _intern(self, w: SignedPerm) -> SignedPerm:
        """The engine's one object equal to w, so that its tables hold at
        most |W| group elements however many equal windows they meet."""
        return self._elements.setdefault(w, w)

    def _seg_row(self, u: SignedPerm) -> tuple[dict, dict]:
        """u's rows of the Seg lookups, ({mask: (sign, u(mask))}, {v: uv})."""
        rows = self._seg_rows.get(u)
        if rows is None:
            rows = self._seg_rows[self._intern(u)] = ({}, {})
        return rows

    def _perm_on_cliff(self, u: SignedPerm, mask: int) -> tuple[int, int]:
        row = self._seg_row(u)[0]
        moved = row.get(mask)
        if moved is None:
            moved = row[mask] = perm_on_cliff(u, mask)
        return moved

    def _group_mul(self, u: SignedPerm, v: SignedPerm) -> SignedPerm:
        row = self._seg_row(u)[1]
        uv = row.get(v)
        if uv is None:
            uv = row[self._intern(v)] = self._intern(u * v)
        return uv

    def _mono_product(self, out: Terms, left: PbwMonomial, right: PbwMonomial,
                      scale: Scalar) -> None:
        """Add scale * (x^a c^e w)(x^b c^f v) to `out`, factored through Seg.

        1. T = w x^b = sum x^b1 c^g u, memoised on (w, b).
        2. c^e x^b1 = (-1)^{sum_{i in e} b1_i} x^b1 c^e, then c^e c^g.
        3. x^a x^b1 = sum x^b2 c^h, memoised on (a, b1).
        4. c^g u c^f v = +-c^g c^{u(f)} uv, with u(f) and uv read from u's
           rows of the Seg lookups, which the group bounds.

        Only steps 1 and 3 straighten; the rest is Clifford sign bookkeeping.
        The memo tables store +-1 as the singletons, so a unit structure
        constant is recognised by `is` and costs no product: a term of T
        forms c = scale * coef only for coef != +-1, and a term of step 3
        takes c or -c for coef2 = +-1, with -c formed at most once per term
        of T.  So a product is nonzero, and only a sum onto a word in `out`
        can cancel.
        """
        e, f, v, a = left.cliff, right.cliff, right.w, left.exps
        xx, seg_rows = self._xx_cache, self._seg_rows
        for b1, odd, g, u, coef in zip(*self._w_times_x(left.w, right.exps)):
            sign, mask = cliff_mul(e, g)
            if (odd & e).bit_count() & 1:
                sign = -sign
            cliff_row, product_row = seg_rows.get(u) or self._seg_row(u)
            s, moved = cliff_row.get(f) or self._perm_on_cliff(u, f)
            s2, mask = cliff_mul(mask, moved)
            uv = product_row.get(v) or self._group_mul(u, v)
            # The term of T is c or -c, by `flip`.
            flip = sign * s * s2 < 0
            if coef is ONE or coef is MINUS_ONE:
                c, flip = scale, flip ^ (coef is MINUS_ONE)
            else:
                c = scale * coef
            minus = None
            for b2, h, coef2 in xx.get((a, b1)) or self._x_times_x(a, b1):
                s, mask2 = cliff_mul(h, mask)
                if coef2 is ONE or coef2 is MINUS_ONE:
                    if flip ^ (s < 0) ^ (coef2 is MINUS_ONE):
                        if minus is None:
                            minus = -c
                        term = minus
                    else:
                        term = c
                else:
                    term = c * coef2
                    if flip ^ (s < 0):
                        term = -term
                mono = _new_mono((b2, mask2, uv))
                old = out.get(mono)
                if old is None:
                    out[mono] = term
                elif new := old + term:
                    out[mono] = new
                else:
                    del out[mono]

    def sum_of_products(self, terms) -> AlgElem:
        """sum(coef * F1 ... Fk) over the (coef, [F1, ..., Fk]) terms, built in one dict.

        F1 ... F(k-1) are multiplied out first, and the last product goes
        straight into the sum through `_mono_product`, with coef folded into
        the left coefficient once per left term: each term pair costs one
        product.  A one-factor word adds coef * F1 and an empty word adds
        coef; a zero coef is skipped, and one equal to +-1 is taken by value
        as the singleton.  The twin of `Matrix.sum_of_products`.
        """
        out: Terms = {}
        for coef, factors in terms:
            if any(f.params != self.params for f in factors):
                raise ValueError("params mismatch")
            if not coef:
                continue
            if coef is not ONE and coef is not MINUS_ONE:
                coef = UNITS.get(coef, coef)
            if len(factors) < 2:
                items = factors[0].terms.items() if factors else self.one().terms.items()
                for mono, c in items:
                    _add_term(out, mono, _signed_product(1, coef, c))
                continue
            *head, last = factors
            for ma, ca in reduce(self.multiply, head).terms.items():
                ca = _signed_product(1, coef, ca)
                for mb, cb in last.terms.items():
                    self._mono_product(out, ma, mb, ca * cb)
        return AlgElem(self.params, out)

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
    n = params.n
    k = params.k_long
    ctx = algebra_for(params).ctx
    names = ctx.simple_names
    rels: list[Relation] = []

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            terms = [(ONE, (f"x{i}", f"x{j}")), (-ONE, (f"x{j}", f"x{i}"))]
            if params.type != "A":
                terms.append((-params.N, (f"c{j}", f"c{i}")))
            rels.append((f"x{i}_x{j}", terms))
    for i in range(1, n + 1):
        for j in (i, *(j for j in range(1, n + 1) if j != i)):
            sign = ONE if j == i else -ONE  # x_i anticommutes with c_i only
            rels.append((f"x{i}_c{j}", [(ONE, (f"x{i}", f"c{j}")), (sign, (f"c{j}", f"x{i}"))]))
    for i in range(1, n + 1):
        rels.append((f"c{i}_sq", [(ONE, (f"c{i}", f"c{i}")), (ONE, ())]))
        for j in range(i + 1, n + 1):
            rels.append((f"c{i}_c{j}", [(ONE, (f"c{i}", f"c{j}")), (ONE, (f"c{j}", f"c{i}"))]))

    # The algebra's own simple reflections: s_1..s_{n-1}, then s_n in type B
    # or the fork s_{n-1,-n} in type D.
    for s, perm in zip(names, ctx.simple_reflections, strict=True):
        rels.append((f"{s}_sq", [(ONE, (s, s)), (-ONE, ())]))
        for i in range(1, n + 1):
            v = perm.image(i)
            sign = ONE if v > 0 else -ONE
            rels.append((f"{s}_c{i}", [(ONE, (s, f"c{i}")), (-sign, (f"c{abs(v)}", s))]))

    # Cross relations between simple reflections and the x-generators.
    for t in range(1, n):
        s, xt, xu, cc = names[t - 1], f"x{t}", f"x{t + 1}", (f"c{t}", f"c{t + 1}")
        rels.append((f"{s}_{xt}", [(ONE, (s, xt)), (-ONE, (xu, s)), (k, ()), (-k, cc)]))
        # Derived companion: s_t x_{t+1} = x_t s_t + k(1 + c_t c_{t+1}).
        rels.append((f"{s}_{xu}", [(ONE, (s, xu)), (-ONE, (xt, s)), (-k, ()), (-k, cc)]))
        for j in range(1, n + 1):
            if j not in (t, t + 1):
                rels.append((f"{s}_x{j}", [(ONE, (s, f"x{j}")), (-ONE, (f"x{j}", s))]))

    if params.type == "B":
        s, xn = names[n - 1], f"x{n}"
        rels.append((f"{s}_xn", [(ONE, (s, xn)), (ONE, (xn, s)), (SQRT2 * params.k_short, ())]))
        for j in range(1, n):
            rels.append((f"{s}_x{j}", [(ONE, (s, f"x{j}")), (-ONE, (f"x{j}", s))]))
    if params.type == "D" and n >= 2:
        s, xm, xn, cm, cn = names[n - 1], f"x{n - 1}", f"x{n}", f"c{n - 1}", f"c{n}"
        # s_{n-1,-n} x_{n-1} + x_n s_{n-1,-n} = k(-1 + c_n c_{n-1}); derived
        # from the type-B presentation (the Clifford factors anticommute, so
        # their order carries a sign).
        rels.append((f"{s}_xfork", [(ONE, (s, xm)), (ONE, (xn, s)), (k, ()), (-k, (cn, cm))]))
        rels.append((f"{s}_xfork2", [(ONE, (s, xn)), (ONE, (xm, s)), (k, ()), (-k, (cm, cn))]))
        for j in range(1, n - 1):
            rels.append((f"{s}_x{j}", [(ONE, (s, f"x{j}")), (-ONE, (f"x{j}", s))]))

    # Braid relations of the group.
    for t in range(1, n - 1):
        a, b = names[t - 1], names[t]
        rels.append((f"braid_{a}", [(ONE, (a, b, a)), (-ONE, (b, a, b))]))
    for t in range(1, n):
        for u in range(t + 2, n):
            a, b = names[t - 1], names[u - 1]
            rels.append((f"comm_{a}_{b}", [(ONE, (a, b)), (-ONE, (b, a))]))
    if params.type == "B" and n >= 2:
        a, b = names[n - 2], names[n - 1]
        rels.append((f"braid_{b}", [(ONE, (a, b, a, b)), (-ONE, (b, a, b, a))]))
        for a in names[: n - 2]:
            rels.append((f"comm_{a}_{b}", [(ONE, (a, b)), (-ONE, (b, a))]))
    if params.type == "D" and n >= 2:
        b = names[n - 1]
        for t, a in enumerate(names[: n - 1], start=1):
            if t == n - 2:
                rels.append((f"braid_{b}", [(ONE, (a, b, a)), (-ONE, (b, a, b))]))
            else:
                rels.append((f"comm_{a}_{b}", [(ONE, (a, b)), (-ONE, (b, a))]))
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
