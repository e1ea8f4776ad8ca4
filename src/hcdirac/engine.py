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
group tail, so these tables grow with the x-degrees met.  A new entry w x^b
is one step s ((sw) x^b) from the entry of the shorter sw, for the least left
descent s of w.  The Seg lookups u c^f (keys W x masks), uv (keys W x W) and
the module-level `cliff_mul` (keys masks x masks) are bounded by the group.
The three straightening tables store +-1 only as the singletons ONE and
MINUS_ONE, so `_mono_product`, and `_signed_product` when a new entry is
built from older ones, recognise a unit structure constant by `is` and take
it by value, with no product.  `multiply` builds no per-word result:
`_mono_product` adds ca*cb times each product of basis words straight into
one dict.  Words and memo keys are tuples all the way down (`SignedPerm`
too), so they hash in C.  `algebra_for` keeps the engines, and so their
tables, of the 8 parameter sets used last.

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
    new = terms.get(key, ZERO) + coef
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


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
        if self.params != other.params:
            raise ValueError("params mismatch")
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            _add_term(out, mono, coef)
        return AlgElem(self.params, out)

    def __sub__(self, other: AlgElem) -> AlgElem:
        return self + (-other)

    def __neg__(self) -> AlgElem:
        return AlgElem(self.params, {m: -c for m, c in self.terms.items()})

    def scale(self, scalar: Scalar) -> AlgElem:
        if not scalar:
            return AlgElem(self.params)
        return AlgElem(self.params, {m: c * scalar for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgElem):
            return multiply(self.params, self, other)
        coerced = Scalar._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.scale(coerced)

    def __rmul__(self, other):
        coerced = Scalar._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.scale(coerced)

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
        # Seg-part lookups: keys range over W x masks and W x W, so bounded.
        self._perm_cliff_cache: dict[tuple[SignedPerm, int], tuple[int, int]] = {}
        self._group_cache: dict[tuple[SignedPerm, SignedPerm], SignedPerm] = {}
        self._id = SignedPerm.identity(params.n)
        self._zero_exps = (0,) * params.n
        self._units = [_shift(self._zero_exps, i, 1) for i in range(1, params.n + 1)]

    # -- element constructors ------------------------------------------------

    def zero(self) -> AlgElem:
        return AlgElem(self.params)

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
            s = self.push_ctx.simple_reflections[idx]
            return self._sx_cache.setdefault(key, ((b, 0, s, ONE),))
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
        """w * x^exps in normal form, as ((exps1, odd, cliff, u, coefficient), ...).

        One step from a shorter element: for the least left descent s of w
        (`RootSystemCtx.left_descent`), w x^b = s ((sw) x^b), and (sw) x^b is
        memoised.  Each term x^b1 c^g u of it meets s x^b1 = sum x^b2 c^h v,
        and c^h v c^g u = +-c^h c^{v(g)} vu.  `odd` is the mask of the odd
        entries of exps1, which is all that the sign of moving a Clifford
        word past x^exps1 depends on.
        """
        key = (w, exps)
        cached = self._wx_cache.get(key)
        if cached is not None:
            return cached
        idx = self.push_ctx.left_descent(w) if any(exps) else None
        if idx is None:  # w = 1, or w x^0 = w
            cached = ((exps, _odd_mask(exps), 0, w, ONE),)
        else:
            out: dict = {}
            sw = self._group_mul(self.push_ctx.simple_reflections[idx], w)
            for b1, _, g, u, coef in self._w_times_x(sw, exps):
                for b2, h, v, coef2 in self._s_times_x(idx, b1):
                    sign, moved = self._perm_on_cliff(v, g)
                    s2, mask = cliff_mul(h, moved)
                    _add_term(out, (b2, mask, self._group_mul(v, u)),
                              _signed_product(sign * s2, coef, coef2))
            cached = tuple((b, _odd_mask(b), g, u, UNITS.get(c, c))
                           for (b, g, u), c in out.items())
        self._wx_cache[key] = cached
        return cached

    def _perm_on_cliff(self, u: SignedPerm, mask: int) -> tuple[int, int]:
        key = (u, mask)
        cached = self._perm_cliff_cache.get(key)
        if cached is None:
            cached = self._perm_cliff_cache[key] = perm_on_cliff(u, mask)
        return cached

    def _group_mul(self, u: SignedPerm, v: SignedPerm) -> SignedPerm:
        key = (u, v)
        cached = self._group_cache.get(key)
        if cached is None:
            cached = self._group_cache[key] = u * v
        return cached

    def _mono_product(self, out: Terms, left: PbwMonomial, right: PbwMonomial,
                      scale: Scalar) -> None:
        """Add scale * (x^a c^e w)(x^b c^f v) to `out`, factored through Seg.

        1. T = w x^b = sum x^b1 c^g u, memoised on (w, b).
        2. c^e x^b1 = (-1)^{sum_{i in e} b1_i} x^b1 c^e, then c^e c^g.
        3. x^a x^b1 = sum x^b2 c^h, memoised on (a, b1).
        4. c^g u c^f v = +-c^g c^{u(f)} uv, with u(f) and uv read from
           tables keyed by W x masks and W x W, which the group bounds.

        Only steps 1 and 3 straighten; the rest is Clifford sign bookkeeping.
        The memo tables store +-1 as the singletons, so a unit structure
        constant is recognised by `is` and costs no product: a term of T
        forms c = scale * coef only for coef != +-1, and a term of step 3
        takes c or -c for coef2 = +-1, with -c formed at most once per term
        of T.  So a product is nonzero, and only a sum onto a word in `out`
        can cancel.
        """
        e, f, v, a = left.cliff, right.cliff, right.w, left.exps
        xx, perm_cliff, group = self._xx_cache, self._perm_cliff_cache, self._group_cache
        for b1, odd, g, u, coef in self._w_times_x(left.w, right.exps):
            sign, mask = cliff_mul(e, g)
            if (odd & e).bit_count() & 1:
                sign = -sign
            s, moved = perm_cliff.get((u, f)) or self._perm_on_cliff(u, f)
            s2, mask = cliff_mul(mask, moved)
            uv = group.get((u, v)) or self._group_mul(u, v)
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

    def multiply(self, a: AlgElem, b: AlgElem) -> AlgElem:
        if a.params != self.params or b.params != self.params:
            raise ValueError("params mismatch")
        out: Terms = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                self._mono_product(out, ma, mb, ca * cb)
        return AlgElem(self.params, out)


@lru_cache(maxsize=8)
def algebra_for(params: AlgebraParams) -> Algebra:
    """Shared engine instance for a parameter set.  The 8 most recently used
    stay, with their memo tables; an evicted one is only rebuilt, as engines
    are stateless apart from those tables."""
    return Algebra(params)


# ---------------------------------------------------------------------------
# Spec-level operations.


def multiply(params: AlgebraParams, a: AlgElem, b: AlgElem) -> AlgElem:
    return algebra_for(params).multiply(a, b)


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
    sign = -1 if (pa == "odd" and pb == "odd") else 1
    ab = multiply(params, a, b)
    ba = multiply(params, b, a)
    return ab - ba if sign > 0 else ab + ba


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
) -> dict:
    """Associativity of `trials` random triples, the engine's soundness oracle."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        a = random_element(params, rng, max_deg)
        b = random_element(params, rng, max_deg)
        c = random_element(params, rng, max_deg)
        left = multiply(params, multiply(params, a, b), c)
        right = multiply(params, a, multiply(params, b, c))
        if left != right:
            failures.append(
                {"trial": t, "a": a.to_string(), "b": b.to_string(), "c": c.to_string()}
            )
    return {
        "check": "pbw_consistency",
        "type": params.type,
        "n": params.n,
        "trials": trials,
        "max_deg": max_deg,
        "seed": seed,
        "status": "pass" if not failures else "fail",
        "failures": failures,
    }


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


def eval_relation_tokens(params: AlgebraParams, word: tuple[str, ...]) -> AlgElem:
    """Evaluate a relation word, a tuple of generator names, inside the engine."""
    alg = algebra_for(params)
    factors = [alg.generators[name] for name in word]
    return reduce(alg.multiply, factors) if factors else alg.one()


def check_relations_in_engine(params: AlgebraParams) -> dict:
    """Normalise LHS - RHS of every defining relation; all must vanish."""
    failures = []
    for name, terms in defining_relations(params):
        total = algebra_for(params).zero()
        for coef, word in terms:
            total = total + eval_relation_tokens(params, word).scale(coef)
        if not total.is_zero():
            failures.append({"relation": name, "residual": total.to_string()})
    return {
        "check": "relation_closure",
        "type": params.type,
        "n": params.n,
        "status": "pass" if not failures else "fail",
        "failures": failures,
    }
