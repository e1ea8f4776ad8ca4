"""Root systems and signed-permutation Weyl groups for types A, B and D.

Roots are stored symbolically (difference, sum or single-coordinate kind)
rather than as vectors, which keeps the positive-root ordering and the
long/short classification explicit.  Group elements are signed permutations
in window notation.  The engine and the modules step down by left descents
read off the window (`left_descent`).  Whole reduced words, from a
breadth-first search over the Cayley graph, serve only `reduced_word` and
`elements`, which the tests and the perfbench tracer call; the search is
trivially correct at the desk scales this package targets (group order at
most a few thousand).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, partial

_KINDS = ("diff", "sum", "short")


class Root(namedtuple("Root", "kind i j")):
    """A root e_i - e_j (diff), e_i + e_j (sum) or e_i (short)."""

    __slots__ = ()

    def __new__(cls, kind: str, i: int, j: int = 0) -> Root:
        if kind not in _KINDS:
            raise ValueError(f"unknown root kind {kind!r}")
        if kind == "short":
            if j != 0 or i < 1:
                raise ValueError("short root takes a single index")
        elif not 1 <= i < j:
            raise ValueError("diff/sum roots require 1 <= i < j")
        return super().__new__(cls, kind, i, j)

    def coords(self) -> dict[int, int]:
        if self.kind == "diff":
            return {self.i: 1, self.j: -1}
        if self.kind == "sum":
            return {self.i: 1, self.j: 1}
        return {self.i: 1}

    def length_sq(self) -> int:
        """|<alpha, alpha>|: 2 for diff/sum roots, 1 for short ones."""
        return 1 if self.kind == "short" else 2

    def __str__(self) -> str:
        if self.kind == "diff":
            return f"e{self.i}-e{self.j}"
        if self.kind == "sum":
            return f"e{self.i}+e{self.j}"
        return f"e{self.i}"


class SignedPerm(tuple):
    """A signed permutation: the window (w(1), ..., w(n)) as a tuple, so that
    hashing and equality, on every PBW basis word and memo key, run in C.

    The constructor checks windows that come from outside.  Products and
    inverses skip the check, as signed permutations are closed under both.
    """

    __slots__ = ()

    def __new__(cls, images) -> SignedPerm:
        self = tuple.__new__(cls, images)
        if sorted(abs(v) for v in self) != list(range(1, len(self) + 1)):
            raise ValueError(f"not a signed permutation: {tuple(self)}")
        return self

    @classmethod
    def identity(cls, n: int) -> SignedPerm:
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self)

    def image(self, i: int) -> int:
        """Signed image of a signed index: w(-i) = -w(i)."""
        return self[i - 1] if i > 0 else -self[-i - 1]

    def __mul__(self, other: SignedPerm) -> SignedPerm:
        """Composition (self * other)(i) = self(other(i))."""
        if len(self) != len(other):
            raise ValueError("rank mismatch")
        return _UNCHECKED([self[v - 1] if v > 0 else -self[-v - 1] for v in other])

    def inverse(self) -> SignedPerm:
        images = [0] * len(self)
        for i, v in enumerate(self, start=1):
            images[abs(v) - 1] = i if v > 0 else -i
        return _UNCHECKED(images)

    def is_identity(self) -> bool:
        return self == tuple(range(1, len(self) + 1))

    def neg_count(self) -> int:
        return sum(1 for v in self if v < 0)

    def act_root(self, root: Root) -> tuple[Root, int]:
        """Image of a root, returned as (positive root, sign)."""
        out: dict[int, int] = {}
        for idx, coef in root.coords().items():
            v = self.image(idx)
            out[abs(v)] = coef * (1 if v > 0 else -1)
        items = sorted(out.items())
        if len(items) == 1:
            ((a, ca),) = items
            return Root("short", a), ca
        (a, ca), (b, cb) = items
        if ca == cb:
            return Root("sum", a, b), ca
        return Root("diff", a, b), ca

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self) + "]"

    def __repr__(self) -> str:
        return f"SignedPerm(images={tuple(self)!r})"


# A SignedPerm from a window known to be a signed permutation.
_UNCHECKED = partial(tuple.__new__, SignedPerm)


def reflection_perm(root: Root, n: int) -> SignedPerm:
    """The orthogonal reflection s_alpha as a signed permutation."""
    images = list(range(1, n + 1))
    if root.kind == "diff":
        images[root.i - 1], images[root.j - 1] = root.j, root.i
    elif root.kind == "sum":
        images[root.i - 1], images[root.j - 1] = -root.j, -root.i
    else:
        images[root.i - 1] = -root.i
    return SignedPerm(tuple(images))


class RootSystemCtx:
    """Root system data for one of R(A_{n-1}), R(B_n), R(D_n)."""

    def __init__(self, type: str, n: int):
        if type not in ("A", "B", "D"):
            raise ValueError(f"unknown type {type!r}")
        if n < 1:
            raise ValueError("rank must be at least 1")
        self.type = type
        self.n = n

    def __repr__(self) -> str:
        return f"RootSystemCtx({self.type!r}, {self.n})"

    @cached_property
    def positive_roots(self) -> list[Root]:
        """Deterministic order: diff roots lexicographically, then sums, then shorts."""
        n = self.n
        roots = [Root("diff", i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        if self.type in ("B", "D"):
            roots += [Root("sum", i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        if self.type == "B":
            roots += [Root("short", i) for i in range(1, n + 1)]
        return roots

    @cached_property
    def _positive_set(self) -> frozenset[Root]:
        return frozenset(self.positive_roots)

    def contains_root(self, root: Root) -> bool:
        return root in self._positive_set

    @cached_property
    def simple_roots(self) -> list[Root]:
        n = self.n
        simples = [Root("diff", i, i + 1) for i in range(1, n)]
        if self.type == "B":
            simples.append(Root("short", n))
        elif self.type == "D" and n >= 2:
            simples.append(Root("sum", n - 1, n))
        return simples

    @cached_property
    def simple_reflections(self) -> list[SignedPerm]:
        return [reflection_perm(root, self.n) for root in self.simple_roots]

    @cached_property
    def simple_names(self) -> list[str]:
        """The generator names of simple_reflections, in the same order:
        s1..s(n-1), then sn (type B) or sd (the type-D fork s_{n-1,-n})."""
        names = [f"s{t}" for t in range(1, self.n)]
        if len(self.simple_roots) > len(names):
            names.append("sn" if self.type == "B" else "sd")
        return names

    def reflection(self, root: Root) -> SignedPerm:
        if not self.contains_root(root):
            raise ValueError(f"{root} is not a positive root of {self.type}_{self.n}")
        return reflection_perm(root, self.n)

    def is_member(self, w: SignedPerm) -> bool:
        if w.n != self.n:
            return False
        if self.type == "A":
            return w.neg_count() == 0
        if self.type == "D":
            return w.neg_count() % 2 == 0
        return True

    def _build_words(self) -> dict[SignedPerm, list[int]]:
        """BFS over the Cayley graph; words multiply left-to-right to w."""
        identity = SignedPerm.identity(self.n)
        words: dict[SignedPerm, list[int]] = {identity: []}
        frontier = [identity]
        simples = self.simple_reflections
        while frontier:
            next_frontier = []
            for w in frontier:
                word = words[w]
                for idx, s in enumerate(simples):
                    w2 = w * s
                    if w2 not in words:
                        words[w2] = word + [idx]
                        next_frontier.append(w2)
            frontier = next_frontier
        return words

    @cached_property
    def _word_table(self) -> dict[SignedPerm, list[int]]:
        return self._build_words()

    def left_descent(self, w: SignedPerm) -> int | None:
        """The least index i with l(s_i w) < l(w), read off the window; None for w = 1.

        s_i is a left descent when w^{-1} maps its simple root to a negative
        root.  For a = w^{-1}(i) and b = w^{-1}(i+1) as signed indices, the
        image e_a - e_b (e_a + e_b for the type-D fork) is negative when its
        entry at the smaller |index| is, and the short root e_n goes to e_a
        for a = w^{-1}(n).  This is the first letter of `reduced_word(w)`,
        the least reduced word, as the breadth-first search finds it.
        """
        inv = w.inverse()
        for i, (a, b) in enumerate(zip(inv, inv[1:])):
            if (a < 0) if abs(a) < abs(b) else (b > 0):
                return i
        if self.type == "B" and inv[-1] < 0:
            return self.n - 1
        if self.type == "D" and self.n >= 2:
            a, b = inv[-2:]
            if (a < 0) if abs(a) < abs(b) else (b < 0):
                return self.n - 1
        return None

    def reduced_word(self, w: SignedPerm) -> list[int]:
        """Indices into simple_reflections whose ordered product is w."""
        try:
            return list(self._word_table[w])
        except KeyError:
            raise ValueError(f"{w} does not lie in W({self.type}_{self.n})") from None

    def elements(self) -> list[SignedPerm]:
        """All group elements, in a deterministic BFS-then-window order."""
        return sorted(self._word_table)
