"""Partitions of n and the two weight maps attached to them.

phi1 sends a partition to the concatenation of the arithmetic strings
(-p+1, -p+3, ..., p-1) over its parts; phi2 records the square roots of the
induced-module central character j(j-1) blockwise.  Their squared Euclidean
norms agree and both equal sum_i (n_i - 1) n_i (n_i + 1) / 3, which the map
computes three independent ways and cross-checks.
"""

from __future__ import annotations

import re
from collections import namedtuple

_PART = re.compile(r"[+-]?[0-9]+")


class Partition(namedtuple("Partition", "parts")):
    """A partition as a non-increasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]) -> Partition:
        if not all(isinstance(p, int) and p > 0 for p in parts):
            raise ValueError(f"parts must be positive integers: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be non-increasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def has_distinct_parts(self) -> bool:
        return all(self.parts[i] > self.parts[i + 1] for i in range(len(self.parts) - 1))

    def blocks(self) -> list[tuple[int, int]]:
        """Half-open global index ranges (start+1 .. stop) of each part."""
        out = []
        start = 0
        for p in self.parts:
            out.append((start + 1, start + p))
            start += p
        return out

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> Partition:
        """The partition written as comma-separated ASCII integers, such as "3,1"."""
        parts = text.split(",")
        # int alone would also take "2_1", " 3" and non-ASCII digits.
        if not all(_PART.fullmatch(p) for p in parts):
            raise ValueError(f"parts must be ASCII integers: {text!r}")
        return cls(tuple(int(p) for p in parts))


def all_partitions(n: int) -> list[Partition]:
    """Every partition of n, in descending lexicographic order."""

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return [Partition(parts) for parts in gen(n, n)]


def distinct_partitions(n: int) -> list[Partition]:
    """Strictly decreasing partitions of n, descending lexicographic order."""
    return [p for p in all_partitions(n) if p.has_distinct_parts()]


def phi_maps(lam: Partition) -> tuple[tuple[int, ...], int, int]:
    """(phi1(lambda), |phi1|^2, |phi2|^2); asserts the norm identity."""
    phi1: list[int] = []
    for p in lam.parts:
        phi1.extend(range(-p + 1, p + 1, 2))
    norm1_sq = sum(v * v for v in phi1)
    norm2_sq = sum(j * (j - 1) for p in lam.parts for j in range(1, p + 1))
    closed = sum((p - 1) * p * (p + 1) for p in lam.parts)
    if closed % 3:
        raise AssertionError("norm closed form is not divisible by 3")
    closed //= 3
    if not norm1_sq == norm2_sq == closed:
        raise AssertionError(
            f"norm identity fails for {lam}: {norm1_sq}, {norm2_sq}, {closed}"
        )
    return tuple(phi1), norm1_sq, norm2_sq
