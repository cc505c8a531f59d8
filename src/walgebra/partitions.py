"""Partitions of N, Jordan matrices, and the nilpotent-orbit order on gl_N.

Orbit closure is implemented as dominance order on partitions (the classical
Gerstenhaber-Hesselink description).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gl import GlElement


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; the shape of a nilpotent orbit."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def to_json(self) -> list[int]:
        return list(self.parts)

    @staticmethod
    def from_json(data) -> "Partition":
        return Partition(tuple(data))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths of lam."""
    if not lam.parts:
        return Partition(())
    cols = lam.parts[0]
    return Partition(tuple(sum(1 for p in lam.parts if p > c) for c in range(cols)))


def centralizer_dim(lam: Partition) -> int:
    """dim of the centralizer of a nilpotent of Jordan type lam.

    Computed as sum_{i,j} min(lam_i, lam_j), which equals the sum of squared
    column lengths.
    """
    return sum(min(a, b) for a in lam.parts for b in lam.parts)


def jordan_matrix(lam: Partition) -> GlElement:
    """Block-diagonal nilpotent diag(J_{lam_1}, J_{lam_2}, ...)."""
    entries = {}
    offset = 0
    for p in lam.parts:
        for k in range(p - 1):
            entries[(offset + k, offset + k + 1)] = 1
        offset += p
    return GlElement(lam.n, entries)


def closure_leq(lam: Partition, mu: Partition) -> bool:
    """True iff the orbit of lam lies in the closure of the orbit of mu.

    Dominance order: every partial sum of lam is at most the matching
    partial sum of mu.
    """
    if lam.n != mu.n:
        raise ValueError("partitions must have equal size")
    acc_l = acc_m = 0
    for k in range(max(len(lam), len(mu))):
        acc_l += lam.parts[k] if k < len(lam) else 0
        acc_m += mu.parts[k] if k < len(mu) else 0
        if acc_l > acc_m:
            return False
    return True


@lru_cache(maxsize=None)
def _partition_tuples(n: int, cap: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in descending lexicographic order."""
    return [Partition(t) for t in _partition_tuples(n, n)]
