"""Sparse exact matrices in gl_N and diagonal-torus gradings.

Matrix units are indexed 0-based internally; the JSON layer renders them
1-based.  A Grading is a weight per basis vector; the degree of the matrix
unit E_ij is weights[i] - weights[j], so every matrix unit is homogeneous
and homogeneous components are spanned by matrix units.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import SparseMatrix, add_scaled


class GlElement:
    """Element of gl_N as a sparse dict (i, j) -> Fraction."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries=None):
        self.n = n
        clean: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), v in dict(entries).items():
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"entry ({i},{j}) outside gl_{n}")
                v = Fraction(v)
                if v:
                    clean[(i, j)] = v
        self.entries = clean

    @staticmethod
    def unit(n: int, i: int, j: int) -> "GlElement":
        return GlElement(n, {(i, j): 1})

    @staticmethod
    def identity(n: int) -> "GlElement":
        return GlElement(n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zero(n: int) -> "GlElement":
        return GlElement(n)

    def __add__(self, other: "GlElement") -> "GlElement":
        self._check(other)
        return GlElement(self.n, add_scaled(dict(self.entries), other.entries))

    def __sub__(self, other: "GlElement") -> "GlElement":
        self._check(other)
        return GlElement(self.n,
                         add_scaled(dict(self.entries), other.entries, -1))

    def scale(self, c) -> "GlElement":
        c = Fraction(c)
        return GlElement(self.n, {k: c * v for k, v in self.entries.items()})

    def matmul(self, other: "GlElement") -> "GlElement":
        self._check(other)
        cols: dict[int, list[tuple[int, Fraction]]] = {}
        for (k, j), v in other.entries.items():
            cols.setdefault(k, []).append((j, v))
        out: dict[tuple[int, int], Fraction] = {}
        for (i, k), a in self.entries.items():
            for j, b in cols.get(k, ()):
                key = (i, j)
                out[key] = out.get(key, Fraction(0)) + a * b
        return GlElement(self.n, out)

    def trace(self) -> Fraction:
        return sum((v for (i, j), v in self.entries.items() if i == j), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def to_sparse_matrix(self) -> SparseMatrix:
        return SparseMatrix(self.n, self.n, self.entries)

    def __eq__(self, other):
        return (isinstance(other, GlElement) and self.n == other.n
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.n, frozenset(self.entries.items())))

    def _check(self, other: "GlElement"):
        if self.n != other.n:
            raise ValueError("size mismatch")

    def __repr__(self):
        terms = []
        for (i, j) in sorted(self.entries):
            v = self.entries[(i, j)]
            coeff = "" if v == 1 else ("-" if v == -1 else f"{v}*")
            terms.append(f"{coeff}E{i + 1}{j + 1}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def bracket(x: GlElement, y: GlElement) -> GlElement:
    """Lie bracket xy - yx."""
    if x.n != y.n:
        raise ValueError("size mismatch")
    return x.matmul(y) - y.matmul(x)


def trace_form(a: GlElement, b: GlElement) -> Fraction:
    """The invariant bilinear form (a|b) = tr(ab)."""
    return a.matmul(b).trace()


def unit_index(n: int, i: int, j: int) -> int:
    return i * n + j


def ad_matrix(x: GlElement) -> SparseMatrix:
    """Matrix of ad(x) on gl_N in the matrix-unit basis, index (i,j) -> i*n+j.

    ad(x)(E_kl) = sum_i x_ik E_il - sum_j x_lj E_kj.
    """
    n = x.n
    entries: dict[tuple[int, int], Fraction] = {}
    for (i, k), v in x.entries.items():
        for l in range(n):
            key = (unit_index(n, i, l), unit_index(n, k, l))
            entries[key] = entries.get(key, Fraction(0)) + v
    for (l, j), v in x.entries.items():
        for k in range(n):
            key = (unit_index(n, k, j), unit_index(n, k, l))
            entries[key] = entries.get(key, Fraction(0)) - v
    return SparseMatrix(n * n, n * n, entries)


@dataclass(frozen=True)
class Grading:
    """Diagonal grading of gl_N: one weight per basis vector."""

    weights: tuple[Fraction, ...]

    @staticmethod
    def from_weights(ws) -> "Grading":
        return Grading(tuple(Fraction(w) for w in ws))

    @property
    def n(self) -> int:
        return len(self.weights)

    def degree(self, i: int, j: int) -> Fraction:
        """Degree of the matrix unit E_ij."""
        return self.weights[i] - self.weights[j]

    def is_integral(self) -> bool:
        return all((self.weights[i] - self.weights[j]).denominator == 1
                   for i in range(self.n) for j in range(self.n))

    def occupied_degrees(self) -> list[Fraction]:
        return sorted({self.degree(i, j) for i in range(self.n)
                       for j in range(self.n)})

    def units_of_degree(self, d) -> list[tuple[int, int]]:
        d = Fraction(d)
        return [(i, j) for i in range(self.n) for j in range(self.n)
                if self.degree(i, j) == d]

    def component_degree(self, x: GlElement) -> Fraction | None:
        """Degree of a homogeneous element, or None when x mixes degrees."""
        degs = {self.degree(i, j) for (i, j) in x.entries}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else Fraction(0)
