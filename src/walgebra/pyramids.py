"""Pyramids of shape lambda and the gradings of gl_N they induce.

A pyramid stacks the rows of the Young diagram of lambda as boxes two units
wide.  Row r (r = 0 is the bottom row) starts at column left[r]; its boxes
sit at columns left[r], left[r]+2, ..., left[r]+2(lam_r - 1).  The bottom
row is anchored at left[0] = 1 - lam_1 and rows may shift by arbitrary
integers as long as the staircase condition holds: going up, left edges are
weakly increasing and right edges weakly decreasing.

Boxes are labeled 0..N-1 by columns left to right, and top to bottom inside
a column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gl import GlElement, Grading
from .partitions import Partition


@dataclass(frozen=True)
class Pyramid:
    shape: Partition
    left: tuple[int, ...]

    def __post_init__(self):
        lam = self.shape
        left = tuple(int(v) for v in self.left)
        object.__setattr__(self, "left", left)
        if len(left) != lam.rows:
            raise ValueError("one left offset per row required")
        if lam.rows and left[0] != 1 - lam.parts[0]:
            raise ValueError("bottom row must start at 1 - lambda_1")
        for r in range(lam.rows - 1):
            if left[r + 1] < left[r]:
                raise ValueError("left edges must weakly increase going up")
            if self.right(r + 1) > self.right(r):
                raise ValueError("right edges must weakly decrease going up")

    def right(self, r: int) -> int:
        """Column of the rightmost box of row r."""
        return self.left[r] + 2 * (self.shape.parts[r] - 1)

    @property
    def n(self) -> int:
        return self.shape.n

    def boxes(self) -> list[tuple[int, int]]:
        """All (row, position) pairs, position counted from the left."""
        return [(r, k) for r in range(self.shape.rows)
                for k in range(self.shape.parts[r])]

    def column(self, r: int, k: int) -> int:
        return self.left[r] + 2 * k

    def to_json(self) -> dict:
        return {"shape": self.shape.to_json(), "left": list(self.left)}

    @staticmethod
    def from_json(data) -> "Pyramid":
        return Pyramid(Partition.from_json(data["shape"]), tuple(data["left"]))


@dataclass(frozen=True)
class Labeling:
    """Bijection between boxes and labels 0..N-1 in the canonical order."""

    pyramid: Pyramid
    box_of: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return self.pyramid.n

    def label_of(self, r: int, k: int) -> int:
        return self.box_of.index((r, k))

    def column(self, label: int) -> int:
        r, k = self.box_of[label]
        return self.pyramid.column(r, k)

    def row(self, label: int) -> int:
        return self.box_of[label][0]

    def right_neighbor(self, label: int) -> int | None:
        r, k = self.box_of[label]
        if k + 1 < self.pyramid.shape.parts[r]:
            return self.label_of(r, k + 1)
        return None


def labeling(p: Pyramid) -> Labeling:
    """Canonical labeling: columns ascending, top box of a column first."""
    boxes = sorted(p.boxes(), key=lambda rk: (p.column(*rk), -rk[0]))
    return Labeling(p, tuple(boxes))


def enumerate_pyramids(lam: Partition) -> list[Pyramid]:
    """All pyramids of shape lam, ordered lexicographically by left offsets."""
    if lam.rows == 0:
        return [Pyramid(lam, ())]
    results: list[Pyramid] = []

    def extend(left: list[int]):
        r = len(left)
        if r == lam.rows:
            results.append(Pyramid(lam, tuple(left)))
            return
        lo = left[-1]
        hi = left[-1] + 2 * (lam.parts[r - 1] - lam.parts[r])
        for v in range(lo, hi + 1):
            extend(left + [v])

    extend([1 - lam.parts[0]])
    return results


def nilpotent_of(p: Pyramid) -> GlElement:
    """The nilpotent sum of E_{i, R(i)} over boxes i with a right neighbor."""
    lab = labeling(p)
    entries = {}
    for i in range(p.n):
        r = lab.right_neighbor(i)
        if r is not None:
            entries[(i, r)] = 1
    return GlElement(p.n, entries)


def grading_of(p: Pyramid) -> Grading:
    """Weights -col_i per box; E_ij then has degree col_j - col_i."""
    lab = labeling(p)
    return Grading.from_weights([-lab.column(i) for i in range(p.n)])


def is_even(p: Pyramid) -> bool:
    """Even iff all rows share one column parity (no straddling boxes)."""
    parities = {l % 2 for l in p.left}
    return len(parities) <= 1


def is_symmetric(p: Pyramid) -> bool:
    """Symmetric iff every row is centered about column zero."""
    return all(p.left[r] == -p.right(r) for r in range(p.shape.rows))


def dynkin_pyramid(lam: Partition) -> Pyramid:
    """The centered pyramid; its grading is the Dynkin grading."""
    return Pyramid(lam, tuple(1 - part for part in lam.parts))


def rows_by_labels(p: Pyramid) -> list[list[int]]:
    """Labels of each row, left to right."""
    lab = labeling(p)
    return [[lab.label_of(r, k) for k in range(p.shape.parts[r])]
            for r in range(p.shape.rows)]


def french_pyramid(lam: Partition) -> Pyramid:
    """The Young diagram in French fashion: all rows flush left."""
    return Pyramid(lam, tuple([1 - lam.parts[0]] * lam.rows))


def diagram_column(p: Pyramid, label: int) -> int:
    """1-based column index of a box inside a flush-left (French) pyramid."""
    lab = labeling(p)
    c = lab.column(label)
    return (c - (1 - p.shape.parts[0])) // 2 + 1
