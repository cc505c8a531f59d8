"""The good-grading polytope of a nilpotent in gl_N.

Everything is phrased on the Jordan-adapted basis: e is the block Jordan
matrix of lambda, basis vectors are indexed by (row, position) in row-major
order, and a toral point p acts on every vector of row r by the scalar p_r.
The grading of p is the eigenvalue decomposition of ad(h + p) with h the
block-diagonal principal sl2 semisimple element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .gl import GlElement, Grading
from .linalg import Echelon
from .partitions import Partition, jordan_matrix
from .pyramids import Pyramid
from .structure import m_from_isotropic, symplectic_basis, unit_coords


@dataclass(frozen=True)
class RestrictedWeight:
    """Weight p -> p[target] - p[source] of the row torus, source != target."""

    source: int
    target: int

    def value(self, p) -> Fraction:
        return Fraction(p[self.target]) - Fraction(p[self.source])


def _h_value(lam: Partition, r: int, k: int) -> int:
    """ad h eigenvalue of basis vector k of Jordan block r (principal sl2)."""
    return lam.parts[r] - 1 - 2 * k


def _weight_space_h_eigenvalues(lam: Partition, r: int, s: int) -> list[int]:
    """ad h eigenvalues on the span of E_ij with row(i) = s, row(j) = r."""
    return [_h_value(lam, s, ks) - _h_value(lam, r, kr)
            for ks in range(lam.parts[s]) for kr in range(lam.parts[r])]


def minimal_sl2_dim(eigenvalues: list[int]) -> int:
    """Smallest constituent dimension from ad h eigenvalue multiplicities.

    The number of irreducible summands of highest weight w equals
    mult(w) - mult(w + 2); the minimum w with a positive count gives the
    smallest constituent, of dimension w + 1.
    """
    mult: dict[int, int] = {}
    for v in eigenvalues:
        mult[v] = mult.get(v, 0) + 1
    for w in sorted(v for v in mult if v >= 0):
        if mult[w] - mult.get(w + 2, 0) > 0:
            return w + 1
    raise AssertionError("no sl2 constituent found")


def weights_and_d(lam: Partition) -> list[tuple[RestrictedWeight, int]]:
    """All restricted weights with the bound d entering the polytope.

    d is one more than the smallest dimension of an irreducible sl2
    constituent of the weight space, computed by brute-force eigenvalue
    counting rather than any closed formula.
    """
    out = []
    for r in range(lam.rows):
        for s in range(lam.rows):
            if r == s:
                continue
            d = minimal_sl2_dim(_weight_space_h_eigenvalues(lam, r, s))
            out.append((RestrictedWeight(r, s), d))
    return out


def is_good_point(lam: Partition, p) -> bool:
    """Membership of p in the open good-grading polytope."""
    if len(p) != lam.rows:
        raise ValueError("one coordinate per row required")
    for alpha, d in weights_and_d(lam):
        if abs(alpha.value(p)) >= d:
            return False
    return True


def grading_of_point(lam: Partition, p) -> Grading:
    """The grading ad(h + p) on the Jordan-adapted basis."""
    weights = []
    for r in range(lam.rows):
        for k in range(lam.parts[r]):
            weights.append(Fraction(p[r]) + _h_value(lam, r, k))
    return Grading.from_weights(weights)


def _normalize(p) -> tuple[Fraction, ...]:
    p = [Fraction(v) for v in p]
    if not p:
        return ()
    lo = min(p)
    return tuple(v - lo for v in p)


def point_of_pyramid(py: Pyramid) -> tuple[Fraction, ...]:
    """Toral point whose grading matches the pyramid's, smallest entry 0."""
    lam = py.shape
    return _normalize([-(py.left[r] + lam.parts[r]) for r in range(lam.rows)])


def pyramid_of_point(lam: Partition, p) -> Pyramid:
    """Inverse of point_of_pyramid, defined on integral good points."""
    p = [Fraction(v) for v in p]
    if any(v.denominator != 1 for v in p):
        raise ValueError("point must be integral")
    if not is_good_point(lam, p):
        raise ValueError("point is not in the good-grading polytope")
    left = tuple(int(1 + p[0] - p[r] - lam.parts[r]) for r in range(lam.rows))
    return Pyramid(lam, left)


def integral_good_points(lam: Partition) -> list[tuple[int, ...]]:
    """Integral points of the polytope, one representative per shift class.

    The all-ones direction acts trivially, so representatives are pinned by
    p[0] = 0; bounds for the search box come from the weights against row 0.
    """
    if lam.rows == 1:
        return [(0,)]
    bound = {}
    for alpha, d in weights_and_d(lam):
        if alpha.source == 0:
            bound[alpha.target] = d
    ranges = [range(-bound[r] + 1, bound[r]) for r in range(1, lam.rows)]
    out = []

    def rec(prefix: list[int]):
        if len(prefix) == lam.rows:
            if is_good_point(lam, prefix):
                out.append(tuple(prefix))
            return
        for v in ranges[len(prefix) - 1]:
            rec(prefix + [v])

    rec([0])
    return out


def _common_unit_interval(a: Fraction, b: Fraction) -> bool:
    lo, hi = (a, b) if a <= b else (b, a)
    return math.floor(lo) + 1 >= hi


def adjacent(lam: Partition, p, q) -> bool:
    """Two good points give adjacent gradings iff each matrix-unit degree
    pair lies in one closed integer unit interval."""
    for pt in (p, q):
        if not is_good_point(lam, pt):
            raise ValueError("points must be good")
    gp = grading_of_point(lam, p)
    gq = grading_of_point(lam, q)
    n = lam.n
    return all(_common_unit_interval(gp.degree(i, j), gq.degree(i, j))
               for i in range(n) for j in range(n))


def adjacency_chain(lam: Partition, p, q) -> list[tuple[Fraction, ...]]:
    """Chain of good points from p to q with consecutive members adjacent.

    The straight segment stays inside the open convex polytope; emitting the
    points where some restricted weight crosses an integer splits it into
    pieces, each contained in the closure of a single alcove.
    """
    p = tuple(Fraction(v) for v in p)
    q = tuple(Fraction(v) for v in q)
    for pt in (p, q):
        if not is_good_point(lam, pt):
            raise ValueError("points must be good")
    if p == q:
        return [p]
    crossings: set[Fraction] = set()
    for alpha, _ in weights_and_d(lam):
        a0 = alpha.value(p)
        a1 = alpha.value(q)
        delta = a1 - a0
        if delta == 0:
            continue
        lo, hi = (a0, a1) if a0 <= a1 else (a1, a0)
        for k in range(math.floor(lo), math.ceil(hi) + 1):
            t = (Fraction(k) - a0) / delta
            if 0 < t < 1:
                crossings.add(t)
    points = [p]
    for t in sorted(crossings):
        pt = tuple(a + t * (b - a) for a, b in zip(p, q))
        if pt != points[-1]:
            points.append(pt)
    if q != points[-1]:
        points.append(q)
    return points


def common_m_for_adjacent(lam: Partition, p, q):
    """For adjacent gradings, isotropic choices making the two m's equal.

    Takes a Lagrangian of the intersection of the two degree -1 spaces and
    pads it with the units falling below -1 on the other side; returns the
    two m bases and whether their spans agree.  Raises ValueError when the
    form on the intersection is degenerate.
    """
    if not adjacent(lam, p, q):
        raise ValueError("points are not adjacent")
    e = jordan_matrix(lam)
    gp = grading_of_point(lam, p)
    gq = grading_of_point(lam, q)
    n = lam.n
    both = [(i, j) for i in range(n) for j in range(n)
            if gp.degree(i, j) == -1 and gq.degree(i, j) == -1]
    p_only = [(i, j) for i in range(n) for j in range(n)
              if gp.degree(i, j) == -1 and gq.degree(i, j) < -1]
    q_only = [(i, j) for i in range(n) for j in range(n)
              if gq.degree(i, j) == -1 and gp.degree(i, j) < -1]

    # The p half of a symplectic basis of the intersection is a Lagrangian.
    lagr, _ = symplectic_basis(both, e)
    l_p = lagr + [GlElement.unit(n, i, j) for (i, j) in p_only]
    l_q = lagr + [GlElement.unit(n, i, j) for (i, j) in q_only]
    m_p = m_from_isotropic(gp, e, l_p)
    m_q = m_from_isotropic(gq, e, l_q)

    span_p, span_q = Echelon(), Echelon()
    for x in m_p.basis:
        span_p.insert(unit_coords(x))
    for x in m_q.basis:
        span_q.insert(unit_coords(x))
    equal = (span_p.dim == span_q.dim
             and all(span_p.contains(unit_coords(x)) for x in m_q.basis)
             and all(span_q.contains(unit_coords(x)) for x in m_p.basis))
    return m_p, m_q, equal
