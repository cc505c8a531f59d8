"""Exact rational sparse linear algebra.

Everything here runs over Fraction; there is no floating point anywhere in
the package.  One elimination core serves rank, kernel_basis and solve: it
is fraction-free (integer-preserving, Bareiss-style) with partial pivoting
by smallest-magnitude nonzero pivot, ties broken by (row, col)
lexicographic order, and kernel_basis and solve share its
back-substitution, so every derived basis is reproducible bit for bit.
Echelon keeps an incremental span for membership tests, and add_scaled is
the one sparse accumulator of the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def add_scaled(dst: dict, src: dict, c=1) -> dict:
    """dst += c * src in place, dropping keys whose value becomes zero."""
    for k, v in src.items():
        v = dst.get(k, 0) + c * v
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)
    return dst


class SparseMatrix:
    """Immutable sparse matrix over Fraction; zero entries are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), v in dict(entries).items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                v = Fraction(v)
                if v:
                    clean[(i, j)] = v
        self.entries = clean

    def get(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    def mul_vector(self, vec) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.entries.items():
            out[i] += v * vec[j]
        return out

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


def _integer_rows(m: SparseMatrix) -> list[dict[int, int]]:
    """Rows rescaled to integers (does not change row space or kernel)."""
    rows = [dict() for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    out = []
    for r in rows:
        if not r:
            out.append({})
            continue
        mult = 1
        for v in r.values():
            mult = mult * v.denominator // gcd(mult, v.denominator)
        row = {j: int(v * mult) for j, v in r.items()}
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if g > 1:
            row = {j: v // g for j, v in row.items()}
        out.append(row)
    return out


def _eliminate(rows: list[dict[int, int]], ncols: int):
    """Fraction-free row echelon reduction in place.

    Returns the pivots as (row_index, col) pairs in elimination order.
    Rows hold integers throughout: elimination steps cross-multiply and the
    updated row is stripped by its gcd, which keeps rows without a pivot
    entry untouched (good for sparsity) while bounding growth in practice.
    """
    pivots: list[tuple[int, int]] = []
    used = [False] * len(rows)
    for col in range(ncols):
        best = None
        for i, r in enumerate(rows):
            if used[i]:
                continue
            v = r.get(col)
            if v:
                key = (abs(v), i)
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        pi = best[1]
        used[pi] = True
        prow = rows[pi]
        pval = prow[col]
        for i, r in enumerate(rows):
            if used[i] or col not in r:
                continue
            f = r[col]
            new = {}
            g = 0
            for j in set(prow) | set(r):
                val = pval * r.get(j, 0) - f * prow.get(j, 0)
                if val:
                    new[j] = val
                    g = gcd(g, val)
            if g > 1:
                new = {j: v // g for j, v in new.items()}
            rows[i] = new
        pivots.append((pi, col))
    return pivots


def rank(m: SparseMatrix) -> int:
    """Rank over the rationals by fraction-free elimination."""
    rows = _integer_rows(m)
    return len(_eliminate(rows, m.cols))


def _kernel_vector(rows: list[dict[int, int]], pivots, ncols: int,
                   free: int) -> list[Fraction]:
    """Kernel vector with the given free variable 1 and the others 0.

    Pivot variables are back-substituted from the rightmost pivot leftwards;
    since pivot rows are in echelon form, the vector is supported on the
    free column and pivot columns left of it.
    """
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for ri, col in reversed(pivots):
        r = rows[ri]
        s = Fraction(0)
        for j, v in r.items():
            if j != col:
                s += v * vec[j]
        vec[col] = -s / r[col]
    return vec


def kernel_basis(m: SparseMatrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the null space; one vector per free column.

    The free variable of each vector is set to 1 and pivot variables are
    back-substituted, so the basis is deterministic.
    """
    rows = _integer_rows(m)
    pivots = _eliminate(rows, m.cols)
    pivot_cols = {col for _, col in pivots}
    return [tuple(_kernel_vector(rows, pivots, m.cols, fc))
            for fc in range(m.cols) if fc not in pivot_cols]


def solve(m: SparseMatrix, rhs) -> tuple[Fraction, ...] | None:
    """Some exact solution of m x = rhs, or None when inconsistent.

    Eliminates [m | -rhs]; the system is inconsistent exactly when the last
    column gets a pivot.  Otherwise the solution is that column's kernel
    vector cut to m.cols entries, so free variables are 0.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug_entries = dict(m.entries)
    for i, v in enumerate(rhs):
        aug_entries[(i, m.cols)] = -Fraction(v)
    aug = SparseMatrix(m.rows, m.cols + 1, aug_entries)
    rows = _integer_rows(aug)
    pivots = _eliminate(rows, aug.cols)
    if pivots and pivots[-1][1] == m.cols:
        return None
    return tuple(_kernel_vector(rows, pivots, aug.cols, m.cols)[:m.cols])


class Echelon:
    """Incremental echelon form for spans of sparse vectors with sortable keys.

    Vectors are dicts key -> Fraction.  The pivot of a vector is its largest
    key, so nested filtrations can be read off pivot keys directly.
    """

    def __init__(self):
        self.pivots: dict = {}

    def reduce(self, vec: dict) -> dict:
        vec = {k: Fraction(v) for k, v in vec.items() if v}
        while vec:
            lead = max(vec)
            if lead not in self.pivots:
                return vec
            base = self.pivots[lead]
            add_scaled(vec, base, -vec[lead] / base[lead])
        return vec

    def insert(self, vec: dict) -> bool:
        """Reduce and insert; returns True when the vector was new."""
        red = self.reduce(vec)
        if not red:
            return False
        lead = max(red)
        c = red[lead]
        self.pivots[lead] = {k: v / c for k, v in red.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.pivots)
