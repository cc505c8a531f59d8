"""Exact rational sparse linear algebra.

Everything here runs over Fraction; there is no floating point anywhere in
the package.  Echelon is the one elimination engine: it keeps a span as
primitive integer rows in reduced echelon form, the pivot of a row being
its smallest key.  rank, kernel_basis and solve insert the rows of a matrix
into an Echelon, sparsest first, and read their results off the reduced
rows.  The reduced echelon form of a span is unique, so every derived basis
is reproducible bit for bit.  add_scaled is the one sparse accumulator of
the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def _primitive(row: dict) -> dict:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _clear(row: dict, base: dict, key) -> dict:
    """The primitive integer combination of row and base with no entry at key."""
    g = gcd(base[key], row[key])
    out = {k: base[key] // g * v for k, v in row.items()}
    return _primitive(add_scaled(out, base, -(row[key] // g)))


class Echelon:
    """Reduced echelon form of the span of sparse vectors with sortable keys.

    Vectors are dicts key -> rational.  The span is kept as primitive
    integer rows; the pivot of a row is its smallest key, and no row has an
    entry at another row's pivot.
    """

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, vec: dict) -> dict:
        """vec as a primitive integer row with no entry at any pivot."""
        vec = {k: Fraction(v) for k, v in vec.items() if v}
        mult = lcm(*(v.denominator for v in vec.values()))
        row = _primitive({k: v.numerator * (mult // v.denominator)
                          for k, v in vec.items()})
        # Stored rows have no entry at other pivots, so clearing one pivot
        # brings in no new one.
        for key in [k for k in row if k in self.rows]:
            row = _clear(row, self.rows[key], key)
        return row

    def insert(self, vec: dict) -> bool:
        """Reduce and insert; returns True when the vector was new."""
        row = self.reduce(vec)
        if not row:
            return False
        lead = min(row)
        for key, base in self.rows.items():
            if lead in base:
                self.rows[key] = _clear(base, row, lead)
        self.rows[lead] = row
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.rows)


def _row_echelon(m: SparseMatrix) -> Echelon:
    """Echelon of the rows of m, inserted sparsest first to keep fill-in low."""
    rows = [{} for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    span = Echelon()
    for row in sorted(rows, key=len):
        span.insert(row)
    return span


def _kernel_vector(span: Echelon, ncols: int, free: int) -> list[Fraction]:
    """Kernel vector with the given free variable 1 and the others 0."""
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for col, row in span.rows.items():
        if free in row:
            vec[col] = Fraction(-row[free], row[col])
    return vec


def rank(m: SparseMatrix) -> int:
    """Rank over the rationals."""
    return _row_echelon(m).dim


def kernel_basis(m: SparseMatrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the null space; one vector per free column.

    The vector of a free column has that variable 1 and the other free
    variables 0, so the basis is deterministic.
    """
    span = _row_echelon(m)
    return [tuple(_kernel_vector(span, m.cols, f))
            for f in range(m.cols) if f not in span.rows]


def solve(m: SparseMatrix, rhs) -> tuple[Fraction, ...] | None:
    """Some exact solution of m x = rhs, or None when inconsistent.

    Reduces [m | -rhs]; the system is inconsistent exactly when the last
    column gets a pivot.  Otherwise the solution is that column's kernel
    vector cut to m.cols entries, so free variables are 0.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug_entries = dict(m.entries)
    for i, v in enumerate(rhs):
        aug_entries[(i, m.cols)] = -Fraction(v)
    span = _row_echelon(SparseMatrix(m.rows, m.cols + 1, aug_entries))
    if m.cols in span.rows:
        return None
    return tuple(_kernel_vector(span, m.cols + 1, m.cols)[:m.cols])
