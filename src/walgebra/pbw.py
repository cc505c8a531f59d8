"""Exact computation in the universal enveloping algebra of gl_N.

Elements are stored in PBW normal form with respect to a fixed ordered
basis of gl_N attached to a context.  For a pyramid context the order puts
the nonnegative-degree matrix units first (by degree, then row, then
column), then the symplectic basis of the degree -1 component that is not
swallowed by the isotropic choice, and the m-symbols last.  Monomials are
written in ascending symbol order, so normal monomials carry their
m-symbols as a tail and reduction modulo the character ideal is a direct
substitution on that tail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .gl import GlElement, Grading
from .linalg import SparseMatrix, add_scaled, kernel_basis, solve
from .partitions import conjugate
from .pyramids import (Pyramid, diagram_column, french_pyramid, grading_of,
                       nilpotent_of)
from .structure import Chi, low_degree_units, symplectic_pairs

Word = tuple[int, ...]


@dataclass(frozen=True)
class Symbol:
    name: str
    gl: GlElement
    degree: int
    kind: str  # "p", "c" (degree -1 complement) or "m"
    chi: Fraction

    @property
    def kazhdan_degree(self) -> int:
        return self.degree + 2


class PbwContext:
    """Ordered basis of gl_N plus the straightening machinery on words."""

    def __init__(self, n: int, symbols: list[Symbol], grading: Grading,
                 pyramid: Pyramid | None = None,
                 n_basis: tuple[GlElement, ...] = (),
                 chi: Chi | None = None,
                 isotropic_rank: int | None = None):
        if len(symbols) != n * n:
            raise ValueError("symbol list must be a basis of gl_N")
        self.n = n
        self.symbols = symbols
        self.grading = grading
        self.pyramid = pyramid
        self.n_basis = n_basis
        self.chi = chi
        self.isotropic_rank = isotropic_rank
        self.m_indices = tuple(s for s, sym in enumerate(symbols)
                               if sym.kind == "m")
        self.complement_indices = tuple(s for s, sym in enumerate(symbols)
                                        if sym.kind != "m")
        if self.m_indices and min(self.m_indices) <= max(
                self.complement_indices, default=-1):
            raise ValueError("m-symbols must come last in the order")
        self._unit_expansion = self._compute_unit_expansions()
        self._bracket_cache: dict[tuple[int, int], tuple] = {}
        self._norm_cache: dict[Word, dict[Word, Fraction]] = {}

    # -- construction -----------------------------------------------------

    @staticmethod
    def standard(n: int) -> "PbwContext":
        """U(gl_N) with the matrix units in (row, col) order and no m."""
        symbols = [Symbol(f"E{i + 1}{j + 1}", GlElement.unit(n, i, j), 0,
                          "p", Fraction(0))
                   for i in range(n) for j in range(n)]
        grading = Grading.from_weights([0] * n)
        return PbwContext(n, symbols, grading)

    @staticmethod
    def from_pyramid(pyramid: Pyramid,
                     isotropic_rank: int | None = None) -> "PbwContext":
        """Context for the W-algebra data of a pyramid.

        isotropic_rank defaults to the Lagrangian choice (maximal rank).
        """
        n = pyramid.n
        grading = grading_of(pyramid)
        if not grading.is_integral():
            raise ValueError("pyramid gradings are integral")
        e = nilpotent_of(pyramid)
        ps, qs = symplectic_pairs(grading, e)
        s = len(ps)
        rank = s if isotropic_rank is None else isotropic_rank
        if not (0 <= rank <= s):
            raise ValueError(f"isotropic rank must lie in [0, {s}]")
        chi = Chi(e)

        symbols: list[Symbol] = []
        p_units = sorted(((int(grading.degree(i, j)), i, j)
                          for i in range(n) for j in range(n)
                          if grading.degree(i, j) >= 0))
        for d, i, j in p_units:
            symbols.append(Symbol(f"E{i + 1}{j + 1}", GlElement.unit(n, i, j),
                                  d, "p", Fraction(0)))
        for t, x in enumerate(ps[rank:], start=rank):
            symbols.append(Symbol(f"p{t + 1}", x, -1, "c", Fraction(0)))
        for t, x in enumerate(qs):
            symbols.append(Symbol(f"q{t + 1}", x, -1, "c", Fraction(0)))
        for t, x in enumerate(ps[:rank]):
            symbols.append(Symbol(f"p{t + 1}", x, -1, "m", chi.value(x)))
        for x in low_degree_units(grading):
            (i, j), = x.entries.keys()
            d = int(grading.degree(i, j))
            symbols.append(Symbol(f"E{i + 1}{j + 1}", x, d, "m", chi.value(x)))

        n_basis = tuple(ps + qs[rank:] + low_degree_units(grading))
        return PbwContext(n, symbols, grading, pyramid, n_basis, chi, rank)

    def _compute_unit_expansions(self) -> dict[tuple[int, int], dict]:
        """Every matrix unit as degree-one PBW terms in the symbol basis.

        A unit that is itself a symbol and lies in no other symbol's support
        splits off as a 1x1 identity block of the symbol matrix.  Every other
        unit is solved for on the block of the symbols that touch those
        units; that block is all that needs elimination.
        """
        n = self.n
        touching: dict[tuple[int, int], list[int]] = {}
        for s, sym in enumerate(self.symbols):
            for key in sym.gl.entries:
                touching.setdefault(key, []).append(s)
        table = {key: {(s,): Fraction(1)}
                 for key, (s, *others) in touching.items()
                 if not others and self.symbols[s].gl.entries == {key: 1}}
        rest = [(i, j) for i in range(n) for j in range(n)
                if (i, j) not in table]
        block = sorted({s for key in rest for s in touching.get(key, ())})
        row_of = {key: r for r, key in enumerate(rest)}
        mat = SparseMatrix(len(rest), len(block),
                           {(row_of[key], t): v
                            for t, s in enumerate(block)
                            for key, v in self.symbols[s].gl.entries.items()})
        for key in rest:
            sol = solve(mat, [int(r == key) for r in rest])
            if sol is None:
                raise ValueError("symbols do not form a basis of gl_N")
            table[key] = {(block[t],): c for t, c in enumerate(sol) if c}
        return table

    # -- elements ----------------------------------------------------------

    def zero(self) -> "PbwElement":
        return PbwElement(self, {})

    def one(self) -> "PbwElement":
        return PbwElement(self, {(): Fraction(1)})

    def scalar(self, c) -> "PbwElement":
        c = Fraction(c)
        return PbwElement(self, {(): c} if c else {})

    def symbol_element(self, s: int) -> "PbwElement":
        return PbwElement(self, {(s,): Fraction(1)})

    def from_gl(self, x: GlElement) -> "PbwElement":
        if x.n != self.n:
            raise ValueError(f"element of gl_{x.n} in a gl_{self.n} context")
        terms: dict[Word, Fraction] = {}
        for key, v in x.entries.items():
            add_scaled(terms, self._unit_expansion[key], v)
        return PbwElement(self, terms)

    # -- straightening -----------------------------------------------------

    def _bracket_expansion(self, a: int, b: int):
        """[x_a, x_b] as sorted pairs (one-letter word, coefficient)."""
        key = (a, b)
        cached = self._bracket_cache.get(key)
        if cached is not None:
            return cached
        xa = self.symbols[a].gl
        xb = self.symbols[b].gl
        br = xa.matmul(xb) - xb.matmul(xa)
        result = tuple(sorted(self.from_gl(br).terms.items()))
        self._bracket_cache[key] = result
        return result

    def _normalize_word(self, word: Word) -> dict[Word, Fraction]:
        cached = self._norm_cache.get(word)
        if cached is not None:
            return cached
        pos = None
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                pos = t
                break
        if pos is None:
            result = {word: Fraction(1)}
        else:
            a, b = word[pos], word[pos + 1]
            swapped = word[:pos] + (b, a) + word[pos + 2:]
            result = dict(self._normalize_word(swapped))
            for letter, c in self._bracket_expansion(a, b):
                shorter = word[:pos] + letter + word[pos + 2:]
                add_scaled(result, self._normalize_word(shorter), c)
        self._norm_cache[word] = result
        return result

    def multiply(self, u: "PbwElement", v: "PbwElement") -> "PbwElement":
        if u.ctx is not v.ctx or u.ctx is not self:
            raise ValueError("elements from different contexts")
        terms: dict[Word, Fraction] = {}
        for wu, cu in u.terms.items():
            for wv, cv in v.terms.items():
                add_scaled(terms, self._normalize_word(wu + wv), cu * cv)
        return PbwElement(self, terms)

    # -- structure maps ----------------------------------------------------

    def ad_action(self, x: GlElement, u: "PbwElement") -> "PbwElement":
        xe = self.from_gl(x)
        return self.multiply(xe, u) - self.multiply(u, xe)

    def kazhdan_degree(self, u: "PbwElement") -> int:
        """Max over monomials of the sum of symbol degrees plus 2 each."""
        best = 0
        for word in u.terms:
            best = max(best, sum(self.symbols[s].kazhdan_degree for s in word))
        return best

    def q_reduce(self, u: "PbwElement") -> "PbwElement":
        """Class of u in the quotient by the character ideal.

        Normal monomials carry their m-symbols as a tail acting on the
        cyclic vector, so the tail collapses to its character value.
        """
        if self.chi is None and self.m_indices:
            raise ValueError("context has no character")
        mset = set(self.m_indices)
        terms: dict[Word, Fraction] = {}
        for word, c in u.terms.items():
            head = []
            val = c
            for s in word:
                if s in mset:
                    val *= self.symbols[s].chi
                else:
                    head.append(s)
            if val:
                key = tuple(head)
                acc = terms.get(key, Fraction(0)) + val
                if acc:
                    terms[key] = acc
                else:
                    terms.pop(key, None)
        return PbwElement(self, terms)

    def is_whittaker_invariant(self, y: "PbwElement",
                               over: list[GlElement] | None = None) -> bool:
        """True iff ad(a)(y) falls in the character ideal for all a.

        By default a ranges over the basis of m; pass the n-basis to test
        membership in the W-algebra of a non-Lagrangian isotropic choice.
        """
        if over is None:
            over = [self.symbols[s].gl for s in self.m_indices]
        return all(self.q_reduce(self.ad_action(a, y)).is_zero()
                   for a in over)

    # -- W-space -----------------------------------------------------------

    def complement_words(self, max_degree: int) -> list[Word]:
        """Normal monomials in complement symbols of Kazhdan degree <= bound."""
        idx = list(self.complement_indices)
        out: list[Word] = []

        def rec(start: int, word: tuple, budget: int):
            out.append(word)
            for t in range(start, len(idx)):
                k = self.symbols[idx[t]].kazhdan_degree
                if k <= budget:
                    rec(t, word + (idx[t],), budget - k)

        rec(0, (), max_degree)
        return sorted(out, key=self._word_key)

    def _word_key(self, word: Word):
        return (sum(self.symbols[s].kazhdan_degree for s in word), word)

    def w_space_basis(self, max_degree: int,
                      over: list[GlElement] | None = None
                      ) -> dict[int, list["PbwElement"]]:
        """Graded basis of the invariants in the quotient, up to max_degree.

        Solves the full invariance system on the finite-dimensional
        truncation.  Its columns are the complement words in (Kazhdan degree,
        word) order, so the kernel vector of a free column t is supported on
        t and pivot columns left of t: its last word is words[t], with
        coefficient 1, and its Kazhdan degree is that of words[t].  The
        vectors come in the order of their last words, so the degree-d slice
        extends the degree < d ones.
        """
        if over is None:
            over = list(self.n_basis)
        words = self.complement_words(max_degree)
        col_of = {w: t for t, w in enumerate(words)}
        row_of: dict = {}
        entries: dict[tuple[int, int], Fraction] = {}
        for t, w in enumerate(words):
            mono = PbwElement(self, {w: Fraction(1)})
            for a_idx, a in enumerate(over):
                img = self.q_reduce(self.ad_action(a, mono))
                for cw, v in img.terms.items():
                    key = (a_idx, cw)
                    r = row_of.setdefault(key, len(row_of))
                    entries[(r, t)] = v
        mat = SparseMatrix(len(row_of), len(words), entries)
        graded: dict[int, list[PbwElement]] = {}
        for vec in kernel_basis(mat):
            elt = PbwElement(self, {w: c for w, c in zip(words, vec) if c})
            graded.setdefault(self.kazhdan_degree(elt), []).append(elt)
        return graded

    # -- row determinant generators for one Jordan block --------------------

    def rdet_w_generators(self) -> list["PbwElement"]:
        """Coefficients of the row determinant of the standard matrix with
        diagonal E_ii + u + i, ones on the subdiagonal and E_ij above.

        Only meaningful on the single-row pyramid context; returns
        w_1, ..., w_n with w_i the coefficient of u^(n-i).
        """
        if self.pyramid is None or self.pyramid.shape.rows != 1:
            raise ValueError("row determinant needs the single-row pyramid")
        n = self.n

        def entry(i: int, j: int) -> dict[int, "PbwElement"]:
            if j > i:
                return {0: self.from_gl(GlElement.unit(n, i, j))}
            if j == i:
                return {0: self.from_gl(GlElement.unit(n, i, i))
                        + self.scalar(i + 1), 1: self.one()}
            if j == i - 1:
                return {0: self.one()}
            return {}

        def poly_mul(a: dict, b: dict) -> dict:
            out: dict[int, PbwElement] = {}
            for da, ua in a.items():
                for db, ub in b.items():
                    d = da + db
                    prod = self.multiply(ua, ub)
                    out[d] = out.get(d, self.zero()) + prod
            return {d: u for d, u in out.items() if not u.is_zero()}

        total: dict[int, PbwElement] = {}
        for perm in itertools.permutations(range(n)):
            sgn = _sign(perm)
            acc = {0: self.scalar(sgn)}
            for i in range(n):
                acc = poly_mul(acc, entry(i, perm[i]))
                if not acc:
                    break
            for d, u in acc.items():
                total[d] = total.get(d, self.zero()) + u
        lead = total.get(n, self.zero())
        if lead != self.one():
            raise AssertionError("row determinant is not monic")
        return [total.get(n - i, self.zero()) for i in range(1, n + 1)]

    # -- eta twist ----------------------------------------------------------

    def eta_shift(self, label: int) -> int:
        """Diagonal shift of the level automorphism for a French pyramid."""
        if self.pyramid is None:
            raise ValueError("context has no pyramid")
        lam = self.pyramid.shape
        if self.pyramid != french_pyramid(lam):
            raise ValueError("the twist lives on the French pyramid")
        lamc = conjugate(lam)
        col = diagram_column(self.pyramid, label)
        return lam.parts[0] - sum(lamc.parts[c - 1]
                                  for c in range(col, lam.parts[0] + 1))

    def eta_twist(self, u: "PbwElement", inverse: bool = False) -> "PbwElement":
        """Algebra automorphism shifting each diagonal generator by a level
        constant, applied generator-wise and extended multiplicatively."""
        sign = -1 if inverse else 1
        shifted: dict[int, PbwElement] = {}
        for s, sym in enumerate(self.symbols):
            if sym.kind == "m":
                continue
            entries = sym.gl.entries
            if len(entries) == 1:
                ((i, j),) = entries.keys()
                if i == j:
                    shifted[s] = (self.symbol_element(s)
                                  + self.scalar(sign * self.eta_shift(i)))
        out = self.zero()
        for word, c in u.terms.items():
            acc = self.scalar(c)
            for s in word:
                if s in shifted:
                    factor = shifted[s]
                elif self.symbols[s].kind == "m":
                    raise ValueError("twist input must avoid m-symbols")
                else:
                    factor = self.symbol_element(s)
                acc = self.multiply(acc, factor)
            out = out + acc
        return out

    # -- conversions ---------------------------------------------------------

    def to_standard(self, u: "PbwElement",
                    std: "PbwContext | None" = None) -> "PbwElement":
        """Rewrite u in the plain matrix-unit PBW basis."""
        std = std or PbwContext.standard(self.n)
        out = std.zero()
        for word, c in u.terms.items():
            acc = std.scalar(c)
            for s in word:
                acc = std.multiply(acc, std.from_gl(self.symbols[s].gl))
            out = out + acc
        return out


def _sign(perm) -> int:
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
              if perm[a] > perm[b])
    return -1 if inv % 2 else 1


class PbwElement:
    """Linear combination of normal-ordered PBW monomials."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: PbwContext, terms: dict[Word, Fraction]):
        self.ctx = ctx
        self.terms = {w: v for w, v in terms.items() if v}

    def __add__(self, other):
        other = self._coerce(other)
        return PbwElement(self.ctx, add_scaled(dict(self.terms), other.terms))

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        other = self._coerce(other)
        return PbwElement(self.ctx,
                          add_scaled(dict(self.terms), other.terms, -1))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def scale(self, c) -> "PbwElement":
        c = Fraction(c)
        return PbwElement(self.ctx, {w: c * v for w, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self.ctx.multiply(self, self._coerce(other))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self.ctx.multiply(self._coerce(other), self)

    def _coerce(self, other) -> "PbwElement":
        if isinstance(other, PbwElement):
            return other
        return self.ctx.scalar(other)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.scalar(other)
        return isinstance(other, PbwElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=self.ctx._word_key):
            c = self.terms[w]
            mono = "*".join(self.ctx.symbols[s].name for s in w) or "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)

    def to_json(self) -> list:
        """Serialize over the plain matrix-unit basis, 1-based indices."""
        std_elt = self.ctx.to_standard(self)
        std = std_elt.ctx
        out = []
        for w in sorted(std_elt.terms, key=std._word_key):
            counts: dict[int, int] = {}
            for s in w:
                counts[s] = counts.get(s, 0) + 1
            mono = []
            for s in sorted(counts):
                ((i, j),) = std.symbols[s].gl.entries.keys()
                mono.append([i + 1, j + 1, counts[s]])
            c = std_elt.terms[w]
            out.append({"monomial": mono, "coeff": f"{c.numerator}/{c.denominator}"})
        return out
