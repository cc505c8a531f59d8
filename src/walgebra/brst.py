"""BRST complex for even gradings: odd generators against U(gl_N).

The complex is the Clifford algebra on m* + a second copy of m, tensored
with the enveloping algebra.  Odd monomials are kept normally ordered with
all m*-generators (written f1, f2, ...) before all hatted generators
(b1^, b2^, ...), both with ascending indices; the pairing {f_i, b_j^} =
delta_ij produces the contraction terms.  Koszul signs come from counting
transpositions against that order; the differential squaring to zero pins
the convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gl import GlElement, bracket
from .linalg import SparseMatrix, add_scaled, solve
from .pbw import PbwContext, PbwElement, Word
from .pyramids import Pyramid, is_even

OddWord = tuple[tuple[str, int], ...]  # letters ("f", i) and ("b", i)
Key = tuple[tuple[int, ...], Word, tuple[int, ...]]


class BrstContext:
    """Clifford-times-enveloping algebra attached to an even pyramid."""

    def __init__(self, pyramid: Pyramid):
        if not is_even(pyramid):
            raise ValueError("the complex is only built for even pyramids")
        self.pbw = PbwContext.from_pyramid(pyramid)
        self.m_symbols = list(self.pbw.m_indices)
        self.k = len(self.m_symbols)
        self._m_pos = {s: t for t, s in enumerate(self.m_symbols)}
        self._odd_cache: dict[OddWord, dict[tuple, Fraction]] = {}
        self._bracket_coords: dict[tuple[int, int], dict[int, Fraction]] = {}

    # -- elements -----------------------------------------------------------

    def zero(self) -> "BrstElement":
        return BrstElement(self, {})

    def scalar(self, c) -> "BrstElement":
        c = Fraction(c)
        return BrstElement(self, {((), (), ()): c} if c else {})

    def from_pbw(self, u: PbwElement) -> "BrstElement":
        return BrstElement(self, {((), w, ()): c for w, c in u.terms.items()})

    def f_gen(self, i: int) -> "BrstElement":
        return BrstElement(self, {((i,), (), ()): Fraction(1)})

    def b_hat(self, i: int) -> "BrstElement":
        return BrstElement(self, {((), (), (i,)): Fraction(1)})

    def hat_of(self, x: GlElement) -> "BrstElement":
        """The image of an element of m in the hatted copy."""
        coords = self._m_coordinates(x)
        out: dict[Key, Fraction] = {}
        for i, c in coords.items():
            out[((), (), (i,))] = c
        return BrstElement(self, out)

    def _m_coordinates(self, x: GlElement) -> dict[int, Fraction]:
        terms = self.pbw.from_gl(x).terms
        out: dict[int, Fraction] = {}
        for w, c in terms.items():
            if len(w) != 1 or w[0] not in self._m_pos:
                raise ValueError("element does not lie in m")
            out[self._m_pos[w[0]]] = c
        return out

    def m_element(self, i: int) -> GlElement:
        return self.pbw.symbols[self.m_symbols[i]].gl

    def chi_value(self, i: int) -> Fraction:
        return self.pbw.symbols[self.m_symbols[i]].chi

    # -- Clifford normal ordering --------------------------------------------

    def _normalize_odd(self, word: OddWord) -> dict[tuple, Fraction]:
        """Normal order an odd word; returns (ftuple, btuple) -> coeff."""
        cached = self._odd_cache.get(word)
        if cached is not None:
            return cached
        result: dict[tuple, Fraction] = {}
        pos = None
        for t in range(len(word) - 1):
            (ta, ia), (tb, ib) = word[t], word[t + 1]
            if ta == tb and ia == ib:
                self._odd_cache[word] = {}
                return {}
            out_of_order = ((ta == "b" and tb == "f")
                            or (ta == tb and ia > ib))
            if out_of_order:
                pos = t
                break
        if pos is None:
            fs = tuple(i for t, i in word if t == "f")
            bs = tuple(i for t, i in word if t == "b")
            result = {(fs, bs): Fraction(1)}
        else:
            (ta, ia), (tb, ib) = word[pos], word[pos + 1]
            swapped = word[:pos] + ((tb, ib), (ta, ia)) + word[pos + 2:]
            result = {k: -v for k, v in self._normalize_odd(swapped).items()}
            if ta == "b" and tb == "f" and ia == ib:
                rest = word[:pos] + word[pos + 2:]
                add_scaled(result, self._normalize_odd(rest))
        self._odd_cache[word] = result
        return result

    def multiply(self, x: "BrstElement", y: "BrstElement") -> "BrstElement":
        """Superalgebra product; the even U(gl_N) factor commutes with the
        odd generators, so each factor multiplies on its own."""
        terms: dict[Key, Fraction] = {}
        for (f1, w1, b1), c1 in x.terms.items():
            odd_left = tuple(("f", i) for i in f1) + tuple(("b", i) for i in b1)
            u1 = PbwElement(self.pbw, {w1: Fraction(1)})
            for (f2, w2, b2), c2 in y.terms.items():
                odd = odd_left + tuple(("f", i) for i in f2) \
                    + tuple(("b", i) for i in b2)
                u = self.pbw.multiply(u1, PbwElement(self.pbw, {w2: Fraction(1)}))
                c = c1 * c2
                for (fs, bs), sgn in self._normalize_odd(odd).items():
                    add_scaled(terms, {(fs, w, bs): k
                                       for w, k in u.terms.items()}, c * sgn)
        return BrstElement(self, terms)

    # -- the odd charge and the differential ----------------------------------

    def _m_bracket_coords(self, i: int, j: int) -> dict[int, Fraction]:
        """Coordinates of [b_i, b_j] in the basis of m; memoized, read only."""
        coords = self._bracket_coords.get((i, j))
        if coords is None:
            br = bracket(self.m_element(i), self.m_element(j))
            coords = {} if br.is_zero() else self._m_coordinates(br)
            self._bracket_coords[(i, j)] = coords
        return coords

    def build_phi(self, basis_change=None) -> "BrstElement":
        """The odd element whose supercommutator is the differential.

        basis_change, when given, is an invertible integer matrix T; the
        sum is then taken over the transformed basis b'_i = sum_a T[a][i] b_a
        with the matched dual basis, which must not change the result.
        """
        k = self.k
        if basis_change is None:
            basis_change = [[int(a == i) for i in range(k)] for a in range(k)]
        t_mat = SparseMatrix(k, k, {(a, i): v
                                    for a, row in enumerate(basis_change)
                                    for i, v in enumerate(row)})
        # Column a of T^-1 solves T x = e_a.
        tinv_cols = [solve(t_mat, [int(i == a) for i in range(k)])
                     for a in range(k)]
        if None in tinv_cols:
            raise ValueError("basis change is singular")

        f_primed = [BrstElement(self, {((a,), (), ()): tinv_cols[a][i]
                                       for a in range(k) if tinv_cols[a][i]})
                    for i in range(k)]
        b_primed = [{} for _ in range(k)]
        for (a, i), v in t_mat.entries.items():
            add_scaled(b_primed[i], self.m_element(a).entries, v)
        b_primed_gl = [GlElement(self.pbw.n, b) for b in b_primed]

        phi = self.zero()
        for i in range(k):
            chi_i = Fraction(0) if b_primed_gl[i].is_zero() else \
                self.pbw.chi.value(b_primed_gl[i])
            mid = self.from_pbw(self.pbw.from_gl(b_primed_gl[i])
                                - self.pbw.scalar(chi_i))
            phi = phi + self.multiply(f_primed[i], mid)
        for i in range(k):
            for j in range(k):
                br = bracket(b_primed_gl[i], b_primed_gl[j])
                if br.is_zero():
                    continue
                term = self.multiply(self.multiply(f_primed[i], f_primed[j]),
                                     self.hat_of(br))
                phi = phi + term.scale(Fraction(-1, 2))
        return phi

    def d_symbol(self, s: int) -> "BrstElement":
        """d on an enveloping-algebra generator: sum_i f^i [b_i, x]."""
        x = self.pbw.symbols[s].gl
        out = self.zero()
        for i in range(self.k):
            br = bracket(self.m_element(i), x)
            if br.is_zero():
                continue
            out = out + self.multiply(self.f_gen(i),
                                      self.from_pbw(self.pbw.from_gl(br)))
        return out

    def d_f(self, j: int) -> "BrstElement":
        """d on a dual generator: half the coadjoint sum, here
        -1/2 sum_{i,k} c_{ik}^j f^i f^k with [b_i, b_k] = sum c_{ik}^j b_j."""
        out = self.zero()
        for i in range(self.k):
            for k_ in range(self.k):
                c = self._m_bracket_coords(i, k_).get(j)
                if c:
                    term = self.multiply(self.f_gen(i), self.f_gen(k_))
                    out = out + term.scale(Fraction(-1, 2) * c)
        return out

    def d_b_hat(self, a: int) -> "BrstElement":
        """d on a hatted generator: b_a - chi(b_a) + sum_i f^i [b_i, b_a]^."""
        b_gl = self.m_element(a)
        out = self.from_pbw(self.pbw.from_gl(b_gl)
                            - self.pbw.scalar(self.chi_value(a)))
        for i in range(self.k):
            coords = self._m_bracket_coords(i, a)
            for k_, c in coords.items():
                out = out + self.multiply(self.f_gen(i),
                                          self.b_hat(k_)).scale(c)
        return out

    def d_generator(self, kind: str, idx: int) -> "BrstElement":
        if kind == "x":
            return self.d_symbol(idx)
        if kind == "f":
            return self.d_f(idx)
        if kind == "b":
            return self.d_b_hat(idx)
        raise ValueError(f"unknown generator kind {kind!r}")

    def d(self, z: "BrstElement") -> "BrstElement":
        """Extend d to products as a super-derivation over generator words."""
        out = self.zero()
        for (fs, w, bs), c in z.terms.items():
            gens = ([("f", i) for i in fs] + [("x", s) for s in w]
                    + [("b", i) for i in bs])
            parities = [1 if kind != "x" else 0 for kind, _ in gens]
            for t, (kind, idx) in enumerate(gens):
                sign = -1 if sum(parities[:t]) % 2 else 1
                prefix = self._gens_product(gens[:t])
                suffix = self._gens_product(gens[t + 1:])
                term = self.multiply(self.multiply(
                    prefix, self.d_generator(kind, idx)), suffix)
                out = out + term.scale(sign * c)
        return out

    def _gens_product(self, gens) -> "BrstElement":
        acc = self.scalar(1)
        for kind, idx in gens:
            if kind == "f":
                g = self.f_gen(idx)
            elif kind == "b":
                g = self.b_hat(idx)
            else:
                g = self.from_pbw(self.pbw.symbol_element(idx))
            acc = self.multiply(acc, g)
        return acc

    def supercommutator_with_phi(self, phi: "BrstElement", z: "BrstElement",
                                 parity: int) -> "BrstElement":
        """[phi, z] for even z, {phi, z} for odd z; phi from build_phi."""
        if parity % 2 == 0:
            return self.multiply(phi, z) - self.multiply(z, phi)
        return self.multiply(phi, z) + self.multiply(z, phi)

    def check_d_squared(self) -> dict:
        """d^2 = 0 on every generator, and d agrees with [phi, -] there."""
        report = {"generators": [], "all_zero": True, "phi_matches": True}
        phi = self.build_phi()
        gens = ([("x", s) for s in range(len(self.pbw.symbols))]
                + [("f", i) for i in range(self.k)]
                + [("b", i) for i in range(self.k)])
        for kind, idx in gens:
            dz = self.d_generator(kind, idx)
            parity = 0 if kind == "x" else 1
            match = dz == self.supercommutator_with_phi(
                phi, self._gens_product([(kind, idx)]), parity)
            dd = self.d(dz)
            ok = dd.is_zero()
            report["generators"].append(
                {"generator": f"{kind}{idx}", "d_squared_zero": ok,
                 "phi_commutator_matches": match})
            report["all_zero"] &= ok
            report["phi_matches"] &= match
        return report

    def basis_independence_phi(self, t_matrix) -> bool:
        return self.build_phi() == self.build_phi(basis_change=t_matrix)

    def q_project(self, z: "BrstElement") -> PbwElement:
        """Cohomological degree 0 only: drop the two-sided odd ideal and
        reduce the enveloping factor modulo the character ideal."""
        u = self.pbw.zero()
        for (fs, w, bs), c in z.terms.items():
            if len(fs) != len(bs):
                raise ValueError("element not of cohomological degree 0")
            if not fs:
                u = u + PbwElement(self.pbw, {w: c})
        return self.pbw.q_reduce(u)


class BrstElement:
    """Element of the BRST superalgebra, keyed by (f-word, monomial, b-word)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: BrstContext, terms: dict[Key, Fraction]):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items() if v}

    def __add__(self, other: "BrstElement") -> "BrstElement":
        return BrstElement(self.ctx, add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other: "BrstElement") -> "BrstElement":
        return BrstElement(self.ctx,
                           add_scaled(dict(self.terms), other.terms, -1))

    def scale(self, c) -> "BrstElement":
        c = Fraction(c)
        return BrstElement(self.ctx, {k: c * v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, BrstElement) and self.terms == other.terms

    def cohomological_degrees(self) -> set[int]:
        return {len(fs) - len(bs) for (fs, _, bs) in self.terms}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (fs, w, bs) in sorted(self.terms):
            c = self.terms[(fs, w, bs)]
            fpart = "".join(f"f{i + 1}" for i in fs)
            mpart = "*".join(self.ctx.pbw.symbols[s].name for s in w)
            bpart = "".join(f"b{i + 1}^" for i in bs)
            mono = "*".join(x for x in (fpart, mpart, bpart) if x) or "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)
