"""Lie-theoretic data for (gl_N, e, grading).

Good-grading verification, graded sl2-triples, centralizer bases, the
symplectic form on the degree -1 component, the nilpotent subalgebras
m inside n attached to an isotropic subspace, and the generator degrees
of the associated graded of the W-algebra.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from .gl import GlElement, Grading, ad_matrix, bracket, trace_form, unit_index
from .linalg import Echelon, SparseMatrix, add_scaled, kernel_basis, rank
from .partitions import centralizer_dim
from .pyramids import Pyramid, grading_of, nilpotent_of, rows_by_labels


@dataclass(frozen=True)
class Sl2Triple:
    e: GlElement
    h: GlElement
    f: GlElement

    def validate(self):
        if bracket(self.e, self.f) != self.h:
            raise AssertionError("[e,f] != h")
        if bracket(self.h, self.e) != self.e.scale(2):
            raise AssertionError("[h,e] != 2e")
        if bracket(self.h, self.f) != self.f.scale(-2):
            raise AssertionError("[h,f] != -2f")


@dataclass(frozen=True)
class Subalgebra:
    basis: tuple[GlElement, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class Chi:
    """The character x -> tr(x e) attached to the nilpotent e."""

    e: GlElement

    def value(self, x: GlElement) -> Fraction:
        return trace_form(x, self.e)


@dataclass
class GoodGradingReport:
    e_in_degree_2: bool
    injective_below: bool
    surjective_above: bool
    centralizer_nonnegative: bool
    pairing_orthogonal: bool
    dim_identity: bool
    center_in_degree_0: bool
    failures: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        """Every field except the failure list is a flag."""
        return all(getattr(self, f.name) for f in fields(self)
                   if f.name != "failures")

    def to_json(self) -> dict:
        return {**asdict(self), "all_pass": self.all_pass}


def _ad_e_images(grading: Grading, e: GlElement, d: Fraction) -> list[GlElement]:
    """ad(e) applied to the matrix-unit basis of the degree d component."""
    return [bracket(e, GlElement.unit(grading.n, k, l))
            for (k, l) in grading.units_of_degree(d)]


def unit_coords(x: GlElement) -> dict[int, Fraction]:
    """Coordinates of x in the flattened matrix-unit basis."""
    return {unit_index(x.n, i, j): v for (i, j), v in x.entries.items()}


def check_good(grading: Grading, e: GlElement) -> GoodGradingReport:
    """Verify the good-grading axioms and their standard consequences.

    Nothing is thrown on mathematical failure; every condition is reported.
    """
    if grading.n != e.n:
        raise ValueError("size mismatch")
    n = e.n
    failures: list[str] = []

    e_deg2 = all(grading.degree(i, j) == 2 for (i, j) in e.entries)
    if not e_deg2:
        failures.append("e has a component outside degree 2")

    inj = True
    surj = True
    for d in grading.occupied_degrees():
        # Injectivity is nontrivial exactly on occupied sources of degree
        # <= -1; surjectivity exactly onto occupied targets of degree >= 1
        # (the source g_{d-2} may well be zero there).
        if d <= -1:
            images = _ad_e_images(grading, e, d)
            span = Echelon()
            dim_image = sum(span.insert(unit_coords(img)) for img in images)
            if dim_image != len(images):
                inj = False
                failures.append(f"ad e not injective on degree {d}")
        if d >= 1:
            span = Echelon()
            for img in _ad_e_images(grading, e, d - 2):
                span.insert(unit_coords(img))
            hit = all(span.contains({unit_index(n, i, j): Fraction(1)})
                      for (i, j) in grading.units_of_degree(d))
            if not hit:
                surj = False
                failures.append(f"ad e not surjective onto degree {d}")

    ker = kernel_basis(ad_matrix(e))
    cent_nonneg = True
    for vec in ker:
        degs = {grading.degree(idx // n, idx % n)
                for idx, v in enumerate(vec) if v}
        # Strictly above -1; for integral gradings this is "degree >= 0".
        if any(d <= -1 for d in degs):
            cent_nonneg = False
            failures.append("centralizer meets a degree <= -1")
            break

    # tr(E_ij E_kl) is nonzero only for (k,l) = (j,i), so the orthogonality
    # of components of non-opposite degrees reduces to opposite unit pairs.
    pairing = all(grading.degree(i, j) + grading.degree(j, i) == 0
                  for i in range(n) for j in range(n))
    if not pairing:
        failures.append("trace form pairs non-opposite degrees")

    # dim g_e equals the dimension of the degrees in (-1, 1]; integral case:
    # dim g_0 + dim g_1.
    dim_ge = len(ker)
    dim_mid = sum(len(grading.units_of_degree(d))
                  for d in grading.occupied_degrees() if -1 < d <= 1)
    dim_ok = dim_ge == dim_mid
    if not dim_ok:
        failures.append(
            f"dim g_e = {dim_ge} but degrees in (-1,1] span {dim_mid}")

    center_ok = all(grading.degree(i, i) == 0 for i in range(n))
    if not center_ok:
        failures.append("center of gl_N not in degree 0")

    return GoodGradingReport(e_deg2, inj, surj, cent_nonneg, pairing,
                             dim_ok, center_ok, failures)


def sl2_complete(p: Pyramid) -> Sl2Triple:
    """Graded sl2-triple through e of the pyramid: h diagonal, f in degree -2.

    h and f are assembled row by row from the principal triple of each
    Jordan block; rigidity of sl2 makes the result the unique such triple,
    and the commutation relations are verified exactly before returning.
    """
    n = p.n
    e = nilpotent_of(p)
    h_entries = {}
    f_entries = {}
    for row in rows_by_labels(p):
        m = len(row)
        for k, label in enumerate(row):
            h_entries[(label, label)] = m - 1 - 2 * k
        for k in range(1, m):
            f_entries[(row[k], row[k - 1])] = k * (m - k)
    triple = Sl2Triple(e, GlElement(n, h_entries), GlElement(n, f_entries))
    triple.validate()
    grading = grading_of(p)
    if any(grading.degree(i, j) != -2 for (i, j) in triple.f.entries):
        raise AssertionError("f not homogeneous of degree -2")
    return triple


def centralizer_basis(p: Pyramid) -> list[GlElement]:
    """Homogeneous basis of the centralizer of the pyramid's nilpotent.

    For rows j, i the operator sending the e-cyclic generator of row i to
    e^k applied to the generator of row j centralizes e precisely when
    lam_j > k >= max(0, lam_j - lam_i); these operators form the basis.
    """
    lam = p.shape
    rows = rows_by_labels(p)
    grading = grading_of(p)
    out: list[tuple[tuple, GlElement]] = []
    for j in range(lam.rows):
        for i in range(lam.rows):
            for k in range(max(0, lam.parts[j] - lam.parts[i]), lam.parts[j]):
                entries = {}
                for m in range(min(lam.parts[i], lam.parts[j] - k)):
                    src = rows[i][lam.parts[i] - 1 - m]
                    dst = rows[j][lam.parts[j] - 1 - k - m]
                    entries[(dst, src)] = 1
                z = GlElement(p.n, entries)
                d = grading.component_degree(z)
                if d is None:
                    raise AssertionError("centralizer element not homogeneous")
                out.append(((d, j, i, k), z))
    out.sort(key=lambda t: t[0])
    basis = [z for _, z in out]
    if len(basis) != sum(min(a, b) for a in lam.parts for b in lam.parts):
        raise AssertionError("centralizer basis has the wrong size")
    return basis


def _gram(units: list[tuple[int, int]], e: GlElement) -> SparseMatrix:
    """Gram matrix of <x,y> = tr([x,y] e) on the given matrix units."""
    entries = {}
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            v = trace_form(bracket(GlElement.unit(e.n, i, j),
                                   GlElement.unit(e.n, k, l)), e)
            if v:
                entries[(a, b)] = v
    return SparseMatrix(len(units), len(units), entries)


def symplectic_form(grading: Grading, e: GlElement) -> SparseMatrix:
    """Gram matrix of <x,y> = tr([x,y] e) on the degree -1 matrix units."""
    return _gram(grading.units_of_degree(-1), e)


def symplectic_basis(units: list[tuple[int, int]], e: GlElement):
    """Deterministic symplectic basis (p_a, q_a) of the span of the units.

    Greedy over the given order of matrix units: take the first remaining
    vector, find its first pairing partner, scale the partner so the
    pairing is 1, then project the pairing away from the rest.
    Returns two lists of GlElements with <p_a, q_b> = delta_ab, and raises
    ValueError when <x,y> = tr([x,y] e) is degenerate on the span.
    """
    gram = _gram(units, e)

    def pair(u: dict, v: dict) -> Fraction:
        s = Fraction(0)
        for a, x in u.items():
            for b, y in v.items():
                s += x * y * gram.get(a, b)
        return s

    remaining = [{a: Fraction(1)} for a in range(len(units))]
    ps, qs = [], []
    while remaining:
        u = remaining.pop(0)
        if not u:
            continue
        partner = None
        for t, v in enumerate(remaining):
            if v and pair(u, v):
                partner = t
                break
        if partner is None:
            raise ValueError("degenerate pairing on the given units")
        v = remaining.pop(partner)
        c = pair(u, v)
        v = {a: x / c for a, x in v.items()}
        reduced = []
        for w in remaining:
            if w:
                cu = pair(w, v)
                cv = pair(w, u)
                w = add_scaled(add_scaled(dict(w), u, -cu), v, cv)
            reduced.append(w)
        remaining = reduced
        ps.append(u)
        qs.append(v)

    def to_gl(coords: dict) -> GlElement:
        entries = {}
        for a, x in coords.items():
            entries[units[a]] = x
        return GlElement(e.n, entries)

    return [to_gl(u) for u in ps], [to_gl(v) for v in qs]


def symplectic_pairs(grading: Grading, e: GlElement):
    """Symplectic basis (p_a, q_a) of the degree -1 space, in the order of
    the degree -1 matrix units."""
    return symplectic_basis(grading.units_of_degree(-1), e)


def low_degree_units(grading: Grading) -> list[GlElement]:
    """Matrix units of degree at most -2, sorted by (degree, row, col)."""
    n = grading.n
    units = [(grading.degree(i, j), i, j) for i in range(n) for j in range(n)
             if grading.degree(i, j) <= -2]
    units.sort()
    return [GlElement.unit(n, i, j) for _, i, j in units]


def build_m_n(grading: Grading, e: GlElement,
              isotropic_rank: int) -> tuple[Subalgebra, Subalgebra, Chi]:
    """The nilpotent subalgebras attached to an isotropic subspace.

    m is spanned by the first isotropic_rank symplectic basis vectors plus
    everything of degree <= -2; n uses the pairing annihilator of that
    isotropic subspace instead.  The Lagrangian choice is isotropic_rank
    equal to half the dimension of the degree -1 space.
    """
    ps, qs = symplectic_pairs(grading, e)
    s = len(ps)
    if not (0 <= isotropic_rank <= s):
        raise ValueError(f"isotropic rank must lie in [0, {s}]")
    low = low_degree_units(grading)
    l_vecs = ps[:isotropic_rank]
    lperp = ps + qs[isotropic_rank:]
    m = Subalgebra(tuple(l_vecs + low))
    n_sub = Subalgebra(tuple(lperp + low))
    return m, n_sub, Chi(e)


def m_from_isotropic(grading: Grading, e: GlElement,
                     l_vectors: list[GlElement]) -> Subalgebra:
    """m built from an explicitly given isotropic subspace of degree -1."""
    for x in l_vectors:
        for y in l_vectors:
            if trace_form(bracket(x, y), e):
                raise ValueError("given subspace is not isotropic")
    return Subalgebra(tuple(list(l_vectors) + low_degree_units(grading)))


def orbit_dim(e: GlElement) -> int:
    """dim of the adjoint orbit of e: N^2 minus the centralizer dimension."""
    return rank(ad_matrix(e))


def slodowy_degrees(p: Pyramid) -> list[int]:
    """Generator degrees of functions on the transverse slice through e.

    A homogeneous basis vector of the centralizer of f in degree d
    contributes a coordinate of degree 2 - d; with the grading of the
    pyramid these are exactly the filtration degrees of a free generating
    set of the associated graded of the W-algebra.
    """
    triple = sl2_complete(p)
    grading = grading_of(p)
    out: list[int] = []
    total = 0
    for d in grading.occupied_degrees():
        src = grading.units_of_degree(d)
        dst = grading.units_of_degree(d - 2)
        dst_index = {u: t for t, u in enumerate(dst)}
        entries = {}
        for s, (k, l) in enumerate(src):
            image = bracket(triple.f, GlElement.unit(p.n, k, l))
            for (i, j), v in image.entries.items():
                entries[(dst_index[(i, j)], s)] = v
        mat = SparseMatrix(len(dst), len(src), entries)
        dim_kernel = len(src) - rank(mat)
        total += dim_kernel
        out.extend([int(2 - d)] * dim_kernel)
    if total != centralizer_dim(p.shape):
        raise AssertionError("graded centralizer of f has the wrong size")
    return sorted(out)
