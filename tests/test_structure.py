import random
from fractions import Fraction

import pytest

from walgebra.gl import GlElement, Grading, ad_matrix, bracket, trace_form
from walgebra.linalg import Echelon, kernel_basis
from walgebra.partitions import Partition, centralizer_dim, partitions_of
from walgebra.pyramids import (Pyramid, dynkin_pyramid, enumerate_pyramids,
                               french_pyramid, grading_of, is_even,
                               nilpotent_of)
from walgebra.structure import (build_m_n, centralizer_basis, check_good,
                                m_from_isotropic, orbit_dim, sl2_complete,
                                slodowy_degrees, symplectic_basis,
                                symplectic_form, symplectic_pairs,
                                unit_coords)


def eu(n, i, j):
    return GlElement.unit(n, i - 1, j - 1)


def test_bracket_examples():
    assert bracket(eu(2, 1, 2), eu(2, 2, 1)) == eu(2, 1, 1) - eu(2, 2, 2)
    x = eu(3, 1, 2) + eu(3, 2, 3).scale(5)
    assert bracket(x, x).is_zero()
    h = GlElement(3, {(0, 0): 1, (2, 2): -1})
    assert bracket(h, eu(3, 1, 3)) == eu(3, 1, 3).scale(2)


def test_check_good_gl3_examples():
    e = eu(3, 1, 3)
    dynkin = Grading.from_weights([1, 0, -1])
    rep = check_good(dynkin, e)
    assert rep.all_pass, rep.failures
    even = Grading.from_weights([1, 1, -1])
    rep = check_good(even, e)
    assert rep.all_pass, rep.failures
    assert even.units_of_degree(-1) == []
    flat = Grading.from_weights([0, 0])
    rep = check_good(flat, eu(2, 1, 2))
    assert not rep.e_in_degree_2
    assert not rep.all_pass


def test_check_good_all_pyramids_small():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for p in enumerate_pyramids(lam):
                rep = check_good(grading_of(p), nilpotent_of(p))
                assert rep.all_pass, (lam, p.left, rep.failures)


def test_injectivity_surjectivity_equivalence_on_random_gradings():
    # Keeping e in degree 2 but perturbing the remaining weights freely, the
    # injectivity and surjectivity conditions hold or fail together.
    rng = random.Random(11)
    e = eu(3, 1, 3)
    seen_failing = 0
    for _ in range(60):
        w1 = rng.randrange(-3, 4)
        w = [w1, rng.randrange(-3, 4), w1 - 2]
        g = Grading.from_weights(w)
        rep = check_good(g, e)
        assert rep.injective_below == rep.surjective_above, w
        if not rep.injective_below:
            seen_failing += 1
    assert seen_failing > 0


def test_sl2_regular_row_expected_entries():
    t = sl2_complete(Pyramid(Partition((4,)), (-3,)))
    assert t.h.entries == {(0, 0): 3, (1, 1): 1, (2, 2): -1, (3, 3): -3}


def test_sl2_complete_regular_row():
    for n in range(2, 6):
        p = Pyramid(Partition((n,)), (1 - n,))
        t = sl2_complete(p)
        assert t.h.entries == {(i, i): n - 1 - 2 * i for i in range(n)
                               if n - 1 - 2 * i != 0}
        assert t.f.entries == {(i + 1, i): (i + 1) * (n - 1 - i)
                               for i in range(n - 1)}


def test_sl2_complete_gl3_dynkin():
    lam = Partition((2, 1))
    t = sl2_complete(dynkin_pyramid(lam))
    assert t.e == eu(3, 1, 3)
    assert t.h == GlElement(3, {(0, 0): 1, (2, 2): -1})
    assert t.f == eu(3, 3, 1)


def test_sl2_complete_zero_case():
    t = sl2_complete(french_pyramid(Partition((1, 1, 1))))
    assert t.e.is_zero() and t.h.is_zero() and t.f.is_zero()


def test_sl2_complete_all_pyramids():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for p in enumerate_pyramids(lam):
                t = sl2_complete(p)
                t.validate()
                g = grading_of(p)
                assert all(g.degree(i, j) == 0 for (i, j) in t.h.entries)


def test_centralizer_basis_gl3_dynkin():
    lam = Partition((2, 1))
    basis = centralizer_basis(dynkin_pyramid(lam))
    g = grading_of(dynkin_pyramid(lam))
    by_degree = {}
    for z in basis:
        by_degree.setdefault(int(g.component_degree(z)), []).append(z)
    assert sorted(by_degree) == [0, 1, 2]
    assert len(by_degree[0]) == 2 and len(by_degree[1]) == 2 and len(by_degree[2]) == 1
    span = Echelon()
    for z in basis:
        span.insert(unit_coords(z))
    assert span.contains(unit_coords(eu(3, 1, 1) + eu(3, 3, 3)))
    assert span.contains(unit_coords(eu(3, 2, 2)))
    assert span.contains(unit_coords(eu(3, 1, 2)))
    assert span.contains(unit_coords(eu(3, 2, 3)))
    assert span.contains(unit_coords(eu(3, 1, 3)))


def test_centralizer_basis_zero_nilpotent():
    basis = centralizer_basis(french_pyramid(Partition((1, 1))))
    assert len(basis) == 4


def test_centralizer_spans_kernel_exactly():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for p in enumerate_pyramids(lam):
                basis = centralizer_basis(p)
                e = nilpotent_of(p)
                span = Echelon()
                for z in basis:
                    assert bracket(e, z).is_zero()
                    assert span.insert(unit_coords(z))
                kernel = kernel_basis(ad_matrix(e))
                assert span.dim == len(kernel)
                for vec in kernel:
                    assert span.contains({i: v for i, v in enumerate(vec) if v})


def test_symplectic_form_examples():
    lam = Partition((2, 1))
    p = dynkin_pyramid(lam)
    g = grading_of(p)
    e = nilpotent_of(p)
    gram = symplectic_form(g, e)
    # Basis of the degree -1 space in (row, col) order: E21, E32.
    # <E21, E32> = tr([E21, E32] E13) = tr(-E31 E13) = -1.
    assert gram.rows == gram.cols == 2
    assert gram.get(0, 1) == -1 and gram.get(1, 0) == 1
    assert gram.get(0, 0) == 0 and gram.get(1, 1) == 0

    even = french_pyramid(lam)
    gram0 = symplectic_form(grading_of(even), nilpotent_of(even))
    assert gram0.rows == gram0.cols == 0

    reg2 = Pyramid(Partition((2,)), (-1,))
    gram2 = symplectic_form(grading_of(reg2), nilpotent_of(reg2))
    assert gram2.rows == 0


def test_symplectic_pairs_normalized():
    for lam in [Partition((2, 1)), Partition((3, 2)), Partition((2, 2, 1))]:
        p = dynkin_pyramid(lam)
        g, e = grading_of(p), nilpotent_of(p)
        ps, qs = symplectic_pairs(g, e)
        assert 2 * len(ps) == len(g.units_of_degree(-1))
        for a, x in enumerate(ps):
            for b, y in enumerate(qs):
                expect = Fraction(1) if a == b else Fraction(0)
                assert trace_form(bracket(x, y), e) == expect
            for y in ps:
                assert trace_form(bracket(x, y), e) == 0


def test_symplectic_basis_rejects_degenerate_form():
    with pytest.raises(ValueError, match="degenerate"):
        symplectic_basis([(1, 0), (2, 1)], GlElement.zero(3))


def test_build_m_n_gl2_regular():
    p = Pyramid(Partition((2,)), (-1,))
    m, nn, chi = build_m_n(grading_of(p), nilpotent_of(p), 0)
    assert [x for x in m.basis] == [eu(2, 2, 1)]
    assert m.basis == nn.basis
    assert chi.value(eu(2, 2, 1)) == 1


def test_build_m_n_lagrangian_dimension():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for p in enumerate_pyramids(lam):
                g, e = grading_of(p), nilpotent_of(p)
                s = len(g.units_of_degree(-1)) // 2
                m, nn, chi = build_m_n(g, e, s)
                assert m.basis == nn.basis
                assert 2 * m.dim == orbit_dim(e)
                # chi kills brackets of m.
                for x in m.basis:
                    for y in m.basis:
                        assert chi.value(bracket(x, y)) == 0


def test_build_m_n_rank_zero_and_errors():
    p = dynkin_pyramid(Partition((2, 1)))
    g, e = grading_of(p), nilpotent_of(p)
    m, nn, _ = build_m_n(g, e, 0)
    assert m.dim == 1  # only the degree -2 unit E31
    assert nn.dim == 3
    with pytest.raises(ValueError):
        build_m_n(g, e, 2)


def test_m_is_bracket_closed_and_inside_n():
    for lam in [Partition((2, 1)), Partition((3, 1)), Partition((2, 2, 1))]:
        for p in enumerate_pyramids(lam):
            g, e = grading_of(p), nilpotent_of(p)
            s = len(g.units_of_degree(-1)) // 2
            for r in range(s + 1):
                m, nn, chi = build_m_n(g, e, r)
                span = Echelon()
                for x in nn.basis:
                    span.insert(unit_coords(x))
                for x in m.basis:
                    for y in m.basis:
                        br = bracket(x, y)
                        if not br.is_zero():
                            assert span.contains(unit_coords(br))
                        assert chi.value(br) == 0


def test_m_from_isotropic_validates():
    p = dynkin_pyramid(Partition((2, 1)))
    g, e = grading_of(p), nilpotent_of(p)
    m = m_from_isotropic(g, e, [eu(3, 2, 1)])
    assert m.dim == 2
    with pytest.raises(ValueError):
        m_from_isotropic(g, e, [eu(3, 2, 1), eu(3, 3, 2)])


def test_slodowy_degrees_examples():
    for n in range(1, 6):
        p = Pyramid(Partition((n,)), (1 - n,))
        assert slodowy_degrees(p) == [2 * k for k in range(1, n + 1)]
    for n in range(1, 5):
        p = french_pyramid(Partition((1,) * n))
        assert slodowy_degrees(p) == [2] * (n * n)
    # Centered pyramid of (2,1): degrees of a homogeneous basis of the
    # f-centralizer are {0,0,-1,-1,-2}, giving 2-d degrees {2,2,3,3,4}.
    assert slodowy_degrees(dynkin_pyramid(Partition((2, 1)))) == [2, 2, 3, 3, 4]


def test_slodowy_degrees_size_and_parity():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for p in enumerate_pyramids(lam):
                degs = slodowy_degrees(p)
                assert len(degs) == centralizer_dim(lam)
                if is_even(p):
                    assert all(d % 2 == 0 for d in degs)


def test_pairing_orthogonality_full_quadratic_oracle():
    # Full loop over unit pairs for one pyramid, not just opposite pairs.
    p = dynkin_pyramid(Partition((3, 1)))
    g, _ = grading_of(p), nilpotent_of(p)
    n = 4
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    v = trace_form(GlElement.unit(n, i, j), GlElement.unit(n, k, l))
                    if v:
                        assert g.degree(i, j) + g.degree(k, l) == 0
