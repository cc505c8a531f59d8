import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from walgebra.gl import GlElement, bracket
from walgebra.partitions import Partition
from walgebra.pbw import PbwContext, PbwElement
from walgebra.pyramids import (Pyramid, dynkin_pyramid, enumerate_pyramids,
                               french_pyramid, grading_of)
from walgebra.structure import slodowy_degrees


def eu(n, i, j):
    return GlElement.unit(n, i - 1, j - 1)


def reg_ctx(n):
    return PbwContext.from_pyramid(Pyramid(Partition((n,)), (1 - n,)))


def brute_monomial_counts(degrees, max_degree):
    """Count monomials in commuting variables of the given degrees by brute
    enumeration of exponent vectors."""
    counts = {d: 0 for d in range(max_degree + 1)}
    ranges = [range(max_degree // d + 1) for d in degrees]
    for expo in itertools.product(*ranges):
        total = sum(e * d for e, d in zip(expo, degrees))
        if total <= max_degree:
            counts[total] += 1
    return counts


def random_element(ctx, rng, deg, nterms):
    out = ctx.zero()
    nsym = len(ctx.symbols)
    for _ in range(nterms):
        word = tuple(sorted(rng.randrange(nsym)
                            for _ in range(rng.randrange(deg + 1))))
        out = out + PbwElement(ctx, {word: Fraction(rng.randrange(-3, 4))})
    return out


def test_multiply_straightening_step_gl2():
    ctx = reg_ctx(2)
    e12 = ctx.from_gl(eu(2, 1, 2))
    e21 = ctx.from_gl(eu(2, 2, 1))
    e11 = ctx.from_gl(eu(2, 1, 1))
    e22 = ctx.from_gl(eu(2, 2, 2))
    # In the canonical order E11 < E22 < E12 < E21, the product E12*E21 is
    # already a normal monomial, and E21*E12 takes one straightening step.
    prod = e12 * e21
    assert len(prod.terms) == 1 and list(prod.terms.values()) == [Fraction(1)]
    assert (e21 * e12) == prod - e11 + e22
    assert (e12 * e21) - (e21 * e12) == e11 - e22


def rewrite_oracle(ctx, word):
    """Normal form of any word by rewriting its leftmost inversion,
    x_a x_b = x_b x_a + [x_a, x_b], without a memo: the word-rewriting
    product that the normal-monomial multiplication replaced."""
    for t in range(len(word) - 1):
        a, b = word[t], word[t + 1]
        if a > b:
            out = dict(rewrite_oracle(ctx, word[:t] + (b, a) + word[t + 2:]))
            br = ctx.from_gl(bracket(ctx.symbols[a].gl, ctx.symbols[b].gl))
            for letter, c in br.terms.items():
                shorter = word[:t] + letter + word[t + 2:]
                for w, v in rewrite_oracle(ctx, shorter).items():
                    out[w] = out.get(w, 0) + c * v
            return {w: v for w, v in out.items() if v}
    return {word: Fraction(1)}


ORACLE_CONTEXTS = {
    "gl3": PbwContext.standard(3),
    "dynkin(2,1)": PbwContext.from_pyramid(dynkin_pyramid(Partition((2, 1)))),
    "dynkin(3,2)": PbwContext.from_pyramid(dynkin_pyramid(Partition((3, 2)))),
}


def normal_elements(nsym):
    word = st.lists(st.integers(0, nsym - 1), max_size=4).map(
        lambda w: tuple(sorted(w)))
    coeff = st.integers(-3, 3).filter(bool).map(Fraction)
    return st.dictionaries(word, coeff, min_size=1, max_size=2)


def test_oracle_pyramid_contexts_have_pq_symbols():
    for name, ctx in ORACLE_CONTEXTS.items():
        if name != "gl3":
            assert any(sym.kind == "c" for sym in ctx.symbols)


@pytest.mark.parametrize("name", sorted(ORACLE_CONTEXTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_multiply_matches_rewriting_oracle(name, data):
    ctx = ORACLE_CONTEXTS[name]
    left = data.draw(normal_elements(len(ctx.symbols)))
    right = data.draw(normal_elements(len(ctx.symbols)))
    expected: dict = {}
    for wu, cu in left.items():
        for wv, cv in right.items():
            for w, v in rewrite_oracle(ctx, wu + wv).items():
                expected[w] = expected.get(w, 0) + cu * cv * v
    product = PbwElement(ctx, left) * PbwElement(ctx, right)
    assert product == PbwElement(ctx, expected)


def test_multiply_deep_word_closed_form():
    # Order E11 < E12 < E21 < E22: E21 * E12^m needs m swaps to normal form,
    # E21 E12^m = E12^m E21 - m E11 E12^(m-1) + m E12^(m-1) E22.
    ctx = PbwContext.standard(2)
    e11, e12, e21, e22 = range(4)
    m = 2000
    prod = ctx.multiply(ctx.symbol_element(e21),
                        PbwElement(ctx, {(e12,) * m: Fraction(1)}))
    assert prod.terms == {(e12,) * m + (e21,): 1,
                          (e11,) + (e12,) * (m - 1): -m,
                          (e12,) * (m - 1) + (e22,): m}


def test_multiply_high_powers_associative():
    ctx = PbwContext.standard(2)

    def power(s, k):
        return PbwElement(ctx, {(s,) * k: Fraction(1)})

    e12, e21 = 1, 2
    full = power(e21, 16) * power(e12, 16)
    assert full == power(e21, 8) * (power(e21, 8) * power(e12, 16))
    assert full == (power(e21, 16) * power(e12, 8)) * power(e12, 8)


def test_multiply_unit_and_scalars():
    ctx = reg_ctx(2)
    u = ctx.from_gl(eu(2, 1, 2)) * ctx.from_gl(eu(2, 1, 1)) + 3
    assert ctx.one() * u == u
    assert u * ctx.one() == u
    assert (u * 2).scale(Fraction(1, 2)) == u


def test_multiply_matches_brackets_on_symbols():
    ctx = PbwContext.standard(3)
    units = [(i, j) for i in range(3) for j in range(3)]
    for (i, j) in units:
        for (k, l) in units:
            x, y = GlElement.unit(3, i, j), GlElement.unit(3, k, l)
            lhs = ctx.from_gl(x) * ctx.from_gl(y) - ctx.from_gl(y) * ctx.from_gl(x)
            assert lhs == ctx.from_gl(bracket(x, y))


def test_multiply_associative_random_gl3():
    ctx = PbwContext.standard(3)
    rng = random.Random(5)
    for _ in range(50):
        u = random_element(ctx, rng, 3, 2)
        v = random_element(ctx, rng, 3, 2)
        w = random_element(ctx, rng, 3, 2)
        assert (u * v) * w == u * (v * w)


def test_ad_action_examples():
    ctx = reg_ctx(2)
    assert ctx.ad_action(eu(2, 2, 1), ctx.one()).is_zero()
    img = ctx.ad_action(eu(2, 2, 1), ctx.from_gl(eu(2, 1, 2)))
    assert img == ctx.from_gl(eu(2, 2, 2)) - ctx.from_gl(eu(2, 1, 1))


def test_ad_action_leibniz_random():
    ctx = PbwContext.standard(2)
    rng = random.Random(9)
    for _ in range(20):
        x = GlElement(2, {(rng.randrange(2), rng.randrange(2)): rng.randrange(1, 4)})
        u = random_element(ctx, rng, 2, 2)
        v = random_element(ctx, rng, 2, 2)
        lhs = ctx.ad_action(x, u * v)
        rhs = ctx.ad_action(x, u) * v + u * ctx.ad_action(x, v)
        assert lhs == rhs


def test_kazhdan_degree_examples():
    ctx = reg_ctx(2)
    # Weights of the single-row pyramid: deg E12 = 2, diagonal 0, E21 = -2.
    assert ctx.kazhdan_degree(ctx.from_gl(eu(2, 1, 2))) == 4
    assert ctx.kazhdan_degree(ctx.from_gl(eu(2, 1, 1))) == 2
    assert ctx.kazhdan_degree(ctx.one()) == 0
    h = ctx.from_gl(eu(2, 1, 1)) - ctx.from_gl(eu(2, 2, 2))
    u = ctx.from_gl(eu(2, 1, 2)) + h * h * Fraction(1, 4) - h * Fraction(1, 2)
    assert ctx.kazhdan_degree(u) == 4


def test_kazhdan_submultiplicative_and_gr_commutative():
    ctx = reg_ctx(3)
    rng = random.Random(3)
    for _ in range(25):
        u = random_element(ctx, rng, 2, 2)
        v = random_element(ctx, rng, 2, 2)
        du, dv = ctx.kazhdan_degree(u), ctx.kazhdan_degree(v)
        prod = u * v
        assert ctx.kazhdan_degree(prod) <= du + dv
        comm = u * v - v * u
        if not comm.is_zero() and not u.is_zero() and not v.is_zero():
            assert ctx.kazhdan_degree(comm) < du + dv


def test_q_reduce_examples():
    ctx = reg_ctx(2)
    e21 = ctx.from_gl(eu(2, 2, 1))
    # Generators of the ideal reduce to their character values.
    assert ctx.q_reduce(e21) == ctx.scalar(1)
    # Elements of U(p) are untouched.
    u = ctx.from_gl(eu(2, 1, 2)) * ctx.from_gl(eu(2, 1, 1)) + 5
    assert ctx.q_reduce(u) == u
    # E12*E21 acts on the cyclic vector through chi(E21) = 1.
    prod = ctx.from_gl(eu(2, 1, 2)) * e21
    assert ctx.q_reduce(prod) == ctx.from_gl(eu(2, 1, 2))
    # The reversed product picks up the bracket correction.
    prod2 = e21 * ctx.from_gl(eu(2, 1, 2))
    expected = (ctx.from_gl(eu(2, 1, 2)) - ctx.from_gl(eu(2, 1, 1))
                + ctx.from_gl(eu(2, 2, 2)))
    assert ctx.q_reduce(prod2) == expected


def test_q_reduce_left_ideal_absorption():
    rng = random.Random(17)
    for pyr in enumerate_pyramids(Partition((2, 1))):
        ctx = PbwContext.from_pyramid(pyr)
        for s in ctx.m_indices:
            a = ctx.symbol_element(s) - ctx.symbols[s].chi
            for _ in range(10):
                u = random_element(ctx, rng, 3, 2)
                assert ctx.q_reduce(u * a).is_zero()


def test_whittaker_invariance_gl2_regular():
    ctx = reg_ctx(2)
    center = ctx.from_gl(eu(2, 1, 1)) + ctx.from_gl(eu(2, 2, 2))
    assert ctx.is_whittaker_invariant(center)
    h = ctx.from_gl(eu(2, 1, 1)) - ctx.from_gl(eu(2, 2, 2))
    casimir = (ctx.from_gl(eu(2, 1, 2)) + h * h * Fraction(1, 4)
               - h * Fraction(1, 2))
    assert ctx.is_whittaker_invariant(casimir)
    assert not ctx.is_whittaker_invariant(ctx.from_gl(eu(2, 1, 1)))


def test_rdet_generators_small():
    ctx1 = reg_ctx(1)
    (w1,) = ctx1.rdet_w_generators()
    assert w1 == ctx1.from_gl(eu(1, 1, 1)) + 1

    ctx = reg_ctx(2)
    w1, w2 = ctx.rdet_w_generators()
    assert w1 == ctx.from_gl(eu(2, 1, 1)) + ctx.from_gl(eu(2, 2, 2)) + 3
    e11, e22 = ctx.from_gl(eu(2, 1, 1)), ctx.from_gl(eu(2, 2, 2))
    assert w2 == (e11 + 1) * (e22 + 2) - ctx.from_gl(eu(2, 1, 2))


def rdet_permutation_oracle(ctx):
    """rdet_w_generators as the signed sum over all n! permutations of
    the row-ordered products of entries."""
    n = ctx.n

    def entry(i, j):
        if j > i:
            return {0: ctx.from_gl(GlElement.unit(n, i, j))}
        if j == i:
            return {0: ctx.from_gl(GlElement.unit(n, i, i)) + (i + 1),
                    1: ctx.one()}
        if j == i - 1:
            return {0: ctx.one()}
        return {}

    total: dict = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b]
                         for a, b in itertools.combinations(range(n), 2))
        acc = {0: ctx.scalar(-1 if inversions % 2 else 1)}
        for i in range(n):
            nxt: dict = {}
            for da, ua in acc.items():
                for db, ub in entry(i, perm[i]).items():
                    nxt[da + db] = nxt.get(da + db, ctx.zero()) + ua * ub
            acc = nxt
        for d, u in acc.items():
            total[d] = total.get(d, ctx.zero()) + u
    assert total[n] == ctx.one()
    return [total.get(n - i, ctx.zero()) for i in range(1, n + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rdet_matches_permutation_sum(n):
    ctx = reg_ctx(n)
    assert ctx.rdet_w_generators() == rdet_permutation_oracle(ctx)


def test_rdet_generators_invariant_and_commuting():
    for n in (2, 3):
        ctx = reg_ctx(n)
        gens = ctx.rdet_w_generators()
        for w in gens:
            assert all(ctx.symbols[s].kind == "p"
                       for word in w.terms for s in word)
            assert ctx.is_whittaker_invariant(w)
        for a, b in itertools.combinations(gens, 2):
            assert (a * b - b * a).is_zero()


def test_eta_twist_examples():
    lam = Partition((1, 1, 1))
    ctx = PbwContext.from_pyramid(french_pyramid(lam))
    for i in range(3):
        twisted = ctx.eta_twist(ctx.from_gl(GlElement.unit(3, i, i)))
        assert twisted == ctx.from_gl(GlElement.unit(3, i, i)) + (1 - 3)

    lam = Partition((2, 1))
    ctx = PbwContext.from_pyramid(french_pyramid(lam))
    off = ctx.from_gl(eu(3, 2, 3))
    assert ctx.eta_twist(off) == off
    rng = random.Random(23)
    for _ in range(10):
        u = random_element(ctx, rng, 2, 2)
        if any(ctx.symbols[s].kind == "m" for w in u.terms for s in w):
            continue
        assert ctx.eta_twist(ctx.eta_twist(u), inverse=True) == u


def test_eta_twist_rejects_m_support():
    ctx = PbwContext.from_pyramid(french_pyramid(Partition((2, 1))))
    low = ctx.symbol_element(ctx.m_indices[0])
    with pytest.raises(ValueError):
        ctx.eta_twist(low)


def test_w_space_zero_nilpotent():
    lam = Partition((1, 1))
    ctx = PbwContext.from_pyramid(french_pyramid(lam))
    basis = ctx.w_space_basis(2)
    assert len(basis.get(2, [])) == 4
    assert len(basis.get(0, [])) == 1


def test_w_space_gl2_regular():
    ctx = reg_ctx(2)
    basis = ctx.w_space_basis(4)
    dims = {d: len(v) for d, v in basis.items()}
    assert dims == {0: 1, 2: 1, 4: 2}


def test_w_space_gl3_regular_matches_slodowy_counts():
    pyr = Pyramid(Partition((3,)), (-2,))
    ctx = PbwContext.from_pyramid(pyr)
    basis = ctx.w_space_basis(6)
    dims = {d: len(v) for d, v in basis.items()}
    counts = brute_monomial_counts(slodowy_degrees(pyr), 6)
    assert dims == {d: c for d, c in counts.items() if c}


def test_w_space_21_all_pyramids_and_ranks():
    for lam in [Partition((2, 1)), Partition((3, 1)), Partition((2, 2))]:
        for pyr in enumerate_pyramids(lam):
            counts = brute_monomial_counts(slodowy_degrees(pyr), 5)
            expected = {d: c for d, c in counts.items() if c}
            s = len(grading_of(pyr).units_of_degree(-1)) // 2
            for rank in range(s + 1):
                ctx = PbwContext.from_pyramid(pyr, isotropic_rank=rank)
                basis = ctx.w_space_basis(5)
                dims = {d: len(v) for d, v in basis.items()}
                assert dims == expected, (lam, pyr.left, rank, dims, expected)
                # Each element ends, in (Kazhdan degree, word) order, on its
                # own word of degree d with coefficient 1.
                lasts = []
                for d, ws in basis.items():
                    for w in ws:
                        last = max(w.terms, key=ctx._word_key)
                        assert w.terms[last] == 1
                        assert ctx._word_key(last)[0] == d
                        lasts.append(last)
                assert len(set(lasts)) == len(lasts)


def test_w_space_elements_are_invariant_and_product_closed():
    pyr = dynkin_pyramid(Partition((2, 1)))
    ctx = PbwContext.from_pyramid(pyr)
    basis = ctx.w_space_basis(4)
    flat = [w for vs in basis.values() for w in vs]
    over = list(ctx.n_basis)
    for w in flat:
        assert ctx.is_whittaker_invariant(w, over)
    for a in flat:
        for b in flat:
            assert ctx.is_whittaker_invariant(a * b, over)


def test_to_standard_round_trip():
    ctx = PbwContext.from_pyramid(dynkin_pyramid(Partition((2, 1))))
    std = PbwContext.standard(3)
    rng = random.Random(31)
    for _ in range(10):
        u = random_element(ctx, rng, 2, 2)
        v = random_element(ctx, rng, 2, 2)
        pu, pv = ctx.to_standard(u, std), ctx.to_standard(v, std)
        assert ctx.to_standard(u * v, std) == std.multiply(pu, pv)


def test_json_serialization_deterministic():
    ctx = reg_ctx(2)
    w1, w2 = ctx.rdet_w_generators()
    js = w2.to_json()
    assert js == w2.to_json()
    assert {"monomial": [[1, 2, 1]], "coeff": "-1/1"} in js


def test_context_rejects_repeated_symbol():
    std = PbwContext.standard(2)
    symbols = list(std.symbols)
    symbols[1] = symbols[0]  # E11 twice, E12 missing
    with pytest.raises(ValueError, match="basis"):
        PbwContext(2, symbols, std.grading)


def test_context_rejects_m_symbols_before_complement():
    ctx = PbwContext.from_pyramid(dynkin_pyramid(Partition((2,))))
    symbols = list(ctx.symbols)
    symbols.insert(0, symbols.pop(ctx.m_indices[0]))
    with pytest.raises(ValueError, match="m-symbols must come last"):
        PbwContext(2, symbols, ctx.grading, chi=ctx.chi)


def test_from_gl_rejects_wrong_size():
    ctx = PbwContext.standard(2)
    for x in (GlElement.unit(1, 0, 0), GlElement.unit(3, 2, 2)):
        with pytest.raises(ValueError, match="gl_2 context"):
            ctx.from_gl(x)
