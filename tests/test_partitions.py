import pytest
from hypothesis import given, settings, strategies as st

from walgebra.gl import GlElement, ad_matrix
from walgebra.linalg import rank
from walgebra.partitions import (Partition, centralizer_dim, closure_leq,
                                 conjugate, jordan_matrix, partitions_of)


@st.composite
def partitions(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    opts = partitions_of(n)
    return draw(st.sampled_from(opts))


def test_conjugate_examples():
    assert conjugate(Partition((3, 2, 2))) == Partition((3, 3, 1))
    assert conjugate(Partition((5,))) == Partition((1,) * 5)
    assert conjugate(Partition((4, 1))) == Partition((2, 1, 1, 1))


@settings(max_examples=80, deadline=None)
@given(partitions())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_centralizer_dim_examples():
    assert centralizer_dim(Partition((1, 1, 1, 1))) == 16
    for n in range(1, 7):
        assert centralizer_dim(Partition((n,))) == n
    assert centralizer_dim(Partition((3, 2, 2))) == 19


@settings(max_examples=40, deadline=None)
@given(partitions(max_n=6))
def test_centralizer_dim_matches_adjoint_kernel(lam):
    e = jordan_matrix(lam)
    n = lam.n
    assert centralizer_dim(lam) == n * n - rank(ad_matrix(e))
    assert centralizer_dim(lam) == sum(c * c for c in conjugate(lam).parts)


def test_jordan_matrix_examples():
    assert jordan_matrix(Partition((2,))) == GlElement.unit(2, 0, 1)
    assert jordan_matrix(Partition((1, 1))) == GlElement.zero(2)
    assert jordan_matrix(Partition((2, 1))) == GlElement.unit(3, 0, 1)


def test_jordan_matrix_block_structure():
    m = jordan_matrix(Partition((3, 2)))
    assert m.entries == {(0, 1): 1, (1, 2): 1, (3, 4): 1}


def test_closure_order_examples():
    for lam in partitions_of(5):
        assert closure_leq(lam, Partition((5,)))
        assert closure_leq(Partition((1,) * 5), lam)
    assert closure_leq(Partition((2, 2)), Partition((3, 1)))
    assert not closure_leq(Partition((3, 1)), Partition((2, 2)))


def test_closure_size_mismatch():
    with pytest.raises(ValueError):
        closure_leq(Partition((2,)), Partition((2, 1)))


def test_closure_is_partial_order():
    parts = partitions_of(6)
    for a in parts:
        assert closure_leq(a, a)
        for b in parts:
            if closure_leq(a, b) and closure_leq(b, a):
                assert a == b
            for c in parts:
                if closure_leq(a, b) and closure_leq(b, c):
                    assert closure_leq(a, c)


def test_partitions_of_counts():
    counts = [len(partitions_of(n)) for n in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]
