from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from intgeo import linalg
from intgeo.hermitian import PiMatrix
from intgeo.linalg import (SingularMatrixError, identity, invert_integer,
                           kernel_basis, kernel_equals_span, rref)
from intgeo.scalars import MixedPiGrading, Scalar
from oracles import (curved_relation_quotient, ideal_rows, invert_exact_scalar, mat_mul,
                     scalar_mat_mul, sparse_rows, truncated_multiples, un_relation_quotient)

F0, F1 = Fraction(0), Fraction(1)


def test_identity_inverse():
    eye = identity(3)
    assert invert_integer(eye) == (1, eye)
    assert invert_integer([]) == (1, [])
    with pytest.raises(ValueError):
        invert_integer([[1, 2]])


def test_scalar_one_by_one():
    m = [[Scalar.pi_power(-1, 2)]]
    inv = invert_exact_scalar(m)
    assert inv == [[Scalar.pi_power(1, Fraction(1, 2))]]


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert_integer([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        PiMatrix(1, [[1, 1], [1, 1]], 3).inverse()
    with pytest.raises(SingularMatrixError):
        invert_exact_scalar([[Scalar.pi_power(1), Scalar.one()],
                             [Scalar.pi_power(2), Scalar.pi_power(1)]])


@given(st.lists(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                         min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_random_inverse(rows):
    """invert_integer on the integer part of a random rational block gives
    (c, c m^-1); the block's inverse agrees with the Scalar Bareiss oracle
    and is a two-sided inverse over Q."""
    block = PiMatrix.read(rows)
    try:
        det, adj = invert_integer(block.m)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            invert_exact_scalar(rows)
        with pytest.raises(SingularMatrixError):
            block.inverse()
        return
    scaled = [[det * x for x in row] for row in identity(4)]
    assert mat_mul(block.m, adj) == mat_mul(adj, block.m) == scaled
    assert block.inverse().scalars() == invert_exact_scalar(rows)
    inv = [[x.coeff for x in row] for row in block.inverse().scalars()]
    assert mat_mul(rows, inv) == identity(4)
    assert mat_mul(inv, rows) == identity(4)


def test_scalar_entry_inverse():
    # several powers of pi, graded by row and column: every minor is one power
    m = [[Scalar.pi_power(1), Scalar.one()],
         [Scalar.zero(), Scalar.pi_power(-1, 3)]]
    inv = invert_exact_scalar(m)
    assert scalar_mat_mul(m, inv) == identity(2)


def test_scalar_inverse_rejects_ungraded_input():
    pi, one = Scalar.pi_power(1), Scalar.one()
    with pytest.raises(MixedPiGrading):
        invert_exact_scalar([[pi, one], [one, pi]])


def test_rref_and_kernel():
    rows = [[F1, Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)]]
    reduced, pivots = rref(sparse_rows(rows), 3)
    assert pivots == [0]
    assert reduced == [{0: F1, 1: Fraction(2), 2: Fraction(3)}]
    kern = kernel_basis(rows, 3)
    assert kern == [{1: F1, 0: Fraction(-2)}, {2: F1, 0: Fraction(-3)}]
    for v in kern:
        assert all(sum(r[j] * x for j, x in v.items()) == 0 for r in rows)
    # int rows reduce over Q: every entry is a Fraction, never a float
    reduced, pivots = rref([{0: 2, 1: 1}, {1: 3}], 2)
    assert (reduced, pivots) == ([{0: F1}, {1: F1}], [0, 1])
    kern = kernel_basis([[2, 1]], 2)
    assert kern == [{1: F1, 0: Fraction(-1, 2)}]
    assert all(type(x) is Fraction
               for row in reduced + kern for x in row.values())


def test_kernel_equals_span_verdicts(monkeypatch):
    half = Fraction(1, 2)
    matrix = [[1, 1, 0], [0, 2, 2]]
    # the kernel is spanned by (1, -1, 1), given in any scaling
    assert kernel_equals_span(matrix, [{0: half, 1: -half, 2: half}], 3) is True
    # a row outside the kernel is refuted exactly
    assert kernel_equals_span(matrix, [{0: F1}], 3) is False
    # rows inside a larger kernel: the rank falls short, and the exact
    # comparison finds the kernel strictly larger than the span
    assert kernel_equals_span([[1, 1, 0]], [{0: F1, 1: -F1}], 3) is False
    assert kernel_equals_span([[1, 1, 0]], [{0: F1, 1: -F1}, {2: F1}], 3) is True
    # dependent rows count by their rank, not their number
    assert kernel_equals_span([[1, 1, 0]], [{0: F1, 1: -F1}, {0: -2, 1: 2}], 3) is False
    assert kernel_equals_span([[1, 1, 0]], [{0: F1, 1: -F1}, {2: F1}, {0: 1, 1: -1, 2: 3}],
                              3) is True
    # an entry divisible by the prime drops the rank modulo p only
    p = linalg.CERTIFICATE_PRIME
    assert kernel_equals_span([[p, 0], [0, 1]], [], 2) is True
    assert kernel_equals_span([[p, 0], [0, 0]], [], 2) is False
    assert kernel_equals_span([[p + 1, 0], [0, 1]], [], 2) is True
    # an unlucky prime: every rank falls short, and every verdict is exact
    monkeypatch.setattr(linalg, "CERTIFICATE_PRIME", 2)
    assert kernel_equals_span(matrix, [{0: half, 1: -half, 2: half}], 3) is True
    assert kernel_equals_span(matrix, [{0: 2 * half, 1: -F1, 2: F1}], 3) is True
    assert kernel_equals_span(matrix, [], 3) is False
    assert kernel_equals_span(matrix, [{0: F1}], 3) is False


def reference_rref(rows, ncols):
    """Textbook Gauss-Jordan on dense rows over the whole width: the oracle
    for the sparse reduction."""
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


@st.composite
def interleaved_blocks(draw):
    """2-4 random blocks on disjoint columns, the columns shuffled together,
    plus zero rows and one repeated row, in random row order."""
    entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    blocks = []
    for _ in range(draw(st.integers(2, 4))):
        width = draw(st.integers(1, 4))
        blocks.append(draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                                    min_size=1, max_size=4)))
    ncols = sum(len(b[0]) for b in blocks)
    perm = draw(st.permutations(range(ncols)))
    rows = []
    offset = 0
    for block in blocks:
        for sub in block:
            row = [F0] * ncols
            for j, x in enumerate(sub):
                row[perm[offset + j]] = x
            rows.append(row)
        offset += len(block[0])
    rows += [[F0] * ncols for _ in range(draw(st.integers(1, 2)))]
    rows.append(list(draw(st.sampled_from(rows))))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


def dense_rows(rows, ncols):
    return [[row.get(j, F0) for j in range(ncols)] for row in rows]


def assert_sparse_rref(reduced, pivots):
    """No stored zeros, Fraction entries, ascending pivots, each pivot entry 1
    and held by no other row."""
    assert pivots == sorted(set(pivots)) and len(pivots) == len(reduced)
    for row, p in zip(reduced, pivots):
        assert all(type(x) is Fraction and x for x in row.values())
        assert row[p] == 1 and min(row) == p
        assert all(p not in other for other in reduced if other is not row)


def assert_matches_reference(rows, ncols):
    """rref of the sparse rows is the reference reduction of the dense rows."""
    reduced, pivots = rref(sparse_rows(rows), ncols)
    assert_sparse_rref(reduced, pivots)
    ref_reduced, ref_pivots = reference_rref(rows, ncols)
    assert (dense_rows(reduced, ncols), pivots) == (ref_reduced, ref_pivots)
    assert reduced == sparse_rows(ref_reduced)
    return reduced, pivots


@given(interleaved_blocks())
@settings(max_examples=40, deadline=None)
def test_block_rref_matches_dense(case):
    assert_matches_reference(*case)


def test_block_rref_single_dense_block():
    rows = [[Fraction(2), Fraction(1), Fraction(-1), Fraction(3)],
            [Fraction(1), Fraction(1, 2), Fraction(4), F1],
            [Fraction(3), Fraction(3, 2), Fraction(3), Fraction(4)]]
    _, pivots = assert_matches_reference(rows, 4)
    assert pivots == [0, 2]


def test_sparse_rref_invariants():
    # int entries, a stored zero, an empty row and a zero row
    rows = [{0: 2, 1: 0, 2: 4}, {}, {1: 0}, {0: 1, 1: 3, 2: 2}, {0: 3, 1: 3, 2: 6}]
    reduced, pivots = rref(rows, 3)
    assert_sparse_rref(reduced, pivots)
    assert (reduced, pivots) == ([{0: F1, 2: Fraction(2)}, {1: F1}], [0, 1])
    assert rref([], 5) == ([], [])
    assert rref([{}, {2: 0}], 3) == ([], [])
    # the input rows are left as they were
    assert rows[0] == {0: 2, 1: 0, 2: 4}


def test_ideal_multiples_reduce_as_reference():
    """The real ideal multiples, built densely, reduce alike both ways, and
    the quotient's ideal rows over its columns are that reduction."""
    algebras = ([un_relation_quotient(n) for n in range(1, 11)]
                + [curved_relation_quotient(n) for n in range(1, 9)])
    for alg in algebras:
        reduced, _ = assert_matches_reference(truncated_multiples(alg),
                                              len(alg.columns))
        assert ideal_rows(alg, alg.columns) == reduced
