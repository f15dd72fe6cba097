import random
from fractions import Fraction

import pytest

from intgeo.graded import GeneratorSet, LinearFunctional, QuotientAlgebra, TensorTable
from intgeo.hermitian import disk_value, fk
from intgeo.scalars import Scalar
from oracles import RelationQuotient, monomials_of_degree


def test_monomial_ideal_hilbert():
    alg = RelationQuotient(("t",), (1,), [{(3,): Fraction(1)}], 4)
    assert alg.hilbert_series() == [1, 1, 1, 0, 0]


def test_two_generator_hilbert():
    alg = RelationQuotient(("s", "t"), (2, 1), [fk(3), fk(4)], 4)
    assert alg.hilbert_series() == [1, 1, 2, 1, 1]


def test_second_family_hilbert():
    alg = RelationQuotient(("s", "t"), (2, 1), [fk(4), fk(5)], 6)
    assert alg.hilbert_series() == [1, 1, 2, 2, 2, 1, 1]


def test_normal_form_examples():
    alg = RelationQuotient(("s", "t"), (2, 1), [fk(3), fk(4)], 4)
    st = alg.element({(1, 1): Fraction(1)})
    assert st == alg.element({(0, 3): Fraction(1, 3)})
    # basis monomials are fixed points
    for d, monos in alg.basis.items():
        for m in monos:
            assert alg.element({m: Fraction(1)}).terms == {m: Fraction(1)}
    tn1 = RelationQuotient(("t",), (1,), [{(4,): Fraction(1)}], 5)
    assert tn1.element({(4,): Fraction(1)}).is_zero()


def test_multiply_examples():
    alg = RelationQuotient(("s", "t"), (2, 1), [fk(3), fk(4)], 4)
    one = alg.one()
    s = alg.element({(1, 0): Fraction(1)})
    t = alg.element({(0, 1): Fraction(1)})
    assert alg.multiply(one, s) == s
    assert alg.multiply(t, alg.multiply(t, t)) == alg.element({(0, 3): Fraction(1)})
    ss = alg.multiply(s, s)
    assert ss == alg.element({(0, 4): Fraction(1, 6)})
    # cross-check against independent disk evaluations: both sides of the
    # reduction must pair identically with the top functional
    assert disk_value(2, (2, 0)) == disk_value(2, (0, 4)) * Fraction(1, 6)


def test_reduction_idempotent():
    for alg in (
        RelationQuotient(("t",), (1,), [{(4,): Fraction(1)}], 3),
        RelationQuotient(("s", "t"), (2, 1), [fk(3), fk(4)], 4),
        RelationQuotient(("s", "t"), (2, 1), [fk(4), fk(5)], 6),
    ):
        for d in range(alg.truncation + 1):
            for m in monomials_of_degree(alg.gens, d):
                once = alg.element({m: Fraction(1)})
                assert alg.normal_form_raw(once.terms) == once


def test_product_associative_random():
    alg = RelationQuotient(("s", "t"), (2, 1), [fk(4), fk(5)], 6)
    rng = random.Random(7)
    elements = []
    for _ in range(6):
        terms = {}
        for d in range(3):
            for m in monomials_of_degree(alg.gens, d):
                terms[m] = Fraction(rng.randint(-3, 3))
        elements.append(alg.element(terms))
    for x in elements[:3]:
        for y in elements[2:5]:
            for z in elements[4:]:
                assert alg.multiply(alg.multiply(x, y), z) \
                    == alg.multiply(x, alg.multiply(y, z))


def pairing_block(alg, k, ev):
    """M[i][j] = ev(nu_i * phi_j) over the degree-k and complementary bases."""
    top = alg.truncation
    return [[ev(alg.multiply(alg.basis_element(k, i), alg.basis_element(top - k, j)))
             for j in range(alg.dimension(top - k))] for i in range(alg.dimension(k))]


def test_pairing_block_examples():
    from intgeo.euclid import volume_functional, so_algebra
    ev = volume_functional(2)
    assert pairing_block(so_algebra(2), 1, ev) == [[Scalar.pi_power(-1, 2)]]
    assert pairing_block(so_algebra(2), 0, ev) == [[Scalar.pi_power(-1, 2)]]

    from intgeo.hermitian import ev_disk, un_algebra
    assert pairing_block(un_algebra(2), 2, ev_disk(2)) == [
        [Scalar.pi_power(-2, 12), Scalar.pi_power(-2, 4)],
        [Scalar.pi_power(-2, 4), Scalar.pi_power(-2, 2)],
    ]


def test_products_past_the_truncation_are_zero():
    alg = RelationQuotient(("t",), (1,), [{(6,): Fraction(1)}], 4)
    t2 = alg.element({(2,): Fraction(1)})
    t3 = alg.element({(3,): Fraction(1)})
    t4 = alg.element({(4,): Fraction(1)})
    assert not t4.is_zero()
    assert alg.multiply(t4, t4).is_zero()
    assert alg.multiply(t2, t3).is_zero()
    assert alg.multiply(t2, t2) == t4
    assert alg.element({(5,): Fraction(1), (1,): Fraction(3)}) \
        == alg.element({(1,): Fraction(3)})


def test_filtered_ideal():
    # s + t mixes degrees 2 and 1: t, the earlier column, is eliminated, and
    # every multiple is cut off at the truncation degree
    gen = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    alg = RelationQuotient(("s", "t"), (2, 1), [gen], 4)
    assert alg.element(gen).is_zero()
    assert alg.element({(0, 1): Fraction(1)}) == alg.element({(1, 0): Fraction(-1)})
    assert alg.hilbert_series() == [1, 0, 1, 0, 1]
    assert alg.basis == {0: [(0, 0)], 1: [], 2: [(1, 0)], 3: [], 4: [(2, 0)]}


def test_functional_linearity():
    alg = RelationQuotient(("t",), (1,), [{(4,): Fraction(1)}], 3)
    ev = LinearFunctional({(3,): Scalar.pi_power(-1, 2)})
    x = alg.element({(3,): Fraction(5), (1,): Fraction(7)})
    assert ev(x) == Scalar.pi_power(-1, 10)


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(("a", "a"), (1, 1))
    with pytest.raises(ValueError):
        GeneratorSet(("a",), (0,))
    with pytest.raises(ValueError):
        QuotientAlgebra(("s", "t"), (2,), {0: [(0, 0)]}, {(0, 0): {(0, 0): Fraction(1)}})


def test_constructor_keeps_its_inputs():
    basis = {0: [(0,)], 1: [(1,)], 2: []}
    reduction = {(0,): {(0,): Fraction(1)}, (1,): {(1,): Fraction(1)}, (2,): {}}
    alg = QuotientAlgebra(["t"], [1], basis, reduction)
    assert (alg.gens.names, alg.gens.weights, alg.truncation) == (("t",), (1,), 2)
    assert alg.basis is basis and alg.reduction is reduction
    assert alg.basis_index == {0: {(0,): 0}, 1: {(1,): 0}, 2: {}}
    assert alg.hilbert_series() == [1, 1, 0]
    t = alg.basis_element(1, 0)
    assert alg.multiply(t, t).is_zero()
    assert alg.element({(3,): Fraction(1), (0,): Fraction(2)}) == alg.one().scale(2)


def test_relation_quotient_keeps_its_inputs():
    alg = RelationQuotient(["s", "t"], [2, 1], [fk(3), {}, fk(4)], "4")
    assert alg.hilbert_series() == [1, 1, 2, 1, 1]
    assert (alg.gens.names, alg.gens.weights, alg.truncation) == (("s", "t"), (2, 1), 4)
    assert alg.ideal == [fk(3), fk(4)]


def test_monomial_ideal_hilbert_against_divisibility():
    # independent oracle for the quotient engine: for monomial ideals the
    # basis is exactly the set of monomials no generator divides
    rng = random.Random(23)
    for trial in range(12):
        nvars = rng.choice((1, 2, 3))
        weights = tuple(rng.choice((1, 1, 2)) for _ in range(nvars))
        names = tuple(f"g{i}" for i in range(nvars))
        truncation = rng.randint(3, 7)
        gens_list = []
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, 2) for _ in range(nvars))
            if any(mono):
                gens_list.append({mono: Fraction(1)})
        if not gens_list:
            continue
        alg = RelationQuotient(names, weights, gens_list, truncation)

        def divisible(m):
            return any(all(a >= b for a, b in zip(m, g))
                       for gen in gens_list for g in gen)
        for d in range(truncation + 1):
            expect = [m for m in monomials_of_degree(alg.gens, d)
                      if not divisible(m)]
            assert sorted(alg.basis[d]) == sorted(expect), (trial, d)


def test_table_entries_are_written_once():
    table = TensorTable("SO", 1, "standard", "t", basis_labels={0: ["t_0"], 1: ["t_1"]})
    table.add((0, 0), (1, 0), Scalar.one())
    table.add((1, 0), (0, 0), Scalar.zero())
    assert table.entries == {((0, 0), (1, 0)): Scalar.one()}
    with pytest.raises(ValueError, match="written twice"):
        table.add((0, 0), (1, 0), Scalar.one())
