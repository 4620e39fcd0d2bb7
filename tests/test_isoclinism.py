"""Isoclinism: commutator data, witness search, stem braces, class partition."""

from fractions import Fraction

from bracekit import isoclinism
from bracekit.braces import cyclic_brace, direct_product, opposite_brace, trivial_brace
from bracekit.enumeration import skew_braces_of_order
from bracekit.groups import cyclic_group, klein_four_group, quaternion_group
from bracekit.isoclinism import (
    are_isoclinic,
    gamma2,
    is_stem,
    isoclinism_classes,
    isoclinism_data,
)
from bracekit.probability import commuting_probability


def test_data_of_trivial_brace():
    d = isoclinism_data(trivial_brace(klein_four_group()))
    assert d.quotient.n == 1
    assert d.gamma2.n == 1
    assert d.phi_plus == ((0,),)
    assert d.phi_star == ((0,),)


def test_data_of_cyclic_example():
    B = cyclic_brace(4, 2)
    d = isoclinism_data(B)
    assert d.quotient.n == 2
    assert d.gamma2_members == (0, 2)
    # 1*1 = 2, which is index 1 inside gamma2
    assert d.phi_star[1][1] == 1


def test_data_of_opposite_quaternion():
    B = opposite_brace(quaternion_group())
    d = isoclinism_data(B)
    assert d.quotient.n == 4
    assert d.gamma2_members == (0, 1)


def test_self_isoclinism_yields_identity_witness():
    B = cyclic_brace(4, 2)
    w = are_isoclinic(B, B)
    assert w is not None
    assert w.xi == (0, 1)
    assert w.theta == (0, 1)


def test_isoclinic_to_product_with_trivial_factor():
    B = cyclic_brace(4, 2)
    C = direct_product(B, trivial_brace(cyclic_group(3)))
    w = are_isoclinic(B, C)
    assert w is not None
    assert commuting_probability(B) == commuting_probability(C) == Fraction(3, 4)


def test_non_isoclinic_pair():
    assert are_isoclinic(trivial_brace(cyclic_group(2)), cyclic_brace(4, 2)) is None


def test_witness_is_deterministic():
    B = opposite_brace(quaternion_group())
    C = direct_product(B, trivial_brace(cyclic_group(3)))
    w1 = are_isoclinic(B, C)
    w2 = are_isoclinic(B, C)
    assert w1 == w2 and w1 is not None


def test_stem_detection():
    assert not is_stem(trivial_brace(cyclic_group(2)))
    assert is_stem(cyclic_brace(4, 2))
    assert is_stem(opposite_brace(quaternion_group()))
    assert is_stem(trivial_brace(cyclic_group(1)))


def test_gamma2_values():
    assert gamma2(cyclic_brace(4, 2)) == (0, 2)
    assert gamma2(trivial_brace(quaternion_group())) == (0, 1)
    assert gamma2(trivial_brace(cyclic_group(4))) == (0,)


def test_equivalence_relation_on_small_catalog():
    braces = []
    for n in range(1, 5):
        braces += [e.brace for e in skew_braces_of_order(n).entries]
    for i, A in enumerate(braces):
        assert are_isoclinic(A, A) is not None
        for B in braces[i + 1 :]:
            assert (are_isoclinic(A, B) is None) == (are_isoclinic(B, A) is None)
    # transitivity through the union-find partition
    classes = isoclinism_classes(braces)
    for cls in classes:
        for i in cls:
            for j in cls:
                assert are_isoclinic(braces[i], braces[j]) is not None


def test_class_count_orders_up_to_6():
    braces = []
    for n in range(1, 7):
        braces += [e.brace for e in skew_braces_of_order(n).entries]
    classes = isoclinism_classes(braces)
    assert len(classes) == 7
    for cls in classes:
        pbs = {commuting_probability(braces[i]) for i in cls}
        assert len(pbs) == 1
        assert any(is_stem(braces[i]) for i in cls)


def test_classes_compute_isoclinism_data_once_per_brace(monkeypatch):
    braces = []
    for n in range(1, 7):
        braces += [e.brace for e in skew_braces_of_order(n).entries]
    seen = []
    original = isoclinism.isoclinism_data

    def counting(B):
        seen.append(B)
        return original(B)

    monkeypatch.setattr(isoclinism, "isoclinism_data", counting)
    assert len(isoclinism.isoclinism_classes(braces)) == 7
    assert len(seen) == len(braces)
    assert all(a is b for a, b in zip(seen, braces))
