"""Isoclinism: commutator data, witness search, stem braces, class partition."""

from fractions import Fraction

import numpy as np
import pytest

from bracekit import isoclinism
from bracekit.braces import (
    annihilator,
    cyclic_brace,
    direct_product,
    opposite_brace,
    quotient_brace,
    trivial_brace,
    validate_skew_brace,
)
from bracekit.enumeration import skew_braces_of_order
from bracekit.errors import BraceKitError, InvariantViolation
from bracekit.groups import cyclic_group, klein_four_group, quaternion_group
from bracekit.isoclinism import (
    are_isoclinic,
    gamma2,
    induced_brace,
    is_stem,
    isoclinism_classes,
    isoclinism_data,
)
from bracekit.probability import commuting_probability


def test_data_of_trivial_brace():
    d = isoclinism_data(trivial_brace(klein_four_group()))
    assert d.quotient.n == 1
    assert d.gamma2.n == 1
    assert d.phi_plus.tolist() == [[0]]
    assert d.phi_star.tolist() == [[0]]


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
    # transitivity: each class was built by searching against its first member only
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


def test_induced_brace_rejects_a_subset_that_is_not_a_sub_brace():
    B = cyclic_brace(4, 2)
    for members in [(0, 1), (1, 2), ()]:
        with pytest.raises(BraceKitError, match="is not a sub-brace"):
            induced_brace(B, members)
    H = induced_brace(B, (0, 2))
    assert H.n == 2 and H.add.op == ((0, 1), (1, 0))
    assert induced_brace(B, (2, 0)) == induced_brace(B, {0, 2}) == H  # members ranked sorted


def _commutator(G, a, b):
    return G.op[G.op[G.op[a][b]][G.np_inv[a]]][G.np_inv[b]]


def _star(B, a, b):
    lam = B.add.op[B.add.np_inv[a]][B.mul.op[a][b]]
    return B.add.op[lam][B.add.np_inv[b]]


def test_isoclinism_data_matches_scalar_reference():
    for B in (e.brace for n in range(1, 9) for e in skew_braces_of_order(n).entries):
        d = isoclinism_data(B)
        g2 = d.gamma2_members
        _, cmap = quotient_brace(B, annihilator(B))
        reps = [cmap.index(i) for i in range(d.quotient.n)]
        for phi in (d.phi_plus, d.phi_star):
            assert phi.dtype == np.int64 and not phi.flags.writeable
        assert d.phi_plus.tolist() == [
            [g2.index(_commutator(B.add, a, b)) for b in reps] for a in reps
        ]
        assert d.phi_star.tolist() == [[g2.index(_star(B, a, b)) for b in reps] for a in reps]
        for sub, whole in ((d.gamma2.add, B.add), (d.gamma2.mul, B.mul)):
            assert sub.op == tuple(tuple(g2.index(whole.op[x][y]) for y in g2) for x in g2)


@pytest.mark.parametrize("name", ["gamma_plus_table", "star_table"])
def test_commutator_maps_are_checked_for_representative_independence(name):
    B = cyclic_brace(8, 2)  # Ann(B) = {0, 4}; 5 is not the least element of its coset
    assert annihilator(B) == (0, 4)
    table = getattr(B, name).copy()
    table[5, 1] = 2 if table[5, 1] == 0 else 0
    fresh = validate_skew_brace(B.add.op, B.mul.op)
    fresh.__dict__[name] = table
    with pytest.raises(InvariantViolation, match="commutator maps depend on the coset representatives"):
        isoclinism_data(fresh)
