"""Root-of-unity Pascal stacks: hand examples, proof replays, sweep."""

from fractions import Fraction

import pytest

from twistchar.cyclotomic import ExactMatrix, get_field
from twistchar.pascal import (
    PascalIdentityError,
    PascalSpec,
    a_matrix,
    build_stacked,
    compositions,
    factorization_check,
    pascal_check,
    stacked_with_root,
    two_blocks_check,
    verify_invertible,
)


def test_spec_validation():
    PascalSpec(2, (1, 2), Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        PascalSpec(0, (), 0, 1)
    with pytest.raises(ValueError):
        PascalSpec(2, (1,), 0, 1)
    with pytest.raises(ValueError):
        PascalSpec(1, (-1,), 0, 1)
    with pytest.raises(ValueError):
        PascalSpec(2, (0, 0), 0, 1)
    with pytest.raises(ValueError):
        PascalSpec(1, (2,), 0, 0)


def test_single_block_with_trivial_root_is_upper_pascal():
    """Root order 1, z=0, w=1 gives the binomial grid binom(col, row)."""
    spec = PascalSpec(1, (3,), 0, 1)
    field = get_field(1)
    expected = ExactMatrix.from_rows(
        field, [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
    )
    m = build_stacked(spec)
    assert m == expected
    assert verify_invertible(spec).invertible
    assert verify_invertible(spec).determinant == field.one()


def test_pascal_matrix_rectangular():
    field = get_field(1)
    # The Pascal matrix is A at x = 1, z = 0, w = 1.
    assert a_matrix(field, 1, 0, 1, 3, 4) == ExactMatrix.from_rows(
        field, [[1, 1, 1, 1], [0, 1, 2, 3], [0, 0, 1, 3]]
    )


def test_a_matrix_values():
    field = get_field(1)
    # x = 1, z = 0, w = 1: entry binom(col, row).
    assert a_matrix(field, 1, 0, 1, 2, 3) == ExactMatrix.from_rows(
        field, [[1, 1, 1], [0, 1, 2]]
    )
    # x = 2 scales column j by 2^j.
    assert a_matrix(field, 2, 0, 1, 2, 3) == ExactMatrix.from_rows(
        field, [[1, 2, 4], [0, 2, 8]]
    )


def test_stacked_with_root_powers():
    field = get_field(4)
    i = field.eta
    m = stacked_with_root(field, i, (1, 1), 0, 1)
    # Block rows: root^(r*p) * binom(p*1, 0) for r = 0, 1.
    assert m.rows[0] == (field.one(), field.one())
    assert m.rows[1] == (field.one(), i)


def test_two_block_root_of_unity_stack_invertible():
    # Conductor 2 root: rows [1, 1, 1] / [z-grid] / [alternating signs].
    spec = PascalSpec(2, (2, 1), 0, Fraction(1, 2))
    result = verify_invertible(spec)
    assert result.invertible
    spec4 = PascalSpec(4, (1, 1, 1, 1), 0, 1)
    assert verify_invertible(spec4).invertible


def test_factorization_identity_example():
    report = factorization_check(1, 0, 1, 2, 3)
    assert (report.p, report.q, report.stages) == (2, 3, 0)
    assert report.z == 0 and report.w == 1


def test_factorization_larger_instances():
    factorization_check(Fraction(2, 3), Fraction(-1, 2), Fraction(1, 4), 4, 5)
    field = get_field(4)
    factorization_check(field.eta, Fraction(3), Fraction(2, 5), 3, 3)
    report = factorization_check(2, 1, 1, 5, 2)
    assert report.stages == 3


def test_factorization_rejects_bad_arguments():
    with pytest.raises(ValueError):
        factorization_check(1, 0, 0, 2, 2)
    with pytest.raises(ValueError):
        factorization_check(0, 0, 1, 2, 2)
    with pytest.raises(ValueError):
        factorization_check(1, 0, 1, 0, 2)


def test_two_blocks_rational_example():
    report = two_blocks_check(1, 2, 4, 2, 2)
    assert (report.n, report.s, report.t) == (4, 2, 2)


def test_two_blocks_with_roots_of_unity():
    field = get_field(4)
    two_blocks_check(field.eta, field.eta ** 2, 4, 2, 2)
    two_blocks_check(field.eta, field.from_rational(1), 3, 2, 1)


def test_two_blocks_degenerate_lower_block():
    # t = 0: nothing to eliminate, B and B' coincide.
    report = two_blocks_check(1, 2, 3, 2, 0)
    assert report.t == 0
    report = two_blocks_check(1, 2, 2, 2, 0)
    assert report.s == 2


def test_two_blocks_rejects_bad_arguments():
    with pytest.raises(ValueError):
        two_blocks_check(1, 1, 4, 2, 2)
    with pytest.raises(ValueError):
        two_blocks_check(0, 1, 4, 2, 2)
    with pytest.raises(ValueError):
        two_blocks_check(1, 2, 4, 1, 2)
    with pytest.raises(ValueError):
        two_blocks_check(1, 2, 2, 2, 1)


def test_compositions_cover_all_shapes():
    assert compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert compositions(3, 1) == [(3,)]
    shapes = compositions(4, 3)
    assert len(shapes) == 15
    assert all(sum(s) == 4 for s in shapes)
    assert len(set(shapes)) == 15


def test_sweep_small_and_deterministic():
    a = pascal_check(2, 3, 2, seed=1, proof_samples=3)
    b = pascal_check(2, 3, 2, seed=1, proof_samples=3)
    assert a == b
    assert a.ok
    # 3 one-block shapes plus 2+3+4 two-block shapes, 2 samples each.
    assert a.specs_checked == 24
    assert a.factorizations_checked == 3
    assert a.two_blocks_checked == 3
    assert a.to_json_dict()["ok"] is True


def test_sweep_seed_changes_draws():
    a = pascal_check(1, 2, 1, seed=1, proof_samples=0)
    b = pascal_check(1, 2, 1, seed=2, proof_samples=0)
    assert a.ok and b.ok
    assert a.specs_checked == b.specs_checked


def test_replay_detects_forged_stage():
    """A wrong target matrix must raise, not pass silently."""
    from twistchar.pascal import _assert_equal

    field = get_field(1)
    good = a_matrix(field, 1, 0, 1, 2, 2)
    bad = ExactMatrix.from_rows(field, [[1, 1], [1, 1]])
    with pytest.raises(PascalIdentityError) as err:
        _assert_equal("forged", good, bad)
    assert err.value.row == 1 and err.value.col == 0
