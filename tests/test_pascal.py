"""Root-of-unity Pascal stacks: hand examples, proof replays, sweep."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from twistchar import modular, pascal
from twistchar.cyclotomic import ExactMatrix, get_field
from twistchar.pascal import (
    PascalIdentityError,
    PascalSpec,
    a_matrix,
    build_stacked,
    compositions,
    factorization_check,
    pascal_check,
    random_rational,
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


def test_spec_is_an_immutable_record_of_fractions():
    spec = PascalSpec(1, (1,), 1, 2)
    assert (type(spec.z), type(spec.w)) == (Fraction, Fraction)
    assert spec == (1, (1,), Fraction(1), Fraction(2))
    with pytest.raises(AttributeError):
        spec.z = Fraction(3)
    # _replace builds a new spec, so it coerces and validates like the
    # constructor.
    assert type(spec._replace(z=3).z) is Fraction
    with pytest.raises(ValueError):
        spec._replace(w=0)


def test_sweep_json_keeps_its_key_order(monkeypatch):
    keys = ["max_k", "max_n", "samples", "proof_samples", "seed", "specs_checked",
            "factorizations_checked", "two_blocks_checked", "failures", "ok"]
    assert list(pascal_check(1, 2, 1, seed=0, proof_samples=1).to_json_dict()) == keys
    monkeypatch.setattr(
        pascal, "det_mod", lambda rows, p: 2 * modular.det_mod(rows, p) % p
    )
    failed = pascal_check(1, 1, 1, seed=0, proof_samples=0).to_json_dict()
    assert list(failed) == keys
    assert [list(f) for f in failed["failures"]] == [["kind", "params", "message"]]


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
    assert build_stacked(spec).det() == field.one()


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


def _reference_compositions(total, parts):
    # The recursive construction, one call per part.
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in _reference_compositions(total - first, parts - 1)]


def test_compositions_equal_the_recursive_reference():
    for total in range(7):
        for parts in range(1, 7):
            assert compositions(total, parts) == _reference_compositions(total, parts)


def test_compositions_of_many_parts_need_no_recursion():
    # The recursive construction hit the recursion limit from parts = 501.
    shapes = compositions(1, 1000)
    assert len(shapes) == 1000 and shapes[0] == (0,) * 999 + (1,)
    assert compositions(0, 5000) == [(0,) * 5000]


def _reference_root_factor(k, sizes):
    # Every (r, s) pair, empty blocks included.
    p, omega = modular.root_prime(k)
    xs = [pow(omega, r, p) for r in range(k)]
    out = 1
    for r, n_r in enumerate(sizes):
        out = out * pow(xs[r], n_r * (n_r - 1) // 2, p) % p
        for s in range(r + 1, k):
            out = out * pow(xs[s] - xs[r], n_r * sizes[s], p) % p
    return out


def test_root_factor_equals_the_all_pairs_reference():
    for k in range(1, 7):
        for total in range(1, 7):
            for shape in compositions(total, k):
                assert pascal._root_factor(k, shape) == _reference_root_factor(k, shape)


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


def _with_entry(matrix, i, j, value):
    rows = [list(row) for row in matrix.rows]
    rows[i][j] = value
    return ExactMatrix(matrix.field, tuple(map(tuple, rows)), matrix.ncols)


def _forge_singular_q0(monkeypatch):
    # Each Q(n) is invertible because its diagonal is nonzero; this Q(0) has
    # a zero there.
    original = pascal._q_stage_matrix

    def forged(field, w, n, p):
        q_n = original(field, w, n, p)
        return _with_entry(q_n, p - 1, p - 1, field.zero()) if n == 0 else q_n

    monkeypatch.setattr(pascal, "_q_stage_matrix", forged)


def test_singular_stage_matrix_fails_its_stage_identity(monkeypatch):
    _forge_singular_q0(monkeypatch)
    with pytest.raises(PascalIdentityError) as err:
        factorization_check(1, 0, 1, 4, 4)
    assert err.value.identity == "stage 1 row reduction (P(1)*M)"


def test_singular_stage_matrix_fails_the_inner_block_reduction(monkeypatch):
    # The two-stack replay checks only where the stages lead, U*A = A'.
    _forge_singular_q0(monkeypatch)
    with pytest.raises(PascalIdentityError) as err:
        two_blocks_check(1, 2, 6, 3, 3)
    assert err.value.identity == "inner block reduction (U*A = A')"


def test_replays_reduce_the_matrix_itself(monkeypatch):
    # Each stage matrix multiplies the matrix being reduced, once; the
    # product of the stage matrices is never formed, and M is built once.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ExactMatrix, "__mul__", counted("mul", ExactMatrix.__mul__))
    monkeypatch.setattr(pascal, "a_matrix", counted("a", pascal.a_matrix))
    # Z*M*H: 2 products; 5 stages: one product each; a_matrix for A and M.
    factorization_check(1, 0, 1, 6, 6)
    assert (calls["mul"], calls["a"]) == (7, 2)
    calls.clear()
    # Q'*B, W*C, V*A, Z(s)*Z(-s), Z(-s)*A, then 2 stages.
    two_blocks_check(1, 2, 6, 3, 3)
    assert calls["mul"] == 7


def test_perturbed_diagonal_fails_diagonal_extraction(monkeypatch):
    original = pascal._diagonal
    monkeypatch.setattr(pascal, "_diagonal", lambda field, entries: original(
        field, [entries[0] + 1, *entries[1:]]))
    with pytest.raises(PascalIdentityError) as err:
        two_blocks_check(1, 2, 4, 2, 2)
    assert err.value.identity == "diagonal extraction (W = V*A)"


def test_perturbed_eliminator_fails_the_eliminated_lower_block(monkeypatch):
    original = pascal._eliminator

    def forged(field, x, y, s, t):
        q = original(field, x, y, s, t)
        return _with_entry(q, s, 0, q.rows[s][0] + 1)

    monkeypatch.setattr(pascal, "_eliminator", forged)
    with pytest.raises(PascalIdentityError) as err:
        two_blocks_check(1, 2, 4, 2, 2)
    assert err.value.identity == "eliminated lower block (Q'B = [A'; W*C])"


# ------------------------------------------------------- mod-p certificate


def _closed_form(spec):
    # The exact closed form over Q(eta), x_r = eta^r:
    # prod_r (w*x_r)^C(N_r, 2) * prod_{r<s} (x_s - x_r)^(N_r*N_s).
    k, sizes = spec.conductor, spec.block_sizes
    field = get_field(k)
    xs = [field.root_of_unity(k) ** r for r in range(k)]
    w = field.from_rational(spec.w)
    out = field.one()
    for r, n_r in enumerate(sizes):
        out = out * (w * xs[r]) ** (n_r * (n_r - 1) // 2)
        for s in range(r + 1, k):
            out = out * (xs[s] - xs[r]) ** (n_r * sizes[s])
    return out


def _image_mod_p(scalar, k):
    # The image of an element of Q(eta_k) under eta -> omega in F_p.
    p, omega = modular.root_prime(k)
    return sum(
        c.numerator * pow(c.denominator, -1, p) * pow(omega, e, p)
        for e, c in enumerate(scalar.coeffs)
    ) % p


def _seeded_specs(seed, orders, max_n):
    rng = random.Random(seed)
    for k in orders:
        for total in range(1, max_n + 1):
            for shape in compositions(total, k):
                z = random_rational(rng)
                yield PascalSpec(k, shape, z, random_rational(rng, nonzero=True))


@pytest.mark.parametrize(
    "orders, max_n", [((1, 2, 3, 4, 5), 5), ((6, 8), 3)], ids=["k<=5", "k=6,8"]
)
def test_closed_form_equals_exact_determinant(orders, max_n):
    specs = list(_seeded_specs(29, orders, max_n))
    assert len(specs) > 100
    for spec in specs:
        assert build_stacked(spec).det() == _closed_form(spec), spec


@pytest.mark.parametrize("k", [*range(1, 13), 9240])
def test_root_prime_has_a_root_of_exact_order(k):
    p, omega = modular.root_prime(k)
    assert k < p < 2 ** 30 and (p - 1) % k == 0 and modular.is_prime(p)
    # p is the largest such prime: every larger candidate is composite.
    assert not any(modular.is_prime(q) for q in range(p + k, 2 ** 30, k))
    assert pow(omega, k, p) == 1
    assert all(pow(omega, j, p) != 1 for j in range(1, k))


def test_root_prime_refuses_a_progression_without_a_prime():
    # 2^30 - 1 = 3^2 * 7 * 11 * 31 * 151 * 331 is the only candidate above k.
    with pytest.raises(ValueError, match="no prime"):
        modular.root_prime(2 ** 30 - 2)


def test_prime_factors_are_the_distinct_prime_divisors():
    primes = [q for q in range(3000) if modular.is_prime(q)]
    for n in range(1, 3000):
        assert modular.prime_factors(n) == [q for q in primes if n % q == 0], n
    assert modular.prime_factors(60060) == [2, 3, 5, 7, 11, 13]


def test_is_prime_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if modular.is_prime(n)] == [
        n for n in range(3000) if trial(n)
    ]
    # Strong pseudoprimes to several of the smaller bases.
    assert not modular.is_prime(3215031751)
    assert not modular.is_prime(3825123056546413051)
    assert modular.is_prime(2 ** 61 - 1)


def test_det_mod_p_is_the_image_of_the_exact_det():
    for spec in _seeded_specs(3, (1, 2, 3, 4), 4):
        p, omega = modular.root_prime(spec.conductor)
        z, w = (modular.image((x.numerator,), x.denominator, p, omega)
                for x in (spec.z, spec.w))
        rows = pascal._stacked_mod(spec.block_sizes, z, w, p, omega)
        det = build_stacked(spec).det()
        assert modular.det_mod(rows, p) == _image_mod_p(det, spec.conductor), spec
        assert verify_invertible(spec) == (True, True, "mod-p")


def test_det_mod_swaps_rows_and_finds_singular_matrices():
    p = 101
    assert modular.det_mod([[0, 1], [1, 0]], p) == p - 1
    assert modular.det_mod([[2, 4], [1, 2]], p) == 0
    assert modular.det_mod([[0, 0, 1], [0, 3, 0], [5, 0, 0]], p) == (-15) % p


@pytest.mark.parametrize("p", (modular.root_prime(1)[0], 7))
def test_det_mod_is_the_exact_det_mod_p(p):
    # Random integer matrices of size 1-6 with many zero entries, so that
    # pivots vanish and rows swap; a third get a row that is a combination
    # of two others, so they are singular.  Mod 7 more pivots vanish.
    rng, field = random.Random(11), get_field(1)
    seen = Counter()
    for _ in range(600):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, 3, -5, 7)) for _ in range(n)]
                for _ in range(n)]
        if n > 2 and not rng.randrange(3):
            a, b, c = rng.sample(range(n), 3)
            rows[c] = [2 * x - 3 * y for x, y in zip(rows[a], rows[b])]
        exact = ExactMatrix.from_rows(field, rows).det().coeffs[0]
        assert exact.denominator == 1
        det = modular.det_mod([[x % p for x in r] for r in rows], p)
        assert det == exact.numerator % p, rows
        seen["singular"] += exact == 0
        seen["zero mod p"] += exact != 0 and det == 0
        seen["zero pivot"] += exact != 0 and rows[0][0] == 0
    assert seen["singular"] and seen["zero pivot"]
    assert seen["zero mod p"] or p != 7


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_benchmark_sweep_is_proved_mod_p_throughout(seed):
    # Every spec of the benchmark's sweep is proved by its residue; a split
    # prime that divides a drawn denominator or a determinant moves specs
    # onto exact elimination and fails here.
    report = pascal_check(4, 6, 10, seed, 0)
    assert (report.proved_mod_p, report.proved_exact) == (3250, 0)


def test_forged_determinant_fails_the_sweep(monkeypatch):
    honest = pascal_check(2, 3, 1, seed=1, proof_samples=0)
    assert honest.ok and honest.proved_mod_p == honest.specs_checked
    monkeypatch.setattr(
        pascal, "det_mod", lambda rows, p: 2 * modular.det_mod(rows, p) % p
    )
    forged = pascal_check(2, 3, 1, seed=1, proof_samples=0)
    assert not forged.ok
    assert [f.kind for f in forged.failures] == ["closed-form"] * forged.specs_checked
    assert forged.to_json_dict()["failures"][0]["kind"] == "closed-form"


def _counting(monkeypatch, name):
    calls = []
    original = getattr(pascal, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pascal, name, wrapper)
    return calls


@pytest.mark.parametrize("which", ["z", "w"])
def test_denominator_divisible_by_p_falls_back_to_exact(monkeypatch, which):
    p, _ = modular.root_prime(3)
    params = {"z": Fraction(2, 3), "w": Fraction(-1, 2)}
    params[which] = Fraction(1, p)
    spec = PascalSpec(3, (2, 0, 1), params["z"], params["w"])
    built = _counting(monkeypatch, "build_stacked")
    result = verify_invertible(spec)
    assert result == (bool(build_stacked(spec).det()), None, "exact")
    assert result.invertible and len(built) == 1


def test_zero_det_mod_p_falls_back_to_exact(monkeypatch):
    spec = PascalSpec(2, (2, 1), Fraction(1, 3), Fraction(2, 5))
    monkeypatch.setattr(pascal, "det_mod", lambda rows, p: 0)
    built = _counting(monkeypatch, "build_stacked")
    # The closed form is nonzero mod p, so det_p = 0 also proves it wrong.
    assert verify_invertible(spec) == (True, False, "exact")
    assert len(built) == 1
    # The exact determinant decides: a singular matrix is reported singular.
    field = get_field(2)
    singular = ExactMatrix.from_rows(field, [[1, 1, 1], [1, 1, 1], [0, 1, 2]])
    monkeypatch.setattr(pascal, "build_stacked", lambda spec: singular)
    assert verify_invertible(spec) == (False, False, "exact")
    report = pascal_check(2, 2, 1, seed=1, proof_samples=0)
    assert report.proved_exact == report.specs_checked == 7
    assert {f.kind for f in report.failures} == {"invertibility", "closed-form"}
