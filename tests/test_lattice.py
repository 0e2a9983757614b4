"""Lattice validation and derived orbit data, pinned against hand values."""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from twistchar import lattice
from twistchar.cli import main
from twistchar.cyclotomic import ExactMatrix, get_field
from twistchar.lattice import (
    LatticeError,
    LatticeInput,
    NegativeEntry,
    NotEven,
    NotIsometry,
    NotPositiveDefinite,
    NotSymmetric,
    OrbitData,
    analyze,
    parse_permutation,
    validate,
)
from twistchar.presets import PRESET_NAMES, preset
from twistchar.qseries import character


def test_parse_cycle_string():
    assert parse_permutation("(1)(2 3)", 3) == (0, 2, 1)
    assert parse_permutation("(1 2 3)", 3) == (1, 2, 0)
    assert parse_permutation("(2 3)(1)", 3) == (0, 2, 1)


def test_parse_cycle_string_with_implicit_fixed_points():
    assert parse_permutation("(2 3)", 3) == (0, 2, 1)


def test_parse_one_line():
    assert parse_permutation([2, 1], 2) == (1, 0)
    assert parse_permutation((1, 3, 2), 3) == (0, 2, 1)


@pytest.mark.parametrize(
    "bad",
    ["(1 2", "(1 1)", "(3)", "(0)", "1 2"],
)
def test_parse_rejects_malformed_cycles(bad):
    with pytest.raises(LatticeError):
        parse_permutation(bad, 2)


def test_empty_cycle_is_vacuous():
    # "()" carries no entries; everything stays fixed.
    assert parse_permutation("()", 2) == (0, 1)


@pytest.mark.parametrize("bad", [[1, 1], [0, 1], [1], [1, 2, 3]])
def test_parse_rejects_bad_one_line(bad):
    with pytest.raises(LatticeError):
        parse_permutation(bad, 2)


def test_make_rejects_bad_gram_shapes():
    with pytest.raises(LatticeError):
        LatticeInput.make([], "(1)")
    with pytest.raises(LatticeError):
        LatticeInput.make([[2, 1]], "(1)")


def test_cycle_string_roundtrip():
    inp = LatticeInput.make([[2, 1, 1], [1, 2, 0], [1, 0, 2]], "(1)(2 3)")
    assert inp.cycle_string() == "(1)(2 3)"


def _printed(inp):
    """``analyze --format json`` of inp, run in process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "lattice.json")
        path.write_text(json.dumps(
            {"rank": inp.rank, "gram": inp.gram, "perm": [p + 1 for p in inp.perm]}
        ))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["analyze", "--config", str(path), "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _orbit_column(printed, key):
    return [o[key] for o in printed["orbits"]]


def _min_degrees(printed):
    return [Fraction(m) for m in _orbit_column(printed, "min_degree")]


def _in_mode_set(offset, length, n):
    """Whether n lies in offset + (1/length) Z, an orbit's mode set."""
    return ((Fraction(n) - Fraction(offset)) * length).denominator == 1


def test_rank1_invariants():
    orbits, tables = analyze(preset("rank1"))
    printed = _printed(preset("rank1"))
    assert orbits.k == 2
    assert orbits.cycles == ((0,),)
    assert _orbit_column(printed, "evenness") == [True]
    assert _orbit_column(printed, "root_order") == [1]
    assert _orbit_column(printed, "mode_offset") == ["0"]
    assert printed["vacuum_weight"] == "0"
    assert tables.char_matrix == ((4,),)
    assert printed["twisted_gram"] == [[2]]
    assert _min_degrees(printed) == [1]
    assert tables.rotated == (((2,),),)


def test_swap2_invariants():
    orbits, tables = analyze(preset("swap2"))
    printed = _printed(preset("swap2"))
    assert orbits.k == 4
    assert orbits.cycles == ((0, 1),)
    assert _orbit_column(printed, "evenness") == [False]
    assert _orbit_column(printed, "root_order") == [4]
    assert _orbit_column(printed, "mode_offset") == ["1/4"]
    assert printed["vacuum_weight"] == "1/16"
    assert tables.char_matrix == ((6,),)
    assert printed["zero_mode"] == [["3/2"]]
    assert _min_degrees(printed) == [Fraction(3, 4)]
    assert tables.rotated == (((2, 1),),)


def test_x3_invariants():
    orbits, tables = analyze(preset("x3"))
    printed = _printed(preset("x3"))
    assert orbits.k == 4
    assert orbits.cycles == ((0,), (1, 2))
    assert _orbit_column(printed, "evenness") == [True, True]
    assert _orbit_column(printed, "root_order") == [1, 2]
    assert printed["vacuum_weight"] == "1/16"
    assert tables.char_matrix == ((8, 4), (4, 4))
    assert printed["twisted_gram"] == [[2, 2], [2, 4]]
    assert _min_degrees(printed) == [1, Fraction(1, 2)]
    assert tables.rotated == (((2,), (1,)), ((1, 1), (2, 0)))


def test_x4_invariants():
    orbits, tables = analyze(preset("x4"))
    printed = _printed(preset("x4"))
    assert orbits.k == 6
    assert orbits.cycles == ((0,), (1, 2, 3))
    assert _orbit_column(printed, "evenness") == [True, True]
    assert _orbit_column(printed, "root_order") == [1, 3]
    assert printed["vacuum_weight"] == "1/9"
    assert tables.char_matrix == ((12, 6), (6, 4))
    assert printed["twisted_gram"] == [[2, 3], [3, 6]]
    assert _min_degrees(printed) == [1, Fraction(1, 3)]
    assert tables.rotated == (((2,), (1,)), ((1, 1, 1), (2, 0, 0)))


def test_preset_names_all_analyze():
    for name in PRESET_NAMES:
        orbits, tables = analyze(preset(name))
        assert orbits.d == len(tables.char_matrix)


def test_unknown_preset_raises():
    with pytest.raises(LatticeError):
        preset("nope")


def test_not_symmetric():
    with pytest.raises(NotSymmetric):
        validate(LatticeInput.make([[2, 1], [0, 2]], "(1)(2)"))


def test_not_even_diagonal():
    with pytest.raises(NotEven):
        validate(LatticeInput.make([[3]], "(1)"))
    with pytest.raises(NotEven):
        validate(LatticeInput.make([[0]], "(1)"))


def test_negative_entry():
    with pytest.raises(NegativeEntry):
        validate(LatticeInput.make([[2, -1], [-1, 2]], "(1)(2)"))


def test_not_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        validate(LatticeInput.make([[2, 2], [2, 2]], "(1)(2)"))


def _reference_minors_check(gram):
    """Sylvester's criterion minor by minor, each leading minor from its
    own elimination with row swaps: the check validate made before it read
    every minor off one elimination."""

    def det(rows):
        n = len(rows)
        m = [[Fraction(x) for x in row] for row in rows]
        out = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                out = -out
            out *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, n):
                if m[r][col]:
                    f = m[r][col] * inv
                    for c in range(col, n):
                        m[r][c] -= f * m[col][c]
        return out

    for order in range(1, len(gram) + 1):
        minor = det([row[:order] for row in gram[:order]])
        if minor <= 0:
            return f"leading principal minor of order {order} is {minor}"
    return None


def _positive_definite_outcome(gram):
    expected = _reference_minors_check(gram)
    inp = LatticeInput.make(gram, list(range(1, len(gram) + 1)))
    if expected is None:
        validate(inp)
        return "accepted"
    with pytest.raises(NotPositiveDefinite) as err:
        validate(inp)
    assert str(err.value) == expected, gram
    return "zero minor" if expected.endswith(" is 0") else "negative minor"


def test_positive_definite_check_matches_per_minor_reference():
    rng = random.Random(20180424)
    all_outcomes = {"accepted", "zero minor", "negative minor"}
    outcomes = set()
    for _ in range(600):
        n = rng.randint(1, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.randint(1, 4)
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.randint(0, 6)
        outcomes.add(_positive_definite_outcome(gram))
    assert outcomes == all_outcomes
    # Sparse draws, n <= 8: about one off-diagonal entry in four is nonzero,
    # and none across the cut (block diagonal when cut < n).  Rows that no
    # pivot above reaches are never eliminated and stay ints.
    outcomes = set()
    for _ in range(600):
        n, cut = rng.randint(1, 8), rng.randint(1, 8)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.randint(1, 4)
            for j in range(i + 1, n):
                if (i < cut) == (j < cut) and rng.randrange(4) == 0:
                    gram[i][j] = gram[j][i] = rng.randint(1, 6)
        outcomes.add(_positive_definite_outcome(gram))
    assert outcomes == all_outcomes


def test_analyze_makes_no_fraction_per_gram_entry(monkeypatch):
    # Gram 2 I of rank d under the identity: validate keeps no Fraction,
    # and the positive-definiteness check, which eliminates no row, and the
    # tables make none.
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(lattice, "Fraction", counting)
    d = 300
    gram = [[2 * (i == j) for j in range(d)] for i in range(d)]
    orbits, tables = analyze(LatticeInput.make(gram, list(range(1, d + 1))))
    assert orbits.d == d and tables.char_matrix[0][:2] == (4, 0)
    assert made == []


def test_not_isometry():
    with pytest.raises(NotIsometry):
        validate(LatticeInput.make([[2, 1], [1, 4]], "(1 2)"))


def test_orbit_data_is_immutable():
    orbits = validate(preset("x3"))
    with pytest.raises(AttributeError):
        orbits.k = 2
    assert orbits._replace(k=2).k == 2 and orbits.k != 2


def _eigenspace_dims(inp, orbits):
    """Nullity of P - eta^j I for each j < k, P the isometry's permutation
    matrix, by exact elimination."""
    field, n = get_field(orbits.k), inp.rank
    dims = []
    for j in range(orbits.k):
        eta_j = field.eta_to(j)
        rows = []
        for r in range(n):
            row = []
            for c in range(n):
                entry = field.one() if inp.perm[c] == r else field.zero()
                if r == c:
                    entry = entry - eta_j
                row.append(entry)
            rows.append(row)
        dims.append(n - ExactMatrix.from_rows(field, rows).rank())
    return dims


def test_eigenspace_dims_sum_to_rank():
    for name in PRESET_NAMES:
        inp = preset(name)
        assert sum(_eigenspace_dims(inp, validate(inp))) == inp.rank


def test_eigenspace_dims_match_kernel_ranks():
    """Each eigenspace dimension, an exact nullity, is the number of cycles
    of length l with k / l dividing j, and the printed vacuum weight, a
    closed form in the cycle lengths, is (1/4k^2) sum_j j (k - j) dim h_(j)."""
    for name in ("swap2", "x3", "x4"):
        inp = preset(name)
        orbits = validate(inp)
        k, dims = orbits.k, _eigenspace_dims(inp, orbits)
        assert dims == [sum(j % (k // l) == 0 for l in orbits.lengths) for j in range(k)]
        weight = Fraction(sum(j * (k - j) * dims[j] for j in range(k)), 4 * k * k)
        assert _printed(inp)["vacuum_weight"] == str(weight), name


def test_mode_sets():
    swap2 = _printed(preset("swap2"))["orbits"]
    modes = [(o["mode_offset"], o["length"]) for o in swap2]
    assert _in_mode_set(*modes[0], Fraction(-3, 4))
    assert _in_mode_set(*modes[0], Fraction(1, 4))
    assert not _in_mode_set(*modes[0], Fraction(-1, 2))
    x3 = _printed(preset("x3"))["orbits"]
    modes = [(o["mode_offset"], o["length"]) for o in x3]
    assert _in_mode_set(*modes[1], Fraction(-1, 2))
    assert _in_mode_set(*modes[1], -1)
    assert not _in_mode_set(*modes[1], Fraction(-1, 4))
    assert not _in_mode_set(*modes[0], Fraction(-1, 2))


def test_orbit_relabeling_leaves_invariants_alone():
    """Two 2-cycle blocks listed in either order give the same numbers."""
    block_a = [[2, 1], [1, 2]]
    block_b = [[4, 1], [1, 4]]

    def glue(first, second):
        rows = []
        for r in range(2):
            rows.append(list(first[r]) + [0, 0])
        for r in range(2):
            rows.append([0, 0] + list(second[r]))
        return LatticeInput.make(rows, "(1 2)(3 4)")

    one, two = glue(block_a, block_b), glue(block_b, block_a)
    orb1, tab1 = analyze(one)
    orb2, tab2 = analyze(two)
    printed1, printed2 = _printed(one), _printed(two)
    assert orb1.k == orb2.k
    assert printed1["vacuum_weight"] == printed2["vacuum_weight"]
    for key in ("evenness", "root_order"):
        assert sorted(_orbit_column(printed1, key)) == sorted(_orbit_column(printed2, key))
    swap = [1, 0]
    assert all(
        tab1.char_matrix[i][j] == tab2.char_matrix[swap[i]][swap[j]]
        for i in range(2)
        for j in range(2)
    )
    t = 12
    chi1 = character(orb1, tab1, t).evaluate_at_one()
    chi2 = character(orb2, tab2, t).evaluate_at_one()
    assert chi1.first_difference(chi2) is None


def _reference_tables(inp, orbits):
    """The tables as the Gram double sums over both cycles, scaled by
    Fractions, and the orbit data from their definitions: the computations
    ``analyze`` made before it derived every table from the rotated
    pairings and every orbit number from a closed form."""
    gram, d, k = inp.gram, orbits.d, orbits.k
    reps = [cycle[0] for cycle in orbits.cycles]
    evenness = [
        l % 2 == 1 or gram[rep][cycle[l // 2]] % 2 == 0
        for rep, cycle, l in zip(reps, orbits.cycles, orbits.lengths)
    ]
    root_orders = [l if even else 2 * l for l, even in zip(orbits.lengths, evenness)]
    mode_offsets = [
        Fraction(0) if even else Fraction(1, 2 * l)
        for l, even in zip(orbits.lengths, evenness)
    ]
    dims = [sum(1 for l in orbits.lengths if j % (k // l) == 0) for j in range(k)]
    weight = Fraction(sum(j * (k - j) * dims[j] for j in range(1, k)), 4 * k * k)
    twisted = [[sum(gram[a][b] for a in orbits.cycles[i] for b in orbits.cycles[j])
                for j in range(d)] for i in range(d)]
    zero_mode = tuple(
        tuple(Fraction(twisted[i][j], orbits.lengths[i] * orbits.lengths[j])
              for j in range(d))
        for i in range(d)
    )
    scaled = [[orbits.k * x for x in row] for row in zero_mode]
    assert all(x.denominator == 1 for row in scaled for x in row)
    assert all(scaled[i][i] % 2 == 0 for i in range(d))
    a_half = tuple(zero_mode[i][i] / 2 for i in range(d))
    for i in range(d):
        assert _in_mode_set(mode_offsets[i], orbits.lengths[i], -a_half[i])
        assert (a_half[i] * root_orders[i]).denominator == 1
    rotated = tuple(
        tuple(tuple(gram[a][reps[j]] for a in orbits.cycles[i]) for j in range(d))
        for i in range(d)
    )
    return {
        "char_matrix": tuple(tuple(int(x) for x in row) for row in scaled),
        "rotated": rotated,
        "zero_mode": [[str(x) for x in row] for row in zero_mode],
        "twisted_gram": twisted,
        "min_degree": [str(x) for x in a_half],
        "evenness": evenness,
        "root_order": root_orders,
        "mode_offset": [str(x) for x in mode_offsets],
        "isometry_order": k // 2,
        "vacuum_weight": str(weight),
    }


def _assert_reference_tables(inputs):
    # A and the rotated pairings as ``analyze`` returns them; the three
    # scalings and the orbit numbers that only ``analyze --format json``
    # prints, as it prints them.
    for inp in inputs:
        orbits, tables = analyze(inp)
        assert orbits == validate(inp)
        reference = _reference_tables(inp, orbits)
        assert tables == (reference["char_matrix"], reference["rotated"]), inp
        printed = _printed(inp)
        assert printed["zero_mode"] == reference["zero_mode"], inp
        assert printed["twisted_gram"] == reference["twisted_gram"], inp
        for key in ("min_degree", "evenness", "root_order", "mode_offset"):
            assert _orbit_column(printed, key) == reference[key], (key, inp)
        for key in ("isometry_order", "vacuum_weight"):
            assert printed[key] == reference[key], (key, inp)


def test_analyze_equals_the_reference_on_presets_draws_and_census(random_inputs, census):
    _assert_reference_tables([preset(name) for name in PRESET_NAMES])
    _assert_reference_tables(random_inputs)
    # Census sizes by rank bound; TWISTCHAR_CENSUS_RANK picks the bound.
    assert len(census) == {1: 2, 2: 17, 3: 114, 4: 1272}[max(inp.rank for inp in census)]
    _assert_reference_tables(census)


def test_analyze_equals_the_reference_on_wide_draws(wide_inputs):
    _assert_reference_tables(wide_inputs)
    orbits = [validate(inp) for inp in wide_inputs]
    assert max(o.k for o in orbits) >= 12 and max(inp.rank for inp in wide_inputs) == 7
    printed = [_printed(inp) for inp in wide_inputs]
    assert {e for p in printed for e in _orbit_column(p, "evenness")} == {True, False}
