"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twistchar
from twistchar import cli
from twistchar.cli import InputError, RunConfig, _config_from_args, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- RunConfig


def test_config_validation():
    RunConfig("preset", "rank1")
    with pytest.raises(InputError):
        RunConfig("preset", "unknown")
    with pytest.raises(InputError):
        RunConfig("preset", "rank1", truncation=-1)
    with pytest.raises(InputError):
        RunConfig("preset", "rank1", out_format="yaml")
    with pytest.raises(InputError):
        RunConfig("preset", "rank1", charge_bound=-1)
    with pytest.raises(InputError):
        RunConfig("none", "", samples=0)
    with pytest.raises(InputError):
        RunConfig("none", "").lattice()


def test_config_is_immutable_and_replace_validates():
    cfg = RunConfig("preset", "rank1")
    with pytest.raises(AttributeError):
        cfg.truncation = 5
    assert cfg._replace(truncation=5).truncation == 5
    with pytest.raises(InputError):
        cfg._replace(truncation=-1)


def test_help_texts_show_the_config_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for default in ("(default 12)", "(default text)", "(default 3)", "(default 24)"):
        assert default in text


# --------------------------------------------------------------------- analyze


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "--preset", "rank1")
    assert code == 0
    assert "k = 2" in out
    assert "vacuum weight 0" in out
    assert "orbit 0" in out
    assert "twisted Gram invertible: yes" in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "--preset", "x3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 4
    assert data["vacuum_weight"] == "1/16"
    assert [o["length"] for o in data["orbits"]] == [1, 2]
    assert data["twisted_gram_invertible"] is True
    assert data["char_matrix"] == [[8, 4], [4, 4]]


def test_analyze_config_file(capsys, tmp_path):
    cfg = tmp_path / "lat.json"
    cfg.write_text(json.dumps({"rank": 2, "gram": [[2, 1], [1, 2]], "perm": "(1 2)"}))
    code, out, _ = run(capsys, "analyze", "--config", str(cfg))
    assert code == 0
    assert "k = 4" in out


# ------------------------------------------------------------------- character


def test_character_text(capsys):
    code, out, _ = run(capsys, "character", "--preset", "rank1", "-T", "8")
    assert code == 0
    assert "A[(0,)] = 1 + O(q^9)" in out
    assert "A[(1,)] = q^2 + q^4 + q^6 + q^8 + O(q^9)" in out


def test_character_json_is_deterministic(capsys):
    args = ("character", "--preset", "x4", "-T", "10", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["normalization"] == "k-weight-shifted"
    assert data["charges"][0]["m"] == [0, 0]


# ---------------------------------------------------------------------- verify


def test_verify_defaults_to_recursion(capsys):
    code, out, _ = run(capsys, "verify", "--preset", "swap2", "-T", "10")
    assert code == 0
    assert "check recursion: ok" in out
    assert "length-step recursion, orbit 0: ok" in out
    assert "adjacent-charge recursion, orbit 0: ok" in out
    assert "all passed" in out


def test_verify_oracle(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "rank1", "--oracle",
        "--charge-bound", "2", "--weight-bound", "12",
    )
    assert code == 0
    assert "check oracle: ok" in out
    assert "all consistent" in out


def test_json_oracle_formats_no_text_table(capsys, monkeypatch):
    from twistchar.quotient import OracleReport

    monkeypatch.setattr(OracleReport, "text_table",
                        lambda self: pytest.fail("text table formatted for JSON output"))
    code, out, _ = run(capsys, "verify", "--preset", "rank1", "--oracle",
                       "--charge-bound", "2", "--weight-bound", "12", "--format", "json")
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_identities_x3(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "x3", "--identities", "-T", "16"
    )
    assert code == 0
    assert "match to order 16" in out


def test_verify_identities_x4_default_vs_strict(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "x4", "--identities", "-T", "16"
    )
    assert code == 0
    assert "[informational]" in out
    assert "first mismatch at q^2" in out

    code, out, _ = run(
        capsys, "verify", "--preset", "x4", "--identities",
        "--strict-identities", "-T", "16",
    )
    assert code == 1
    assert "check identities: FAILED" in out


def test_verify_identities_rejects_other_presets(capsys):
    code, _, err = run(capsys, "verify", "--preset", "rank1", "--identities")
    assert code == 2
    assert "x3 and x4" in err


def test_verify_new_relations_and_pascal(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "x3", "--new-relations", "--pascal",
        "--max-k", "2", "--max-n", "2", "--samples", "1",
        "--proof-samples", "2",
    )
    assert code == 0
    assert "membership instances" in out
    assert "stacked specs" in out


def test_verify_json_payload(capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "rank1", "--format", "json", "-T", "8"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["checks"][0]["name"] == "recursion"
    assert all(r["ok"] for r in data["checks"][0]["detail"]["results"])


# ----------------------------------------------------------------- pascal-check


def test_pascal_check_json_deterministic(capsys):
    args = (
        "pascal-check", "--max-k", "2", "--max-n", "2", "--samples", "1",
        "--proof-samples", "2", "--seed", "5", "--format", "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True


def test_pascal_check_text(capsys):
    code, out, _ = run(
        capsys, "pascal-check", "--max-k", "1", "--max-n", "2",
        "--samples", "1", "--proof-samples", "1",
    )
    assert code == 0
    assert out.startswith("pascal sweep: ok")


@pytest.mark.parametrize("argv, specs", [
    (("pascal-check", "--max-k", "12", "--max-n", "12"), 2034810),
    (("verify", "--preset", "x3", "--pascal", "--max-k", "20", "--max-n", "20"),
     2960030),
    (("pascal-check", "--max-k", "2", "--max-n", "10", "--samples", "99999999"),
     999999990),
])
def test_oversized_pascal_sweep_exits_2(capsys, monkeypatch, argv, specs):
    # Refused from the closed-form spec count, before any spec is built.
    from twistchar import pascal

    def refuse(*args):
        pytest.fail("the sweep started before its budget refused it")

    # A spec is proved by its shape's kernel, or by verify_invertible when
    # the kernel cannot settle it.
    for name in ("_kernel", "verify_invertible"):
        monkeypatch.setattr(pascal, name, refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: pascal sweep needs at least {specs} stacked specs, over the "
        "budget of 1000000\n"
    )


def test_sweep_budget_counts_every_spec(capsys, monkeypatch):
    # The default sweep runs 3250 specs: refused one below that, run at it.
    from twistchar import pascal

    argv = ("pascal-check", "--proof-samples", "0")
    monkeypatch.setattr(pascal, "MAX_SWEEP_SPECS", 3249)
    code, _, err = run(capsys, *argv)
    assert code == 2 and "needs at least 3250 stacked specs" in err
    monkeypatch.setattr(pascal, "MAX_SWEEP_SPECS", 3250)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "  3250 stacked specs" in out


@pytest.mark.parametrize("argv", [
    ("pascal-check", "--proof-samples", "1000000000"),
    ("verify", "--preset", "x3", "--pascal", "--proof-samples", "50001"),
])
def test_oversized_proof_samples_exit_2(capsys, monkeypatch, argv):
    # Refused before any spec is proved or any proof replayed.
    from twistchar import pascal

    def refuse(*args):
        pytest.fail("the sweep started before its budget refused it")

    for name in ("_kernel", "verify_invertible", "factorization_check",
                 "two_blocks_check"):
        monkeypatch.setattr(pascal, name, refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: pascal sweep needs {argv[-1]} proof samples, over the budget "
        "of 50000\n"
    )


def test_proof_sample_budget_is_inclusive(capsys, monkeypatch):
    from twistchar import pascal

    argv = ("pascal-check", "--max-k", "1", "--max-n", "1", "--samples", "1",
            "--proof-samples", "3")
    monkeypatch.setattr(pascal, "MAX_PROOF_SAMPLES", 2)
    code, _, err = run(capsys, *argv)
    assert code == 2 and "needs 3 proof samples" in err
    monkeypatch.setattr(pascal, "MAX_PROOF_SAMPLES", 3)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "3 factorization replays, 3 two-stack replays" in out


# ------------------------------------------------------------ errors and files


def test_out_file_written(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", "--preset", "swap2", "--format", "json",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["k"] == 4


def test_missing_config_file_is_reported(capsys):
    code, _, err = run(capsys, "analyze", "--config", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_malformed_config_file_is_reported(capsys, tmp_path):
    # Bad syntax, bytes that are not UTF-8, and nesting too deep to decode.
    bad = tmp_path / "bad.json"
    for content in (b"{not json", b'{"rank": 1, "perm": "\xff"}', b"[" * 200000):
        bad.write_bytes(content)
        code, out, err = run(capsys, "analyze", "--config", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read lattice config")
        assert err.count("\n") == 1


def test_invalid_lattice_in_config(capsys, tmp_path):
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps({"rank": 1, "gram": [[3]], "perm": ""}))
    code, _, err = run(capsys, "analyze", "--config", str(cfg))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "override",
    [
        {"gram": [[2, "x"], ["x", 2]]},
        {"rank": "two"},
        {"perm": "(a b)"},
        {"perm": None},
        {"perm": 5},
        {"gram": 5},
        {"gram": [[2, 0], 2]},
        {"rank": 1, "gram": [[2.5]], "perm": "(1)"},
        {"rank": 1.9, "gram": [[2]], "perm": "(1)"},
        {"rank": 1, "gram": [[2]], "perm": [1.7]},
        {"rank": 1, "gram": [[2]], "perm": [True]},
    ],
)
def test_malformed_config_values_exit_2(capsys, tmp_path, override):
    # Wrong types and shapes are input errors: never a traceback, never a
    # silent coercion of a float or a bool to an integer.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"rank": 2, "gram": [[2, 0], [0, 2]], "perm": "(1)(2)", **override}))
    code, out, err = run(capsys, "analyze", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("rank", [0, -1])
def test_config_rank_below_one_exits_2(capsys, tmp_path, rank):
    # Refused before the Gram array is measured against the rank.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"rank": rank, "gram": [2], "perm": "(1)"}))
    code, out, err = run(capsys, "analyze", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: rank must be a positive integer, got {rank}\n"


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20,
)
_ENTRY = st.integers(min_value=-1, max_value=4) | _JSON


def _symmetric(n, values):
    # The symmetric n x n matrix with upper triangle (diagonal doubled, so
    # even) read row by row from values.
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = values[i * n + j] * (2 if i == j else 1)
    return rows


_CYCLES = st.text(alphabet="()12345 ,-x", max_size=12)


@st.composite
def _near_valid(draw):
    # Even, symmetric and small, so that some inputs pass validation and
    # reach the orbit analysis; the permutation need not preserve the form.
    n = draw(st.integers(min_value=1, max_value=4))
    values = draw(st.lists(st.sampled_from((1, 1, 0, 2, -1)), min_size=n * n, max_size=n * n))
    perm = draw(st.just("()") | st.permutations(list(range(1, n + 1))) | _CYCLES)
    return {"rank": n, "gram": _symmetric(n, values), "perm": perm}


@st.composite
def _malformed(draw):
    # Arbitrary JSON in any slot, missing keys, wrong shapes and types.
    rank = draw(st.integers(min_value=-1, max_value=4) | _JSON)
    n = rank if isinstance(rank, int) and not isinstance(rank, bool) and 0 <= rank <= 4 else 2
    nested = st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    flat = st.lists(_ENTRY, min_size=n * n, max_size=n * n)
    gram = draw(nested | flat | _JSON)
    perm = draw(st.permutations(list(range(1, n + 1))) | st.lists(_ENTRY, max_size=n + 1)
                | _CYCLES | _JSON)
    data = {"rank": rank, "gram": gram, "perm": perm}
    data.pop(draw(st.none() | st.sampled_from(sorted(data))), None)
    return draw(st.just(data) | _JSON)


@given(data=_near_valid() | _malformed())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_analyze_config_fuzz_exits_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lattice.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--config", str(path)])
    assert code in (0, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


def test_negative_truncation_is_rejected(capsys):
    code, _, err = run(capsys, "character", "--preset", "rank1", "-T", "-3")
    assert code == 2
    assert "truncation" in err


def test_budget_overrun_exits_2(capsys, monkeypatch):
    from twistchar import cli
    from twistchar.quotient import BudgetExceeded

    def explode(*args, **kwargs):
        raise BudgetExceeded("too big")

    monkeypatch.setattr(cli, "compare_with_character", explode)
    code, _, err = run(capsys, "verify", "--preset", "rank1", "--oracle")
    assert code == 2
    assert "too big" in err


@pytest.mark.parametrize(
    "charge_bound, weight_bound, count, cell",
    [("6", "90", 2172, "charge=(6,), weight=82"),
     ("8", "100", 2062, "charge=(5,), weight=94")],
)
def test_oversized_oracle_window_is_refused_before_any_work(
    capsys, monkeypatch, charge_bound, weight_bound, count, cell
):
    # The column budget is read from partition counts: nothing is enumerated
    # and no rank is taken before the refusal.
    from twistchar import quotient
    from twistchar.cyclotomic import ExactMatrix

    def no_work(*args):
        pytest.fail("oracle work started before the column budget refused it")

    monkeypatch.setattr(ExactMatrix, "rank", no_work)
    monkeypatch.setattr(quotient, "enumerate_monomials", no_work)
    code, out, err = run(capsys, "verify", "--preset", "rank1", "--oracle",
                         "--charge-bound", charge_bound, "--weight-bound", weight_bound)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {count} monomials at bidegree ({cell}) exceed "
        "the column budget (2000)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["character", "--preset", "rank1"],
        ["verify", "--preset", "rank1", "--recursion"],
        ["verify", "--preset", "x3", "--identities"],
    ],
    ids=["character", "recursion", "identities"],
)
def test_oversized_character_table_exits_2(argv):
    # Refused from the charge box before any coefficient list is allocated.
    proc = _cli_process(*argv, "-T", "99999999999")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "budget" in proc.stderr and "Traceback" not in proc.stderr


def _capped_memory():
    import resource

    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _lattice_config(tmp_path, gram, cycles):
    cfg = tmp_path / "lattice.json"
    cfg.write_text(json.dumps({"rank": len(gram), "perm": cycles, "gram": gram}))
    return str(cfg)


def _permutation_lattice(tmp_path, lengths):
    # Gram 2I, the isometry one cycle per length.
    cycles, start = "", 1
    for length in lengths:
        cycles += "(" + " ".join(map(str, range(start, start + length))) + ")"
        start += length
    rank = start - 1
    return _lattice_config(
        tmp_path, [[2 * (i == j) for j in range(rank)] for i in range(rank)], cycles)


@pytest.mark.parametrize("check", ["--oracle", "--new-relations"])
def test_field_too_large_to_build_exits_2(tmp_path, check):
    # Cycles (2)(3)(5)(7)(11)(13): k = 60060 and phi(k) = 11520, refused
    # before Phi_k is built.
    cfg = _permutation_lattice(tmp_path, (2, 3, 5, 7, 11, 13))
    proc = _cli_process("verify", "--config", cfg, check)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == (
        "error: the field Q(eta_60060) has degree 11520, over the budget of 2000\n"
    )


def test_large_isometry_order_is_analyzed_and_refused_at_once(tmp_path):
    # Cycles (2)(3)(5)...(19), rank 77: k = 19399380.  The orbit data that
    # analyze prints are closed forms in the cycle lengths; a sum over all k
    # eigenvalue exponents took 15 s before either command could answer.
    cfg = _permutation_lattice(tmp_path, (2, 3, 5, 7, 11, 13, 17, 19))
    proc = _cli_process("analyze", "--config", cfg, timeout=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "15c83b6a523e5aee658c6becb6f3f7d7efbaaa64156be5308db2e83b9db8386d"
    )
    proc = _cli_process("verify", "--config", cfg, "--oracle", timeout=5)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == (
        "error: the field Q(eta_19399380) has degree 3317760, over the budget of 2000\n"
    )


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_rank_30_window_builds_only_what_it_uses(tmp_path):
    # Cycles (4)(3)(5)(7)(11): k = 9240 and phi(k) = 1920.  With all k powers
    # of eta built up front the window peaked at 288 MB.  The child reports
    # its own peak, VmHWM in KiB: Linux carries the test runner's peak into
    # a child's ru_maxrss across fork and exec.  The JSON names the config by
    # the path given, so the child runs where the config is.
    _permutation_lattice(tmp_path, (4, 3, 5, 7, 11))
    code = (
        "import contextlib, hashlib, io, re, sys\n"
        "from twistchar.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(sys.argv[1:])\n"
        "peak = re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status').read())[1]\n"
        "print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(), peak)\n"
    )
    src = Path(twistchar.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--config", "lattice.json", "--oracle",
         "--charge-bound", "2", "--weight-bound", "24", "--format", "json"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        cwd=tmp_path, timeout=60, check=False,
    )
    exit_code, digest, peak_kib = proc.stdout.split()
    assert (exit_code, digest) == (
        "0", "5d6bea72a2ba27a9ef19bead32420bec4e4c3a616217aa313b7b3e1b3ad07929"
    ), proc.stderr
    assert int(peak_kib) < 40 * 1024


# Valid lattices whose pairings are too large to expand: the oracle's window
# reaches none of their large pairs, and the membership sweep is refused by
# its instance count.
LARGE_PAIRINGS = {
    "huge": [[10 ** 30, 0], [0, 2]],
    "mega": [[2 * 10 ** 6, 10 ** 6], [10 ** 6, 2 * 10 ** 6]],
    "g200": [[200, 100], [100, 200]],
}


@pytest.mark.parametrize("name, charges", [
    # Only orbit 1 of huge has weights <= 24: charges (0, m), m <= 3.
    ("huge", {(0, m) for m in range(4)}),
    ("mega", {(0, 0)}),
])
def test_oracle_builds_no_factor_of_a_pair_out_of_its_window(tmp_path, name, charges):
    cfg = _lattice_config(tmp_path, LARGE_PAIRINGS[name], "(1)(2)")
    proc = _cli_process("verify", "--config", cfg, "--oracle",
                            "--format", "json", timeout=20)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    report = json.loads(proc.stdout)["checks"][0]["detail"]
    assert report["all_ok"]
    assert {tuple(c["charge"]) for c in report["cells"]} == charges


@pytest.mark.parametrize("name, instances", [
    ("huge", 10 ** 30 * (10 ** 30 + 1) // 2 + 3),
    ("mega", 2 * (2 * 10 ** 6 * (2 * 10 ** 6 + 1) // 2 + 10 ** 6 * (10 ** 6 + 1) // 2)),
    ("g200", 50300),
])
def test_membership_sweep_over_its_instance_budget_exits_2(tmp_path, name, instances):
    cfg = _lattice_config(tmp_path, LARGE_PAIRINGS[name], "(1)(2)")
    proc = _cli_process("verify", "--config", cfg, "--new-relations", timeout=20)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == (f"error: the membership sweep has {instances} instances, "
                           "over the budget of 4000\n")


def test_argparse_rejects_unknown_preset(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--preset", "bogus"])
    assert err.value.code == 2


def test_argparse_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_argparse_requires_source(capsys):
    with pytest.raises(SystemExit) as err:
        main(["character"])
    assert err.value.code == 2


def test_unset_options_take_run_config_defaults():
    args = build_parser().parse_args(["verify", "--preset", "x3"])
    assert _config_from_args(args) == RunConfig("preset", "x3")
    args = build_parser().parse_args(
        ["pascal-check", "--seed", "7", "--format", "json", "--out", "r.json"]
    )
    assert _config_from_args(args) == RunConfig(
        "none", "", seed=7, out_format="json", out_path="r.json"
    )


def _outcome(argv):
    # (exit code, stdout, stderr) of main(argv), argparse's exits included.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


PARSER_ARGVS = [
    ["--help"], ["-h"], ["-v"], [], ["bogus"], ["-v", "bogus", "--preset", "x3"],
    ["analyze"], ["verify", "--bogus"], ["character", "-T"], ["pascal-check", "--seed", "x"],
    ["-v", "pascal-check", "--max-k", "1", "--max-n", "2", "--samples", "1",
     "--proof-samples", "0"],
    ["pascal-check", "-v", "--max-k", "1", "--max-n", "2", "--samples", "1",
     "--proof-samples", "0"],
    ["--verbose", "analyze", "--preset", "swap2", "--out", "report.txt", "-v"],
] + [[*before, name, *after, "--help"]
     for name in ("analyze", "character", "verify", "pascal-check")
     for before, after in (((), ()), (("-v",), ()), ((), ("-v",)))]


@pytest.mark.parametrize("columns", ["80", "200"])
def test_parser_for_the_named_subcommand_prints_what_the_full_parser_does(
    monkeypatch, tmp_path, columns
):
    # main builds only the named subcommand's arguments; every help text,
    # usage error and run is byte-identical to the parser with all of them.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", columns)
    lazy = [_outcome(argv) for argv in PARSER_ARGVS]
    full_parser = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: full_parser())
    assert [_outcome(argv) for argv in PARSER_ARGVS] == lazy
    assert lazy[0][0] == 0 and "{analyze,character,verify,pascal-check}" in lazy[0][1]
    assert lazy[4][0] == 2 and "invalid choice: 'bogus'" in lazy[4][2]
    assert lazy[10] == lazy[11] and "INFO twistchar: pascal sweep" in lazy[10][2]


def test_only_the_named_subcommand_gets_arguments():
    def filled(parser):
        subs = next(a for a in parser._actions if a.dest == "command").choices
        return {name for name, sub in subs.items() if len(sub._actions) > 1}

    assert filled(build_parser(["-v", "character", "--preset", "x3"])) == {"character"}
    assert filled(build_parser(["-v"])) == filled(build_parser(["bogus"])) == set()
    assert len(filled(build_parser())) == 4


@pytest.mark.parametrize("source", [
    ("--preset", "rank1"), ("--preset", "swap2"), ("--preset", "x3"),
    ("--preset", "x4"), "eye300"])
def test_analyze_json_is_streamed_with_the_bytes_of_dumps(
    capsys, monkeypatch, tmp_path, source
):
    # analyze writes its JSON through the encoder's chunks, never as one
    # string; the bytes are json.dumps's, to stdout and to --out alike.
    if source == "eye300":
        source = ("--config", _permutation_lattice(tmp_path, (1,) * 300))

    def refuse(*args, **kwargs):
        pytest.fail("analyze built its whole JSON text")

    monkeypatch.setattr(json, "dumps", refuse)
    code, out, err = run(capsys, "analyze", *source, "--format", "json")
    target = tmp_path / "report.json"
    assert run(capsys, "analyze", *source, "--format", "json", "--out", str(target)) \
        == (0, "", "")
    monkeypatch.undo()
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n" == target.read_text()
    if source[0] == "--config":
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3801d9b73ebabf88715affc4b2dd4cc9b7b4a06340eee9da38d8a76706582ed5"
        )


# --------------------------------------------------------------------- logging

PASCAL_ARGS = ["--pascal", "--max-k", "1", "--max-n", "2", "--samples", "1",
               "--proof-samples", "0"]


def _cli_process(*argv, timeout=60):
    # A fresh interpreter, as a user runs one, under a 1 GiB memory cap and a
    # timeout, so that a regression fails fast.
    src = Path(twistchar.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "twistchar.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=_capped_memory,
        timeout=timeout, check=False,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["-v", "verify", "--preset", "x3", *PASCAL_ARGS],
        ["verify", "-v", "--preset", "x3", *PASCAL_ARGS],
        ["verify", "--preset", "x3", *PASCAL_ARGS, "--verbose"],
    ],
    ids=["before", "after", "last"],
)
def test_verbose_on_either_side_of_the_subcommand(argv):
    quiet = _cli_process("verify", "--preset", "x3", *PASCAL_ARGS)
    loud = _cli_process(*argv)
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    assert "INFO twistchar: pascal sweep:" in loud.stderr
    assert loud.stdout == quiet.stdout


def test_verbose_pascal_check_logs_the_proof_methods():
    argv = ["pascal-check", "--max-k", "2", "--max-n", "3", "--samples", "1",
            "--proof-samples", "0"]
    quiet = _cli_process(*argv)
    loud = _cli_process(*argv, "-v")
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    assert (
        "INFO twistchar: pascal sweep: 12 specs proved mod p, "
        "0 by exact elimination\n"
    ) in loud.stderr
    assert loud.stdout == quiet.stdout


def test_verbose_oracle_logs_the_proof_methods():
    argv = ["verify", "--preset", "swap2", "--oracle", "--charge-bound", "2",
            "--weight-bound", "12"]
    quiet = _cli_process(*argv)
    loud = _cli_process(*argv, "-v")
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    assert (
        "INFO twistchar: oracle: 9 ranks proved by leading monomials, 1 by "
        "mod-p elimination, 0 by exact elimination\n"
    ) in loud.stderr
    assert loud.stdout == quiet.stdout


# --------------------------------------------------------------- byte identity

# SHA-256 of stdout, with the exit code, for reports whose bytes must stay
# the same across internal rewrites: any changed byte fails here.
PINNED_OUTPUTS = [
    (("analyze", "--preset", "rank1"), 0,
     "0b0f699318507c08469e77ad857e79f156d6906ead6d02ba0b071c61384b5ca6"),
    (("analyze", "--preset", "rank1", "--format", "json"), 0,
     "cbf209b2c032c4cbe0f5d7e3599615eb9a4a5e3a4edb8626d0a0820f7eca8505"),
    (("analyze", "--preset", "swap2"), 0,
     "d93309a821e989743d5277a52c04cf585645ff22a7a35b464edc207f2b0aa597"),
    (("analyze", "--preset", "swap2", "--format", "json"), 0,
     "7358782f25dfcff7d3199537643ab1de60be17238529336f9469340d2a5ede9d"),
    (("analyze", "--preset", "x3"), 0,
     "b9a801ea8c66bd553ef4ef208908e63843565e8ed1bac3120918736e66260738"),
    (("analyze", "--preset", "x3", "--format", "json"), 0,
     "489312ebb05259185998b0af1e82566c3ff76ec3bc546e1106d1a105988696ee"),
    (("analyze", "--preset", "x4"), 0,
     "6f7f15d266e49424757778051113fcd9973f9f681bdd246241d07ab431e26804"),
    (("analyze", "--preset", "x4", "--format", "json"), 0,
     "5c6e1552468dea211c5747a0ca6ae6de842e71f50443f0741b7c35fbd024f815"),
    (("character", "--preset", "rank1", "-T", "60", "--format", "json"), 0,
     "fc772244c5d218e52081f81ebfeca10a5f02e615d908be693529182cae603bbd"),
    (("character", "--preset", "swap2", "-T", "60", "--format", "json"), 0,
     "d2d536567d32583edce5d38b90915063ae34b5daf7f3013db5158992bd827b92"),
    (("character", "--preset", "x3", "-T", "60", "--format", "json"), 0,
     "b8abc7d4b232d78866bb47a5516f336b7d962eeeb7c79089f084cf9f3a2cf68c"),
    (("character", "--preset", "x4", "-T", "60", "--format", "json"), 0,
     "21532ed0c1fa6e459e0d7e777eb6af010989a96560430b3bb5384456cb0367bd"),
    (("character", "--preset", "x4", "-T", "30"), 0,
     "a5beb7284c380d4d80d7f0a606b395626d2c0904f87251bc576e72328d66d079"),
    (("verify", "--preset", "x3", "--recursion", "--identities", "-T", "60",
      "--format", "json"), 0,
     "764f185a7cd0e7a6438749e324e8231220f2142a6a4f05169613002c6335d24d"),
    (("verify", "--preset", "x4", "--identities", "--strict-identities", "-T", "40",
      "--format", "json"), 1,
     "6585e42ad0d577781551cee7114b4cbaa14bafa4aef6c0935ca93994c4b5a1e2"),
    (("verify", "--preset", "rank1", "--oracle", "--charge-bound", "3",
      "--weight-bound", "24"), 0,
     "1b22ca2b2476a21e4a8dd85bee0c3e066e9305911a35a0b3ba447de8aad0c976"),
    (("verify", "--preset", "swap2", "--oracle", "--charge-bound", "3",
      "--weight-bound", "24", "--format", "json"), 0,
     "b4510dd73a160b2d7c866db5aa7679f2e15513cf44bc0e99e8054c06225967b5"),
    (("verify", "--preset", "x3", "--oracle", "--new-relations", "--charge-bound",
      "3", "--weight-bound", "20", "--format", "json"), 0,
     "4cc7589c28f676be2ff2afed94976c317a8c8638dda3fedaea084594ad260760"),
    (("verify", "--preset", "x4", "--oracle", "--new-relations", "--charge-bound",
      "3", "--weight-bound", "20", "--format", "json"), 0,
     "95ce50e6f2137bf5f1e1b3d497431e99277e2bc05885ee6999d5028953f11d4b"),
    # swap2 is the only preset whose relation roots of unity are not all 1.
    (("verify", "--preset", "swap2", "--oracle", "--new-relations", "--charge-bound",
      "3", "--weight-bound", "24", "--format", "json"), 0,
     "fd63dd4f1150f35e10997c3c92e167472150044e87fac078eb907952ed03a550"),
]


@pytest.mark.parametrize(
    "argv, expected_code, digest", PINNED_OUTPUTS,
    ids=["analyze-rank1-text", "analyze-rank1", "analyze-swap2-text", "analyze-swap2",
         "analyze-x3-text", "analyze-x3", "analyze-x4-text", "analyze-x4",
         "character-rank1", "character-swap2", "character-x3", "character-x4",
         "character-x4-text", "verify-x3-recursion-identities",
         "verify-x4-strict-identities", "oracle-rank1-text", "oracle-swap2",
         "oracle-x3-new-relations", "oracle-x4-new-relations",
         "oracle-swap2-new-relations"],
)
def test_output_bytes_are_pinned(capsys, argv, expected_code, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (expected_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_config_output_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    # A swapped pair beside two fixed points: orbits of lengths 2 and 1, so
    # relation families and membership targets pair unequal steps.  The JSON
    # names the config path, so it is given relative to tmp_path.
    monkeypatch.chdir(tmp_path)
    Path("swapped_pair_fixed_pair.json").write_text(json.dumps({
        "rank": 4,
        "gram": [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]],
        "perm": "(1 2)(3)(4)",
    }))
    code, out, err = run(
        capsys, "verify", "--config", "swapped_pair_fixed_pair.json", "--oracle",
        "--new-relations", "--charge-bound", "3", "--weight-bound", "20",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a9aa281b0502b521c052fde5333ad0def4f1fc16c8149159cf3be3dca16e16d4"
    )


@pytest.mark.parametrize("out_format, digest", [
    ("text", "213161310068619eeb4c3f7a5048165e89020e1786dfd541f6fe780c7f8c1e12"),
    ("json", "233e30688b5e15da23f2c78db9b3b5b38fda26d89bb2237bec3ec6c612413616"),
])
def test_uneven_three_cycles_analyze_bytes_are_pinned(capsys, tmp_path, monkeypatch,
                                                      out_format, digest):
    # Two 3-cycles whose cycles pair unevenly: rotated (2, 0, 2) against
    # (2, 2, 0), so the zero-mode pairing averages unequal rotations.
    monkeypatch.chdir(tmp_path)
    Path("two_three_cycles.json").write_text(json.dumps({
        "rank": 6,
        "gram": [[4, 2, 0, 2, 2, 2], [2, 4, 0, 2, 0, 0], [0, 0, 4, 2, 0, 2],
                 [2, 2, 2, 4, 0, 2], [2, 0, 0, 0, 4, 2], [2, 0, 2, 2, 2, 4]],
        "perm": [6, 5, 2, 1, 3, 4],
    }))
    code, out, err = run(capsys, "analyze", "--config", "two_three_cycles.json",
                         "--format", out_format)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_empty_charge_window_output_is_pinned(capsys, tmp_path, monkeypatch):
    # Rank 5, Gram 2I, trivial isometry: five orbits of lowest weight 1, so
    # of the C(25, 5) charge vectors up to 20 only the 126 of entry sum <= 4
    # can hold a monomial of weight <= 4.  The JSON carries the empty count.
    monkeypatch.chdir(tmp_path)
    Path("rank5_2I.json").write_text(json.dumps({
        "rank": 5,
        "gram": [[2 * (i == j) for j in range(5)] for i in range(5)],
        "perm": "(1)",
    }))
    code, out, err = run(
        capsys, "verify", "--config", "rank5_2I.json", "--oracle",
        "--charge-bound", "20", "--weight-bound", "4", "--format", "json",
    )
    assert (code, err) == (0, "")
    assert '"empty_cells": 265624' in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5f8f004f687a460ffcc8787d80303e2b5c1d648f687802841e5a47615119aa7d"
    )


@pytest.mark.parametrize("fmt, digest", [
    ("text", "bea410efcc093b38df3fad89f9021cfa8b6bfc3032e56afb5354226962819629"),
    ("json", "d99287c5adbe94756912f56312b6466d5c2c3878e0d343b4e87db5e8a7f3935e"),
])
def test_failing_recursion_output_is_pinned(capsys, monkeypatch, fmt, digest):
    # x3's table with one coefficient lowered by 2: both recursions fail on
    # both orbits, and the FAILED lines and exit code 1 are fixed.
    from twistchar import cli
    from twistchar.qseries import character

    def corrupted(orbits, tables, truncation):
        table = character(orbits, tables, truncation)
        table.entries[(1, 1)].coeffs[20] -= 2
        return table

    monkeypatch.setattr(cli, "character", corrupted)
    code, out, err = run(capsys, "verify", "--preset", "x3", "--recursion",
                         "-T", "60", "--format", fmt)
    assert (code, err) == (1, "")
    assert "recursion fails at charge (1, 1), exponent 20" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
