"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistchar
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
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", "--config", str(bad))
    assert code == 2
    assert "cannot read lattice config" in err


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


# --------------------------------------------------------------------- logging

PASCAL_ARGS = ["--pascal", "--max-k", "1", "--max-n", "2", "--samples", "1",
               "--proof-samples", "0"]


def _cli_process(*argv):
    # A fresh interpreter, so that -v configures logging as it does for a user.
    src = Path(twistchar.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "twistchar.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
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
