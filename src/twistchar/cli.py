"""Command-line interface.

Subcommands:

  analyze       validate a lattice + isometry and print the derived data
  character     print the truncated multigraded character table
  verify        run consistency checks (recursions, brute-force oracle,
                partition identities, Pascal-matrix replays, two-variable
                ideal membership)
  pascal-check  the seeded Pascal-matrix sweep on its own

Exit codes: 0 on success, 1 when a requested check fails, 2 on bad input.
"""

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .lattice import LatticeError, LatticeInput, analyze
from .pascal import pascal_check
from .presets import PRESET_NAMES, load_lattice, preset
from .qseries import (
    NORMALIZATION,
    RecursionCheck,
    character,
    check_recursions,
    verify_partition_identity,
)
from .quotient import BudgetExceeded, compare_with_character, new_relations_sweep

class InputError(ValueError):
    """Bad command-line input; reported on stderr with exit code 2."""


class _Run(NamedTuple):
    source_kind: str
    source: str
    truncation: int = 12
    out_format: str = "text"
    out_path: str | None = None
    charge_bound: int = 3
    weight_bound: int = 24
    max_k: int = 4
    max_n: int = 6
    samples: int = 10
    proof_samples: int = 50
    seed: int = 0
    strict_identities: bool = False
    verbose: bool = False


class RunConfig(_Run):
    """Validated run parameters shared by the subcommands."""

    __slots__ = ()
    # ``_replace`` builds through ``_make``, so it validates too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs) -> "RunConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.source_kind not in ("preset", "config", "none"):
            raise InputError(f"unknown source kind {self.source_kind!r}")
        if self.source_kind == "preset" and self.source not in PRESET_NAMES:
            raise InputError(
                f"unknown preset {self.source!r}; choose from "
                f"{', '.join(PRESET_NAMES)}"
            )
        if self.truncation < 0:
            raise InputError(f"truncation must be >= 0, got {self.truncation}")
        if self.out_format not in ("text", "json"):
            raise InputError(f"format must be text or json, got {self.out_format}")
        if self.charge_bound < 0 or self.weight_bound < 0:
            raise InputError("oracle bounds must be >= 0")
        if self.max_k < 1 or self.max_n < 1:
            raise InputError("--max-k and --max-n must be >= 1")
        if self.samples < 1 or self.proof_samples < 0:
            raise InputError("--samples must be >= 1 and --proof-samples >= 0")
        return self

    def lattice(self) -> LatticeInput:
        if self.source_kind == "preset":
            return preset(self.source)
        if self.source_kind == "config":
            return load_lattice(self.source)
        raise InputError("this subcommand requires --preset or --config")


# The defaults, for the help texts.
_DEFAULT = RunConfig("none", "")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # Options left off the command line are absent from ``args``, so
    # RunConfig's own defaults apply.
    given = vars(args)
    if given.get("preset"):
        kind, source = "preset", args.preset
    elif given.get("config"):
        kind, source = "config", args.config
    else:
        kind, source = "none", ""
    return RunConfig(
        source_kind=kind,
        source=source,
        **{name: given[name] for name in RunConfig._fields if name in given},
    )


def _info(cfg: RunConfig, message: str) -> None:
    # -v progress lines go to stderr; stdout holds only the report.
    if cfg.verbose:
        print(f"INFO twistchar: {message}", file=sys.stderr)


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out_path:
        Path(cfg.out_path).write_text(text + "\n")
        _info(cfg, f"wrote {cfg.out_path}")
    else:
        print(text)


def _int_rows(rows) -> str:
    return "\n".join("  [" + ", ".join(str(x) for x in row) + "]" for row in rows)


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    inp = cfg.lattice()
    orbits, tables = analyze(inp)
    # Printed only: closed forms in the lengths and c_ij that no run reads,
    # proved equal to their definitions in lattice.analyze.
    k, a, lengths = orbits.k, tables.char_matrix, orbits.lengths
    min_degree = [Fraction(a[i][i], 2 * k) for i in range(orbits.d)]
    twisted_gram = [[lengths[j] * sum(pairs) for j, pairs in enumerate(row)]
                    for row in tables.rotated]
    evenness = [sum(tables.rotated[i][i]) % 2 == 0 for i in range(orbits.d)]
    root_order = [l if even else 2 * l for l, even in zip(lengths, evenness)]
    mode_offset = [Fraction(0 if even else 1, 2 * l) for l, even in zip(lengths, evenness)]
    vacuum_weight = sum(Fraction(l * l - 1, 24 * l) for l in lengths)
    if cfg.out_format == "json":
        payload = {
            "rank": inp.rank,
            "isometry": inp.cycle_string(),
            "isometry_order": k // 2,
            "k": k,
            "vacuum_weight": str(vacuum_weight),
            "orbits": [
                {
                    "cycle": [x + 1 for x in orbits.cycles[i]],
                    "length": lengths[i],
                    "evenness": evenness[i],
                    "root_order": root_order[i],
                    "mode_offset": str(mode_offset[i]),
                    "min_degree": str(min_degree[i]),
                }
                for i in range(orbits.d)
            ],
            "char_matrix": [list(r) for r in tables.char_matrix],
            "zero_mode": [[str(Fraction(x, k)) for x in r] for r in a],
            "twisted_gram": twisted_gram,
            # The orbit sums have disjoint supports, so validate's positive
            # definiteness carries over to their Gram matrix.
            "twisted_gram_invertible": True,
            "rotated_pairings": [
                [list(tables.rotated[i][j]) for j in range(orbits.d)]
                for i in range(orbits.d)
            ],
        }
        _emit(json.dumps(payload, indent=2), cfg)
        return 0
    lines = [
        f"lattice rank {inp.rank}, isometry {inp.cycle_string()} of order "
        f"{k // 2}, k = {k}",
        f"vacuum weight {vacuum_weight}",
    ]
    for i in range(orbits.d):
        cycle = "(" + " ".join(str(x + 1) for x in orbits.cycles[i]) + ")"
        lines.append(
            f"orbit {i}: cycle {cycle}, length {lengths[i]}, "
            f"evenness {'yes' if evenness[i] else 'no'}, "
            f"root order {root_order[i]}, modes "
            f"{mode_offset[i]} + (1/{lengths[i]})Z, "
            f"min degree {min_degree[i]}"
        )
    lines.append("character matrix (k times zero-mode pairings):")
    lines.append(_int_rows(tables.char_matrix))
    lines.append("summed twisted Gram matrix:")
    lines.append(_int_rows(twisted_gram))
    lines.append("twisted Gram invertible: yes")
    for i in range(orbits.d):
        for j in range(orbits.d):
            lines.append(
                f"rotated pairings ({i}, {j}): "
                + str(tuple(tables.rotated[i][j]))
            )
    _emit("\n".join(lines), cfg)
    return 0


def cmd_character(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    orbits, tables = analyze(cfg.lattice())
    _info(cfg, f"building character table, truncation {cfg.truncation}")
    table = character(orbits, tables, cfg.truncation)
    if cfg.out_format == "json":
        _emit(table.to_json(), cfg)
        return 0
    lines = [
        f"character table: d = {table.d}, k = {table.k}, truncation "
        f"{table.truncation}, normalization {NORMALIZATION}"
    ]
    for m in table.charges():
        lines.append(f"A[{m}] = {table.entries[m]}")
    _emit("\n".join(lines), cfg)
    return 0


def _check_recursion(orbits, tables, cfg: RunConfig):
    table = character(orbits, tables, cfg.truncation)
    lines, detail = [], []
    for i in range(orbits.d):
        for res in check_recursions(table, i):
            entry = {"kind": res.kind, "orbit": i, "ok": isinstance(res, RecursionCheck)}
            if entry["ok"]:
                lines.append(
                    f"  {res.kind} recursion, orbit {i}: ok "
                    f"({res.cells} charge cells, truncation {res.truncation})"
                )
                entry["cells"] = res.cells
            else:
                lines.append(f"  FAILED: {res}")
                entry["message"] = str(res)
            detail.append(entry)
    ok = all(entry["ok"] for entry in detail)
    return ok, lines, {"truncation": cfg.truncation, "results": detail}


def _check_oracle(orbits, tables, cfg: RunConfig):
    _info(cfg, f"oracle sweep: charge total <= {cfg.charge_bound}, "
               f"weight <= {cfg.weight_bound}")
    report = compare_with_character(
        orbits,
        tables,
        charge_total=cfg.charge_bound,
        weight_bound=cfg.weight_bound,
    )
    _info(cfg, f"oracle: {report.leads} ranks proved by leading monomials, "
               f"{report.proved - report.leads} by mod-p elimination, "
               f"{report.exact} by exact elimination")
    lines = ([] if cfg.out_format == "json" else
             ["  " + line for line in report.text_table().splitlines()])
    return report.all_ok, lines, report.to_json_dict()


def _check_identities(cfg: RunConfig):
    if cfg.source_kind != "preset" or cfg.source not in ("x3", "x4"):
        raise InputError("--identities is available for presets x3 and x4 only")
    report = verify_partition_identity(cfg.source, cfg.truncation)
    required = list(report.comparisons)
    informational: tuple = ()
    if cfg.source == "x4" and not cfg.strict_identities:
        # The first product is recorded for reference; only the alternate
        # form is required to match unless --strict-identities is given.
        informational = (report.comparisons[0],)
        required = [report.comparisons[1]]
    lines = []
    for comp in report.comparisons:
        tag = " [informational]" if comp in informational else ""
        if comp.matches:
            lines.append(f"  {comp.label}: match to order {cfg.truncation}{tag}")
        else:
            lines.append(
                f"  {comp.label}: first mismatch at q^{comp.first_mismatch} "
                f"(character side {comp.lhs}, candidate side {comp.rhs}){tag}"
            )
    ok = all(c.matches for c in required)
    payload = report.to_json_dict()
    payload["strict"] = cfg.strict_identities
    return ok, lines, payload


def _check_new_relations(orbits, tables):
    cells = new_relations_sweep(orbits, tables)
    bad = [c for c in cells if not c.member]
    trivial = sum(1 for c in cells if c.trivial)
    lines = [
        f"  {len(cells)} membership instances over all orbit pairs "
        f"({trivial} vanish trivially)"
    ]
    for c in bad:
        lines.append(
            f"  NOT IN IDEAL: pair ({c.i}, {c.j}), offsets s={c.s}, t={c.t}"
        )
    payload = {
        "instances": len(cells),
        "trivial": trivial,
        "failures": [c.to_json_dict() for c in bad],
    }
    return not bad, lines, payload


def _check_pascal(cfg: RunConfig):
    _info(cfg, f"pascal sweep: max_k={cfg.max_k} max_n={cfg.max_n} "
               f"samples={cfg.samples} seed={cfg.seed}")
    report = pascal_check(
        cfg.max_k, cfg.max_n, cfg.samples, cfg.seed, cfg.proof_samples
    )
    _info(cfg, f"pascal sweep: {report.proved_mod_p} specs proved mod p, "
               f"{report.proved_exact} by exact elimination")
    lines = [
        f"  {report.specs_checked} stacked specs, "
        f"{report.factorizations_checked} factorization replays, "
        f"{report.two_blocks_checked} two-stack replays (seed {report.seed})"
    ]
    for f in report.failures:
        lines.append(f"  FAILED {f.kind} [{f.params}]: {f.message}")
    return report.ok, lines, report.to_json_dict()


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    selected = [
        dest.replace("_", "-")
        for dest in ("recursion", "oracle", "identities", "new_relations", "pascal")
        if dest in vars(args)
    ] or ["recursion"]
    orbits, tables = analyze(cfg.lattice())
    results = []
    for name in selected:
        if name == "recursion":
            ok, lines, detail = _check_recursion(orbits, tables, cfg)
        elif name == "oracle":
            ok, lines, detail = _check_oracle(orbits, tables, cfg)
        elif name == "identities":
            ok, lines, detail = _check_identities(cfg)
        elif name == "new-relations":
            ok, lines, detail = _check_new_relations(orbits, tables)
        else:
            ok, lines, detail = _check_pascal(cfg)
        results.append((name, ok, lines, detail))
    failed = [name for name, ok, _, _ in results if not ok]
    if cfg.out_format == "json":
        payload = {
            "source": {cfg.source_kind: cfg.source},
            "truncation": cfg.truncation,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, _, detail in results
            ],
            "ok": not failed,
        }
        _emit(json.dumps(payload, indent=2), cfg)
    else:
        lines = [
            f"verify {cfg.source_kind} {cfg.source} "
            f"(truncation {cfg.truncation})"
        ]
        for name, ok, body, _ in results:
            lines.append(f"check {name}: {'ok' if ok else 'FAILED'}")
            lines.extend(body)
        if failed:
            lines.append(
                f"verify result: {len(failed)} of {len(results)} checks FAILED "
                f"({', '.join(failed)})"
            )
        else:
            lines.append(f"verify result: {len(results)} checks, all passed")
        _emit("\n".join(lines), cfg)
    return 1 if failed else 0


def cmd_pascal_check(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    ok, lines, payload = _check_pascal(cfg)
    if cfg.out_format == "json":
        _emit(json.dumps(payload, indent=2), cfg)
    else:
        header = "pascal sweep: " + ("ok" if ok else "FAILED")
        _emit("\n".join([header] + lines), cfg)
    return 0 if ok else 1


def _add_source_args(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--preset", choices=PRESET_NAMES, help="built-in example lattice"
    )
    group.add_argument("--config", help="path to a JSON lattice description")


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", dest="out_format", choices=("text", "json"),
        help=f"output format (default {_DEFAULT.out_format})",
    )
    sub.add_argument(
        "--out", dest="out_path", metavar="OUT",
        help="write output to this file instead of stdout",
    )


def _add_pascal_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-k", type=int, help="largest root order")
    sub.add_argument("--max-n", type=int, help="largest stacked matrix size")
    sub.add_argument(
        "--samples", type=int, help="random (z, w) draws per block shape"
    )
    sub.add_argument(
        "--proof-samples", type=int, help="random instances for each proof replay"
    )
    sub.add_argument("--seed", type=int, help="sweep RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistchar",
        description=(
            "Exact characters, relation oracles and Pascal-matrix checks "
            "for twisted lattice data."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, func, help: str) -> argparse.ArgumentParser:
        # Options not given stay out of the namespace (see _config_from_args);
        # -v is accepted after the subcommand too, listed only at the top.
        sub = subs.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        sub.add_argument("-v", "--verbose", action="store_true", help=argparse.SUPPRESS)
        sub.set_defaults(func=func)
        return sub

    p_analyze = add_command(
        "analyze", cmd_analyze, "validate the lattice and print derived invariants"
    )
    _add_source_args(p_analyze)
    _add_output_args(p_analyze)

    p_char = add_command(
        "character", cmd_character, "print the truncated character table"
    )
    _add_source_args(p_char)
    p_char.add_argument(
        "-T", "--truncation", type=int,
        help=f"largest retained normalized exponent (default {_DEFAULT.truncation})",
    )
    _add_output_args(p_char)

    p_verify = add_command("verify", cmd_verify, "run consistency checks")
    _add_source_args(p_verify)
    p_verify.add_argument(
        "-T", "--truncation", type=int,
        help="truncation for recursion and identity checks "
        f"(default {_DEFAULT.truncation})",
    )
    p_verify.add_argument(
        "--recursion", action="store_true",
        help="check both character recursions (default when no check is named)",
    )
    p_verify.add_argument(
        "--oracle", action="store_true",
        help="compare character coefficients with brute-force quotient dimensions",
    )
    p_verify.add_argument(
        "--identities", action="store_true",
        help="compare the summed character with partition/product sides",
    )
    p_verify.add_argument(
        "--new-relations", action="store_true",
        help="check the two-variable ideal membership over its full range",
    )
    p_verify.add_argument(
        "--pascal", action="store_true", help="run the Pascal-matrix sweep"
    )
    p_verify.add_argument(
        "--strict-identities", action="store_true",
        help="require every recorded identity comparison to match",
    )
    p_verify.add_argument(
        "--charge-bound", type=int,
        help=f"oracle: largest total charge (default {_DEFAULT.charge_bound})",
    )
    p_verify.add_argument(
        "--weight-bound", type=int,
        help="oracle: largest normalized weight "
        f"(default {_DEFAULT.weight_bound})",
    )
    _add_pascal_args(p_verify)
    _add_output_args(p_verify)

    p_pascal = add_command(
        "pascal-check", cmd_pascal_check, "run the Pascal-matrix sweep on its own"
    )
    _add_pascal_args(p_pascal)
    _add_output_args(p_pascal)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, LatticeError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
