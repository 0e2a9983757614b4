"""The benchmark's workloads and the independent checks on their outputs.

Each workload is a list of CLI operations.  Every operation runs as
``twistchar.cli.main(argv + ["--format", "json"])`` in a fresh
interpreter, as a user's command would.

Why these four:

* ``oracle-rank1``: one large oracle window over Q.  Almost all of it is
  exact elimination (``ExactMatrix.rank``), so an elimination change shows
  here and a row-building change barely does.
* ``oracle-cyclo``: oracle windows over Q(eta_4) and Q(eta_6), both of
  degree 2, plus the x4 ideal-membership sweep.  Row building and rank
  share the time, and degree-2 scalar cost shows.
* ``pascal-sweep``: thousands of stacked matrices of size 6 or less.  A
  fast path with per-matrix set-up cost can win on ``oracle-rank1`` and
  lose here.
* ``series``: integer q-series only; no cyclotomic scalar or matrix is
  touched.  It is the control for changes to ``cyclotomic``, ``pascal``
  and ``quotient``, and it carries ~0.9 MB of JSON output.  Its
  ``verify --preset x3 --identities -T 500`` raises ``RecursionError`` in
  ``qseries._bounded_separated`` on the code this benchmark was defined
  on; it is kept, and counted as failed, so that a fix shows.

The oracle and series inputs are the four presets, the only inputs with
known answers, so they do not depend on the seed.  The sweep takes its
seed from the workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# The sweep seed is the workload seed modulo this, so that every sweep the
# benchmark can run has a reference digest in reference.json.
SWEEP_SEEDS = 64
SWEEP_SPECS = 3250


@dataclass(frozen=True)
class Operation:
    id: str
    argv: tuple[str, ...]


def _oracle(preset: str, weight: int, new_relations: bool = False) -> Operation:
    extra = ("--new-relations",) if new_relations else ()
    argv = ("verify", "--preset", preset, "--oracle", *extra,
            "--charge-bound", "4", "--weight-bound", str(weight))
    return Operation(f"oracle:{preset}" + ("+new-relations" if new_relations else ""), argv)


def _sweep(seed: int) -> Operation:
    sweep_seed = seed % SWEEP_SEEDS
    argv = ("pascal-check", "--max-k", "4", "--max-n", "6", "--samples", "10",
            "--proof-samples", "50", "--seed", str(sweep_seed))
    return Operation(f"pascal-check:seed={sweep_seed}", argv)


_SERIES = (
    *(Operation(f"recursion:{p}", ("verify", "--preset", p, "--recursion", "-T", "1200"))
      for p in ("rank1", "swap2", "x3", "x4")),
    *(Operation(f"identities:{p}", ("verify", "--preset", p, "--identities", "-T", "500"))
      for p in ("x4", "x3")),
    Operation("character:x3", ("character", "--preset", "x3", "-T", "800")),
)

# Each workload's set-up: the presets it analyzes and builds the fields of,
# and for the sweep the fields of its root orders 1..4.
PRESETS = {
    "oracle-rank1": ("rank1",),
    "oracle-cyclo": ("swap2", "x3", "x4"),
    "pascal-sweep": (),
    "series": ("rank1", "swap2", "x3", "x4"),
}
FIELDS = {"pascal-sweep": (1, 2, 3, 4)}

NAMES = tuple(PRESETS)


def operations(workload: str, seed: int) -> tuple[Operation, ...]:
    if workload == "oracle-rank1":
        return (_oracle("rank1", 56),)
    if workload == "oracle-cyclo":
        return (_oracle("swap2", 36), _oracle("x3", 36),
                _oracle("x4", 36, new_relations=True))
    if workload == "pascal-sweep":
        return (_sweep(seed),)
    if workload == "series":
        return _SERIES
    raise KeyError(workload)


def all_operations() -> dict[str, tuple[str, Operation]]:
    """Every operation any workload can run, by id, with its workload."""
    ops = {}
    for name in NAMES:
        seeds = range(SWEEP_SEEDS) if name == "pascal-sweep" else (0,)
        for seed in seeds:
            for op in operations(name, seed):
                ops[op.id] = (name, op)
    return ops


def check_output(argv: tuple[str, ...], text: str) -> tuple[list[str], dict]:
    """Independent checks of one operation's JSON output.

    Returns the problems found and the facts the per-layer metrics read
    from the report (oracle sizes, sweep size).
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"], {}
    problems: list[str] = []
    facts: dict = {}
    if argv[0] == "pascal-check":
        if payload.get("failures"):
            problems.append(f"sweep failures: {payload['failures'][:3]}")
        if payload.get("specs_checked") != SWEEP_SPECS:
            problems.append(f"specs_checked {payload.get('specs_checked')} != {SWEEP_SPECS}")
        facts["pascal.specs"] = payload.get("specs_checked", 0)
        return problems, facts
    if argv[0] == "character":
        if not payload.get("charges"):
            problems.append("character table has no charges")
        return problems, facts
    if payload.get("ok") is not True:
        problems.append("report says ok: false")
    preset = argv[argv.index("--preset") + 1]
    for check in payload.get("checks", []):
        name, detail = check["name"], check["detail"]
        if name == "oracle":
            cells = detail["cells"]
            bad = [c for c in cells if c["dimension"] != c["coefficient"]]
            if bad:
                problems.append(f"oracle: {len(bad)} cells with dimension != coefficient")
            facts["quotient.bidegrees"] = len(cells) + detail["empty_cells"]
            facts["quotient.cells"] = len(cells)
            facts["quotient.monomials"] = sum(c["monomials"] for c in cells)
            facts["quotient.relation_rows"] = sum(c["relations"] for c in cells)
            facts["quotient.ranks"] = sum(c["rank"] for c in cells)
        elif name == "recursion":
            if not all(r["ok"] for r in detail["results"]):
                problems.append("recursion: a result is not ok")
        elif name == "identities":
            comparisons = detail["comparisons"]
            # For x4 the first printed product is informational; the
            # alternate modulus-9 form must match.
            required = comparisons[1:] if preset == "x4" else comparisons
            if not required or not all(c["matches"] for c in required):
                problems.append("identities: a required comparison does not match")
        elif name == "new-relations":
            if detail["failures"]:
                problems.append(f"new-relations: {len(detail['failures'])} not in ideal")
    return problems, facts
