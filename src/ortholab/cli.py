"""Command-line front end.

Every command prints one report (JSON or a text rendering of the same
data).  Rationals are printed exactly, never as decimals, and a report is
byte-for-byte reproducible from the same argv and seed.

Exit codes: 0 on success (including "law holds"), 1 when a counterexample
was found, 2 on usage, file or parse errors, on input nested too deeply or
over a size bound, when stdout is closed before the report is written and
on an internal error, which must never pass for a counterexample.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__

# Each handler imports the ortholab modules it runs on its first line, so a
# command loads and compiles only those.

__all__ = ["main"]


def _read_input(inputs: dict, key: str, path: str) -> str:
    """Read ``path`` once: record its sha256 as ``inputs[key]`` and return its UTF-8 text."""
    import hashlib

    with open(path, "rb") as fh:
        blob = fh.read()
    inputs[key] = {"path": path, "sha256": hashlib.sha256(blob).hexdigest()}
    return blob.decode("utf-8")


def _read_json(inputs: dict, key: str, path: str):
    """Read a JSON input as a reader whose paths start at ``key``, its ``inputs`` key; an
    over-long integer is reported in the scalar grammar's words."""
    from .linalg import _digit_run, _JsonAt

    return _JsonAt(json.loads(_read_input(inputs, key, path), parse_int=_digit_run), key)


# The (left, connective, right) combinations of a process demo's named atoms
# reported beside the atoms themselves.
_COMBINATIONS = (("p_i", "&", "q_o"), ("q_i", "|", "r_i"), ("q_o", "|", "r_o"))


def _demo_process(which: str) -> dict:
    from .process import (
        check_distributivity,
        hatch_demo,
        histories_to_json,
        holds_surely,
        prob_of,
        run,
        spin_demo,
    )

    build, combinations = {
        "spin": (spin_demo, _COMBINATIONS + (("q'_i", "|", "r'_i"), ("p_f", "|", "q_f"))),
        "hatch": (hatch_demo, _COMBINATIONS),
    }[which]
    stages, formulas = build()
    histories = run(stages)
    named = dict(formulas)
    for left, connective, right in combinations:
        a, b = formulas[left], formulas[right]
        named[f"{left} {connective} {right}"] = a & b if connective == "&" else a | b
    # mixed_stages reads its two sides at different stages on purpose; the verdict flags it
    p, q0, r0, q1, r1 = (formulas[k] for k in ("p_i", "q_i", "r_i", "q_o", "r_o"))
    identities = {
        "at_preparation": (p & (q0 | r0), (p & q0) | (p & r0)),
        "at_measurement": (p & (q1 | r1), (p & q1) | (p & r1)),
        "mixed_stages": (p & (q1 | r1), (p & q0) | (p & r0)),
    }
    return {
        "histories": histories_to_json(histories),
        "formulas": {
            name: {"surely": holds_surely(f, histories), "prob": str(prob_of(f, histories))}
            for name, f in named.items()
        },
        "identities": {
            name: check_distributivity(left, right, histories).to_json()
            for name, (left, right) in identities.items()
        },
    }


def _two_state_json(verdict) -> dict:
    from .lattice import Subspace, subspace_to_json

    labels = {
        verdict.certainly_first: "[k,0]",
        verdict.certainly_second: "[0,k]",
        verdict.balanced: "[k,k]",
        verdict.whole: "[k,j]",
        Subspace.zero(2): "[0,0]",
    }

    def side(s) -> dict:
        return {"label": labels.get(s, "?"), "subspace": subspace_to_json(s)}

    return {
        "field": verdict.field,
        "pairwise_meets_zero": verdict.pairwise_meets_zero,
        "left": side(verdict.left),
        "right": side(verdict.right),
        "verdict": "distributive" if verdict.is_distributive else "not distributive",
    }


def _demo_two_state() -> dict:
    from .classical import two_state_demo
    from .lattice import GAUSSIAN_RATIONAL, RATIONAL_REAL

    by_field = {f: _two_state_json(two_state_demo(f)) for f in (RATIONAL_REAL, GAUSSIAN_RATIONAL)}
    readings = {(e["left"]["label"], e["right"]["label"], e["verdict"]) for e in by_field.values()}
    by_field["fields_agree"] = len(readings) == 1
    return by_field


def _cmd_demo(args) -> tuple[dict, dict, int]:
    if args.which == "two-state":
        return _demo_two_state(), {}, 0
    return _demo_process(args.which), {}, 0


def _cmd_lattice(args) -> tuple[dict, dict, int]:
    from .lattice import join, leq, meet, ortho, subspace_from_json, subspace_to_json

    op = {"meet": meet, "join": join, "leq": leq, "ortho": ortho}[args.op]
    paths = (args.fileA,) if args.fileB is None else (args.fileA, args.fileB)
    if op is ortho and len(paths) == 2:
        raise ValueError("lattice ortho takes a single subspace file")
    if op is not ortho and len(paths) == 1:
        raise ValueError(f"lattice {args.op} needs two subspace files")
    inputs = {}
    files = zip(("fileA", "fileB"), paths)
    subspaces = [subspace_from_json(data := _read_json(inputs, k, p)) for k, p in files]
    # a dimension mismatch names the second file's space_dim
    value = data["space_dim"].build(op, *subspaces)
    return ({"leq": value} if op is leq else {"result": subspace_to_json(value)}), inputs, 0


def _cmd_check(args) -> tuple[dict, dict, int]:
    from .dsl import (
        BooleanSetAlgebra,
        SubspaceLattice,
        check,
        parse_statement,
        parse_statement_lines,
    )
    from .lattice import MAX_INPUT_DIM, MAX_TRIALS

    if (args.statement is None) == (args.file is None):
        raise ValueError("check needs exactly one of a statement argument or --file")
    if args.dim > MAX_INPUT_DIM:
        raise ValueError(f"--dim {args.dim} is over the limit of {MAX_INPUT_DIM}")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials {args.trials} is over the limit of {MAX_TRIALS}")
    if args.structure == "subspace":
        structure = SubspaceLattice(args.dim)
    else:
        structure = BooleanSetAlgebra(args.dim)
    if args.statement is not None:
        statements = [parse_statement(args.statement)]
        inputs = {"statement": args.statement}
    else:
        inputs = {}
        statements = parse_statement_lines(_read_input(inputs, "file", args.file))
    reports = [check(s, structure, trials=args.trials, seed=args.seed) for s in statements]
    code = 0 if all(r.holds for r in reports) else 1
    if len(reports) == 1 and args.statement is not None:
        return reports[0].to_json(), inputs, code
    return {"checks": [r.to_json() for r in reports]}, inputs, code


def _cmd_props(args) -> tuple[dict, dict, int]:
    from .linalg import vector_from_json
    from .propositions import evaluate, proposition_from_json

    inputs = {}
    prop = proposition_from_json(_read_json(inputs, "prop_file", args.prop_file))
    at = _read_json(inputs, "state_file", args.state_file)["state"]
    # a state of the wrong dimension, or zero, is named at its node
    return {"value": at.build(evaluate, prop, vector_from_json(at))}, inputs, 0


def _render_text(value, indent: int = 0) -> list:
    pad = "  " * indent
    if isinstance(value, dict):
        items = [(f"{key}:", value[key]) for key in sorted(value)]
    elif isinstance(value, list):
        items = [("-", item) for item in value]
    else:
        return [f"{pad}{_atom_text(value)}"]
    lines = []
    for head, item in items:
        if isinstance(item, (dict, list)):
            lines.append(f"{pad}{head}")
            lines.extend(_render_text(item, indent + 1))
        else:
            lines.append(f"{pad}{head} {_atom_text(item)}")
    return lines


def _atom_text(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _build_parser() -> argparse.ArgumentParser:
    # global flags work before or after the subcommand; SUPPRESS keeps the
    # subparser from clobbering a value given at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="ortholab",
        description="Exact subspace-lattice and measurement-logic workbench.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p_demo = sub.add_parser("demo", parents=[common], help="run a built-in demonstration")
    p_demo.add_argument("which", choices=("spin", "hatch", "two-state"))

    p_lat = sub.add_parser("lattice", parents=[common], help="subspace lattice operations")
    p_lat.add_argument("op", choices=("meet", "join", "ortho", "leq"))
    p_lat.add_argument("fileA")
    p_lat.add_argument("fileB", nargs="?")

    p_check = sub.add_parser("check", parents=[common], help="check a lattice identity")
    p_check.add_argument("statement", nargs="?")
    p_check.add_argument("--file", help="statements file: one per line, '#' comments")
    p_check.add_argument("--structure", choices=("subspace", "boolean"), required=True)
    p_check.add_argument("--dim", type=int, default=2)
    p_check.add_argument("--trials", type=int, default=1000)

    p_props = sub.add_parser("props", parents=[common], help="evaluate a proposition file")
    p_props.add_argument("action", choices=("eval",))
    p_props.add_argument("prop_file")
    p_props.add_argument("state_file")
    return parser


_HANDLERS = {
    "demo": _cmd_demo,
    "lattice": _cmd_lattice,
    "check": _cmd_check,
    "props": _cmd_props,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        results, inputs, code = _HANDLERS[args.command](args)
    except RecursionError:
        print("ortholab: error: input nested too deeply", file=sys.stderr)
        return 2
    except (OSError, ValueError, TypeError) as exc:
        print(f"ortholab: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"ortholab: error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": list(argv),
        "inputs": inputs,
        "results": results,
        "seed": args.seed,
        "version": __version__,
    }
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = "\n".join(_render_text(report))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # an output error, not a verdict; fd 1 on /dev/null keeps the exit-time flush from failing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("ortholab: error: stdout closed before the report was written", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
