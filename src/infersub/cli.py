"""Command line front end: run, place, compare, validate."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .errors import InferSubError, ParseError, ValidationError
from .metrics import emit
# place_oracle is unused here, but perfbench/spans.py patches cli.place_oracle
from .placement import cost, place_oracle
from .scenario import load_scenario
from .simulator import compare, compile_scenario, run


def _load(path: str):
    try:
        return load_scenario(path)
    except ParseError as exc:
        print(f"parse error: line {exc.line}: {exc.message}", file=sys.stderr)
        raise SystemExit(1)
    except ValidationError as exc:
        print(f"invalid scenario: {exc.path}: {exc.rule}", file=sys.stderr)
        raise SystemExit(1)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _write(text: str, out: str | None) -> int:
    """Write text to stdout or to `out` and return the exit code, 2 if `out` fails."""
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    report = run(sc, args.seed)
    return _write(emit(report, args.format), args.out)


def _cmd_compare(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    both = compare(sc, args.seed)
    payload = {name: asdict(rep) for name, rep in sorted(both.items())}
    return _write(json.dumps(payload, indent=2) + "\n", args.out)


def _cmd_place(args: argparse.Namespace) -> int:
    sc = _load(args.scenario)
    brokers, _ = compile_scenario(sc, args.algorithm)
    rows = []
    for domain in sorted(brokers):
        broker = brokers[domain]
        for iid in sorted(broker.instances):
            inst = broker.instances[iid]
            pl = inst.placement
            rep = cost(
                pl, inst.pipeline, sc.topology, sc.workload, sc.objective,
                inst.publishers, inst.subscriber,
            )
            rows.append({
                "sub_id": inst.sub_id,
                "instance_id": iid,
                "algorithm": args.algorithm,
                "assignment": {
                    sid: pl.assignment[sid] for sid in sorted(pl.assignment)
                },
                "latency_ms": None if rep.latency_ms is None else float(rep.latency_ms),
                "bytes_kb": None if rep.bytes_kb is None else float(rep.bytes_kb),
                "objective": (
                    None if rep.objective_value is None else float(rep.objective_value)
                ),
                "feasible": rep.feasible,
            })
    return _write(json.dumps(rows, indent=2) + "\n", args.out)


def _cmd_validate(args: argparse.Namespace) -> int:
    _load(args.scenario)
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infersub",
        description="Inference-aware pub/sub broker: placement and simulation",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="simulate a scenario and report metrics")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.set_defaults(fn=_cmd_run)

    p_place = subs.add_parser("place", help="print placements without simulating")
    p_place.add_argument("--scenario", required=True)
    p_place.add_argument("--algorithm", choices=("oracle", "upstream", "baseline"),
                         default="upstream")
    p_place.add_argument("--out", default=None)
    p_place.set_defaults(fn=_cmd_place)

    p_cmp = subs.add_parser(
        "compare", help="run the same workload under upstream and baseline placement"
    )
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_val = subs.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(fn=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (InferSubError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
