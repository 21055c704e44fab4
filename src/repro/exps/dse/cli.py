"""``python -m repro.exps dse`` — run/inspect DSE campaigns.

Subcommands::

    dse expand --spec sweep.json            # preview the point stream
    dse run    --spec sweep.json --out DIR  # execute + write artifacts
    dse report --results DIR                # re-analyse results.json

``run`` shares the engine/service flags of the main exps CLI (``--jobs``,
``--cache-dir``, ``--service HOST:PORT``, ``--chips`` ... — flag beats
``EVAL_REPRO_*`` beats default) and writes ``results.csv`` /
``results.json`` / ``pareto.csv`` / ``report.json`` under ``--out``.
Objectives are ``column:max`` / ``column:min`` (repeatable;
default ``perf_rel:max power:min error_frac:min``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from ... import obs
from ...config import Settings
from ..reporting import format_table
from .pareto import DEFAULT_OBJECTIVES, Objective, pareto_front, sensitivity
from .report import analysis_document, load_results, swept_columns, write_artifacts
from .spec import SweepSpec


def _load_spec(path: str) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return SweepSpec.from_wire(json.load(handle))


def _objectives(args, parser: argparse.ArgumentParser) -> List[Objective]:
    if not args.objective:
        return list(DEFAULT_OBJECTIVES)
    try:
        return [Objective.parse(text) for text in args.objective]
    except ValueError as exc:
        parser.error(str(exc))


def _print_rows(title: str, rows: Sequence[dict], columns: Sequence[str]) -> None:
    body = [
        [
            f"{row[c]:.4f}" if isinstance(row.get(c), float) else str(row.get(c, ""))
            for c in columns
        ]
        for row in rows
    ]
    print(format_table(title, list(columns), body))


def _print_analysis(rows, objectives) -> None:
    front = pareto_front(rows, objectives)
    params = swept_columns(rows)
    columns = ["point"] + params + [o.key for o in objectives]
    _print_rows(
        f"Pareto frontier ({len(front)}/{len(rows)} points, "
        + " ".join(f"{o.key}:{o.goal}" for o in objectives) + ")",
        front, columns,
    )
    report = sensitivity(rows, params, objectives)
    if report:
        body = [
            [param] + [f"{report[param]['spread'][o.key]:.4f}" for o in objectives]
            for param in sorted(
                report,
                key=lambda p: -report[p]["spread"][objectives[0].key],
            )
        ]
        print(format_table(
            "axis sensitivity (spread of per-value means)",
            ["axis"] + [o.key for o in objectives], body,
        ))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        env_defaults = Settings.from_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        prog="python -m repro.exps dse",
        description="Design-space-exploration sweeps through the "
                    "campaign service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="preview a sweep's point stream")
    expand.add_argument("--spec", required=True, help="SweepSpec JSON file")
    expand.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the expanded points as JSON lines")

    run = sub.add_parser("run", help="execute a sweep and write artifacts")
    run.add_argument("--spec", required=True, help="SweepSpec JSON file")
    run.add_argument("--out", required=True, help="artifact directory")
    run.add_argument("--objective", action="append", metavar="COL:max|min",
                     help="objective column and direction (repeatable)")
    run.add_argument(
        "--service", default=env_defaults.service_addr, metavar="HOST:PORT",
        help="submit to a running campaign daemon instead of an "
             "ephemeral in-process service (cell-tier sweeps only; "
             "default: $EVAL_REPRO_SERVICE)",
    )
    run.add_argument("--chips", type=int, default=env_defaults.chips)
    run.add_argument("--cores", type=int, default=env_defaults.cores)
    run.add_argument("--fc-examples", type=int,
                     default=env_defaults.fc_examples)
    run.add_argument("--seed", type=int, default=env_defaults.seed)
    Settings.add_cli_arguments(run, env_defaults)
    Settings.add_service_arguments(run, env_defaults)

    report = sub.add_parser(
        "report", help="re-analyse a sweep's results.json"
    )
    report.add_argument("--results", required=True,
                        help="results.json (or the sweep output directory)")
    report.add_argument("--objective", action="append",
                        metavar="COL:max|min")
    report.add_argument("--out", default=None,
                        help="rewrite pareto.csv/report.json here")

    args = parser.parse_args(argv)

    if args.command == "expand":
        spec = _load_spec(args.spec)
        points = spec.expand()
        if args.as_json:
            for point in points:
                print(json.dumps(
                    {"index": point.index, "point": point.point_id,
                     "params": {
                         k: list(v) if isinstance(v, tuple) else v
                         for k, v in point.params.items()
                     }},
                    sort_keys=True,
                ))
        else:
            names = spec.param_names()
            names += [n for n in points[0].params if n not in names]
            body = [
                [str(p.index), p.point_id] + [
                    "+".join(p.params[n]) if isinstance(p.params.get(n), tuple)
                    else str(p.params.get(n, ""))
                    for n in names
                ]
                for p in points
            ]
            print(format_table(
                f"{len(points)} points", ["#", "point"] + names, body,
            ))
        return 0

    if args.command == "run":
        try:
            settings = Settings.from_args(args, base=env_defaults)
        except ValueError as exc:
            parser.error(str(exc))
        settings.configure()
        spec = _load_spec(args.spec)
        objectives = _objectives(args, parser)
        from .drive import run_sweep

        result = run_sweep(spec, settings, service=args.service)
        paths = write_artifacts(result, args.out, objectives)
        stats = result.stats
        print(
            f"{stats['points_unique']} points "
            f"({stats['points_deduped']} duplicate), "
            f"{stats['cells_total']} cells: "
            f"{stats['cells_computed']} computed, "
            f"{stats['cells_deduped']} deduped (cache+coalesce)"
        )
        _print_analysis(result.rows, objectives)
        print("artifacts: " + ", ".join(str(p) for p in paths.values()))
        if settings.metrics_out:
            document = obs.metrics_registry().to_dict()
            with open(settings.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"metrics written to {settings.metrics_out}")
        return 0

    # report
    _spec, rows, stats = load_results(args.results)
    objectives = _objectives(args, parser)
    _print_analysis(rows, objectives)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        document = analysis_document(
            rows, objectives, swept_columns(rows), stats=stats
        )
        with (out / "report.json").open("w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {out / 'report.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
