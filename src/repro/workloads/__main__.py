"""Command-line entry point for the workload subsystem.

Usage::

    python -m repro.workloads ingest trace.jsonl --name web-tier \\
        --out profiles.json
    python -m repro.workloads generate bursty:4:42 --out family.json

``ingest`` measures :class:`~repro.microarch.workloads.WorkloadProfile`
objects out of instruction traces; ``generate`` emits a deterministic
parameterized family.

Profile files written by ``--out`` are the :func:`~repro.workloads.
ingest.save_profiles` format and feed straight into
``python -m repro.serve submit --profiles FILE``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .. import __version__, obs
from ..config import Settings
from ..exps.reporting import format_table
from .families import (
    DEFAULT_SEED,
    DEFAULT_SIZE,
    family_names,
    parse_family_ref,
)
from .ingest import DEFAULT_WINDOW, ingest_trace, save_profiles


def _profile_rows(profiles):
    return [
        [
            p.name,
            p.domain,
            str(len(p.phases)),
            f"{p.dep_mean_distance:.2f}",
            f"{p.l2_miss_rate:.4f}",
            p.content_hash()[:12],
        ]
        for p in profiles
    ]


def _print_profiles(title: str, profiles) -> None:
    print(format_table(
        title,
        ["Profile", "Domain", "Phases", "Dep dist", "L2 miss", "Hash"],
        _profile_rows(profiles),
    ))


def _maybe_save(profiles, path) -> None:
    if path:
        save_profiles(profiles, path)
        print(f"{len(profiles)} profile(s) written to {path}")


def _dump_metrics(settings: Settings) -> None:
    if settings.metrics_out:
        document = obs.metrics_registry().to_dict()
        with open(settings.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics written to {settings.metrics_out}")


def _run_ingest(args: argparse.Namespace, settings: Settings) -> int:
    if args.name and len(args.trace) > 1:
        print("error: --name only applies to a single trace", file=sys.stderr)
        return 2
    profiles = []
    for path in args.trace:
        name = args.name or path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        try:
            profiles.append(ingest_trace(
                path,
                name=name,
                format=args.format,
                window=args.window,
                phase_threshold=args.phase_threshold,
                max_phases=args.max_phases,
            ))
        except (OSError, ValueError) as exc:
            print(f"error: cannot ingest {path}: {exc}", file=sys.stderr)
            return 1
    _print_profiles("ingested profiles", profiles)
    _maybe_save(profiles, args.out)
    return 0


def _run_generate(args: argparse.Namespace, settings: Settings) -> int:
    try:
        family, size, seed = parse_family_ref(args.family)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profiles = family.generate(size=size, seed=seed)
    _print_profiles(f"family {family.name} (seed {seed})", profiles)
    _maybe_save(profiles, args.out)
    return 0


def main(argv=None) -> int:
    try:
        env_defaults = Settings.from_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Workload profiles: ingest traces, generate families.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest_p = sub.add_parser(
        "ingest", help="measure profiles out of instruction traces"
    )
    ingest_p.add_argument(
        "trace", nargs="+",
        help="trace file(s): .jsonl/.ndjson, .csv, or a registered adapter "
             "format via --format",
    )
    ingest_p.add_argument(
        "--name", default=None,
        help="profile name (single trace only; default: the file stem)",
    )
    ingest_p.add_argument("--format", default=None, metavar="FMT")
    ingest_p.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW, metavar="N",
        help=f"instructions per phase-detection window "
             f"(default {DEFAULT_WINDOW})",
    )
    ingest_p.add_argument(
        "--phase-threshold", type=float, default=0.25, metavar="D",
        help="BBV Manhattan-distance threshold for a new phase group",
    )
    ingest_p.add_argument("--max-phases", type=int, default=8, metavar="N")
    ingest_p.add_argument("--out", default=None, metavar="FILE")

    generate_p = sub.add_parser(
        "generate", help="emit a deterministic parameterized family"
    )
    generate_p.add_argument(
        "family", metavar="NAME[:SIZE[:SEED]]",
        help=f"family reference (families: {', '.join(family_names())}; "
             f"defaults {DEFAULT_SIZE} members, seed {DEFAULT_SEED})",
    )
    generate_p.add_argument("--out", default=None, metavar="FILE")

    args = parser.parse_args(argv)
    try:
        settings = Settings.from_args(args, base=env_defaults)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    settings.configure()
    try:
        if args.command == "ingest":
            return _run_ingest(args, settings)
        if args.command == "generate":
            return _run_generate(args, settings)
        raise AssertionError(f"unhandled command {args.command}")
    finally:
        _dump_metrics(settings)


if __name__ == "__main__":
    sys.exit(main())
