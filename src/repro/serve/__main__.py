"""Command-line entry point: campaign-service daemon + client subcommands.

Usage::

    python -m repro.serve daemon --addr 127.0.0.1:7571 --chips 20 --jobs 4
    python -m repro.serve submit --env TS --env TS+ASV --mode Exh-Dyn --wait
    python -m repro.serve status job-1
    python -m repro.serve result job-1 --timeout 600
    python -m repro.serve cancel job-1
    python -m repro.serve ping
    python -m repro.serve shutdown

Every client subcommand takes ``--addr HOST:PORT`` (default:
``$EVAL_REPRO_SERVICE`` or ``127.0.0.1:7571``); the daemon binds the same
address.  Daemon scale/engine/observability knobs mirror the
``python -m repro.exps`` flags, plus the ``--service-*`` supervision
policy (see :meth:`repro.config.Settings.add_service_arguments`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .. import __version__, obs
from ..config import Settings
from ..exps.reporting import format_table
from .daemon import DEFAULT_ADDRESS, ServiceClient, ServiceDaemon
from .protocol import spec_from_wire, summaries_from_wire
from .service import CampaignService, JobFailedError, ServiceError


def _print_cells(cells) -> None:
    summaries = summaries_from_wire(cells)
    rows = [
        [env, mode, f"{s.f_rel:.3f}", f"{s.perf_rel:.3f}", f"{s.power:.1f}"]
        for (env, mode), s in sorted(summaries.items())
    ]
    print(format_table(
        "campaign result",
        ["Environment", "Mode", "f_rel", "perf_rel", "power (W)"],
        rows,
    ))


def _wait_and_print(client: ServiceClient, job_id: str,
                    timeout: Optional[float]) -> int:
    try:
        response = client.result(job_id, timeout=timeout)
    except JobFailedError as exc:
        print(f"{job_id} FAILED:", file=sys.stderr)
        for failure in exc.failures:
            print(f"  {failure.to_dict()}", file=sys.stderr)
        return 1
    except TimeoutError:
        print(f"{job_id} still pending (see: python -m repro.serve status "
              f"{job_id})", file=sys.stderr)
        return 2
    _print_cells(response["cells"])
    return 0


def _run_daemon(args: argparse.Namespace, env_defaults: Settings) -> int:
    from ..exps.runner import ExperimentRunner

    try:
        settings = Settings.from_args(args, base=env_defaults)
        runner = ExperimentRunner.from_settings(settings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    settings.configure()
    service = CampaignService(runner, settings=settings)
    daemon = ServiceDaemon(service, address=args.addr)
    print(f"campaign service listening on {daemon.address}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        service.close()
    finally:
        if settings.metrics_out:
            document = obs.metrics_registry().to_dict()
            with open(settings.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"metrics written to {settings.metrics_out}")
    return 0


def main(argv=None) -> int:
    try:
        env_defaults = Settings.from_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    default_addr = env_defaults.service_addr or DEFAULT_ADDRESS
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="EVAL campaign service: daemon + client subcommands.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_addr(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument(
            "--addr", default=default_addr, metavar="HOST:PORT",
            help=f"daemon address (default: $EVAL_REPRO_SERVICE or "
                 f"{DEFAULT_ADDRESS})",
        )
        return p

    daemon_p = with_addr(sub.add_parser(
        "daemon", help="run the campaign-service daemon on this address"
    ))
    daemon_p.add_argument("--chips", type=int, default=env_defaults.chips)
    daemon_p.add_argument("--cores", type=int, default=env_defaults.cores)
    daemon_p.add_argument(
        "--fc-examples", type=int, default=env_defaults.fc_examples
    )
    daemon_p.add_argument("--seed", type=int, default=env_defaults.seed)
    Settings.add_cli_arguments(daemon_p, env_defaults)
    Settings.add_service_arguments(daemon_p, env_defaults)

    submit_p = with_addr(sub.add_parser(
        "submit", help="submit a campaign; prints the job id"
    ))
    submit_p.add_argument(
        "--env", action="append", required=True, metavar="NAME",
        help="environment name (repeatable), e.g. TS, TS+ASV, Baseline",
    )
    submit_p.add_argument(
        "--mode", action="append", metavar="MODE",
        help="adaptation mode (repeatable; default Exh-Dyn): "
             "Static, Fuzzy-Dyn, Exh-Dyn",
    )
    submit_p.add_argument(
        "--workload", action="append", metavar="NAME",
        help="restrict to these suite workloads (repeatable)",
    )
    submit_p.add_argument(
        "--profiles", default=None, metavar="FILE",
        help="also run the profiles saved in FILE (the repro.workloads "
             "--out format); non-suite profiles cross the wire inline",
    )
    submit_p.add_argument("--priority", type=int, default=0)
    submit_p.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print the result table",
    )
    submit_p.add_argument("--timeout", type=float, default=None)

    for name, help_text in (
        ("status", "print a job's progress snapshot as JSON"),
        ("progress", "status plus the job's obs-metrics slice"),
        ("result", "wait for a job and print its result table"),
        ("cancel", "withdraw a live job"),
    ):
        p = with_addr(sub.add_parser(name, help=help_text))
        p.add_argument("job_id")
        if name == "result":
            p.add_argument("--timeout", type=float, default=None)

    with_addr(sub.add_parser("ping", help="print the service stats snapshot"))
    with_addr(sub.add_parser("shutdown", help="stop the daemon"))

    args = parser.parse_args(argv)
    if args.command == "daemon":
        return _run_daemon(args, env_defaults)
    try:
        return _run_client(args)
    except ServiceError as exc:
        print(f"python -m repro.serve: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"python -m repro.serve: cannot reach daemon at {args.addr}: "
            f"{exc}",
            file=sys.stderr,
        )
        return 1


def _run_client(args) -> int:
    client = ServiceClient(args.addr)
    if args.command == "submit":
        workloads = list(args.workload or [])
        if args.profiles:
            from ..workloads.ingest import load_profiles
            from .protocol import workloads_to_wire

            workloads.extend(workloads_to_wire(load_profiles(args.profiles)))
        spec = spec_from_wire({
            "environments": args.env,
            "modes": args.mode or ["Exh-Dyn"],
            "workloads": workloads or None,
        })
        job_id = client.submit(spec, priority=args.priority)
        print(job_id)
        if args.wait:
            return _wait_and_print(client, job_id, args.timeout)
        return 0
    if args.command in ("status", "progress"):
        response = client.request(args.command, job_id=args.job_id)
        response.pop("ok", None)
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    if args.command == "result":
        return _wait_and_print(client, args.job_id, args.timeout)
    if args.command == "cancel":
        cancelled = client.cancel(args.job_id)
        print("cancelled" if cancelled else "already finished")
        return 0
    if args.command == "ping":
        response = client.ping()
        response.pop("ok", None)
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0
    if args.command == "shutdown":
        client.shutdown()
        print("daemon stopped")
        return 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
