"""Command-line entry point: regenerate any paper figure/table.

Usage::

    python -m repro.exps fig1|fig2|fig8|fig9|fig10|fig11|fig12|fig13|table2|area
    python -m repro.exps fig10 --chips 20 --cores 2
    python -m repro.exps fig10 fig11 --chips 100 --cores 4 --jobs 8 \
        --cache-dir ~/.cache/eval-repro
    python -m repro.exps dse run --spec sweep.json --out sweep-out/

``dse`` delegates to the design-space-exploration CLI
(:mod:`repro.exps.dse.cli`: declarative sweeps -> campaign service ->
Pareto analytics).

Figures 10-12 share one ladder computation; requesting several of them in
one invocation reuses it.  ``--jobs N`` shards the Monte-Carlo population
across N worker processes (results are bit-identical to ``--jobs 1``);
``--cache-dir`` persists measurements, trained fuzzy banks, and suite
summaries across invocations; ``--no-cache`` disables the disk cache.
``--log-level/--log-json`` control the ``repro`` logger and
``--metrics-out PATH`` writes the merged fleet-wide metrics registry as
JSON at exit.  ``--service HOST:PORT`` delegates the ladder targets to a
running campaign daemon (``python -m repro.serve daemon``) instead of
computing them in-process.  Every flag's default comes from the
corresponding ``EVAL_REPRO_*`` environment variable (see
:mod:`repro.config`).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .. import __version__, obs
from ..config import Settings
from .area_table import area_rows, run_area_table
from .fig1_paths import run_fig1
from .fig2_taxonomy import run_fig2
from .fig8_tradeoff import run_fig8
from .fig9_surfaces import run_fig9
from .fig13_outcomes import OUTCOME_ORDER, run_fig13
from .ladder import run_ladder
from .reporting import format_series, format_table
from .retiming_comparison import run_retiming_comparison
from .runner import ExperimentRunner, RunnerConfig
from .sensitivity import run_sensitivity
from .table2_accuracy import run_table2

LADDER_TARGETS = {"fig10", "fig11", "fig12"}
ALL_TARGETS = [
    "fig1", "fig2", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "table2", "area", "retiming", "sensitivity",
]


def _print_ladder(result, target: str) -> None:
    headers = ["Environment", "Static", "Fuzzy-Dyn", "Exh-Dyn"]
    if target == "fig10":
        print(format_table("Fig 10: relative frequency", headers,
                           result.frequency_rows()))
    elif target == "fig11":
        print(format_table("Fig 11: relative performance", headers,
                           result.performance_rows()))
    else:
        print(format_table("Fig 12: power (W)", headers, result.power_rows()))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "dse":
        from .dse.cli import main as dse_main

        return dse_main(argv[1:])
    env_defaults = Settings.from_env()
    parser = argparse.ArgumentParser(
        prog="python -m repro.exps",
        description="Regenerate EVAL paper figures/tables.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument("targets", nargs="+", choices=ALL_TARGETS + ["all"])
    parser.add_argument(
        "--service",
        default=env_defaults.service_addr,
        metavar="HOST:PORT",
        help="delegate the ladder targets (fig10-12) to a running "
             "campaign daemon (default: $EVAL_REPRO_SERVICE)",
    )
    parser.add_argument("--chips", type=int, default=env_defaults.chips)
    parser.add_argument("--cores", type=int, default=env_defaults.cores)
    parser.add_argument(
        "--fc-examples", type=int, default=env_defaults.fc_examples
    )
    parser.add_argument("--seed", type=int, default=env_defaults.seed)
    Settings.add_cli_arguments(parser, env_defaults)
    args = parser.parse_args(argv)
    try:
        settings = Settings.from_args(args, base=env_defaults)
        RunnerConfig.from_settings(settings)  # a bad scale fails here
    except ValueError as exc:
        parser.error(str(exc))
    settings.configure()

    targets = ALL_TARGETS if "all" in args.targets else args.targets
    runner = None
    ladder = None

    def get_runner():
        nonlocal runner
        if runner is None:
            runner = ExperimentRunner.from_settings(settings)
        return runner

    for target in targets:
        print(f"\n=== {target} ===")
        if target in LADDER_TARGETS:
            if ladder is None:
                if settings.service_addr:
                    from ..serve import run_ladder_remote

                    ladder = run_ladder_remote(settings.service_addr)
                else:
                    ladder = run_ladder(get_runner(), settings=settings)
            _print_ladder(ladder, target)
        elif target == "fig1":
            result = run_fig1()
            print(f"T_nom {result.t_nominal * 1e12:.1f} ps -> "
                  f"T_var {result.t_varied * 1e12:.1f} ps")
            print(format_series("processor PE vs f_rel",
                                result.freqs / 4e9, result.pe_pipeline))
        elif target == "fig2":
            result = run_fig2()
            print(f"f_var {result.f_var() / 1e9:.2f} GHz, "
                  f"f_opt {result.tolerance.f_opt / 1e9:.2f} GHz")
            idx = int(np.argmin(np.abs(result.freqs - result.tolerance.f_opt)))
            print(format_table(
                "PE at f_opt", ["transform", "PE"],
                [["before", f"{result.pe_before[idx]:.2e}"],
                 ["tilt", f"{result.pe_tilt[idx]:.2e}"],
                 ["shift", f"{result.pe_shift[idx]:.2e}"],
                 ["reshape", f"{result.pe_reshape[idx]:.2e}"]],
            ))
        elif target == "fig8":
            result = run_fig8()
            print(f"Baseline fR {result.baseline_f_rel():.3f}; "
                  f"TS opt {result.optimum('ts')}; "
                  f"reshaped opt {result.optimum('reshaped')}")
        elif target == "fig9":
            result = run_fig9()
            print(f"min PE spans {result.min_pe.min():.1e} .. "
                  f"{result.min_pe.max():.1e} over "
                  f"{result.min_pe.shape} (power x freq) grid")
        elif target == "fig13":
            result = run_fig13(get_runner(), settings=settings)
            print(format_table(
                "outcomes (%)",
                ["Opt", "Env"] + OUTCOME_ORDER,
                result.rows(),
            ))
        elif target == "table2":
            result = run_table2(get_runner())
            print(format_table(
                "|Fuzzy - Exhaustive|",
                ["Param", "Env", "memory", "mixed", "logic"],
                result.rows(),
            ))
        elif target == "area":
            print(format_table("area overhead (%)", ["Source", "%"],
                               area_rows(run_area_table())))
        elif target == "retiming":
            result = run_retiming_comparison(n_chips=settings.chips)
            print(format_table(
                "EVAL vs dynamic retiming",
                ["scheme", "f_rel", "gain"],
                result.rows(),
            ))
        elif target == "sensitivity":
            result = run_sensitivity(n_chips=max(2, settings.chips // 3))
            print(format_table(
                "variation severity sweep",
                ["sigma/mu", "phi", "Baseline", "EVAL", "recovered"],
                result.rows(),
            ))

    if settings.metrics_out:
        document = obs.metrics_registry().to_dict()
        with open(settings.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nmetrics written to {settings.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
