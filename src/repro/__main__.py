"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
figures              list the reproducible figures
figure NN [--full] [--jobs N] [--trace] [--csv PATH] [--config NAME]
                     regenerate one figure by number ("6", "06" and
                     "fig06" all work) and check its findings;
                     ``--trace`` appends bottleneck attribution
trace FIG [--config NAME] [--clients N] [--chrome PATH] [--flame]
                     re-run figure points with request-level tracing
                     (default: each configuration's peak); print
                     bottleneck reports, optionally write Chrome trace
                     JSON and a flame summary
calibrate            print analytic saturation points vs paper targets
faults [--tier T]    crash/restart one tier mid-run, report availability
scale [--replicas N] scale-out experiment: peak throughput vs database
                     read replicas (repro.cluster)
slo [--no-chaos | --chaos-only]
                     open-loop overload experiment: offered-load sweep
                     through saturation + flash-crowd/crash chaos run
                     (repro.overload)
cache [--mode M] [--granularity G]
                     cache-tier experiment: hit rate and throughput vs
                     cache capacity x node count (repro.cache)
shard                sharding vs replication head-to-head at equal
                     database box count (repro.shard)
version              print the package version

The experiment commands share one set of flags, declared once in
``FLAGS``: ``--app --mix --config --scale --seed --jobs --trace``.
``--jobs N`` fans the independent simulation runs out over N worker
processes (default: ``REPRO_JOBS``, else one per CPU; ``--jobs 1`` runs
in-process); output is bit-identical for every N under pinned seeds.
``--config``, ``--mix`` and the figure id are validated before any
work, so a typo exits (code 2) with the list of known names instead of
costing a run.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from repro.apps import APP_NAMES, mix_names
from repro.topology.spec import (
    CACHE_GRANULARITIES,
    CACHE_MODES,
    validate_config_names,
)

#: The flags experiment commands share: one declaration each.  A command
#: row lists the ones it takes; ``--scale``'s default is per command.
FLAGS = {
    "--app": dict(default="bookstore", choices=APP_NAMES),
    "--mix": dict(action="append", metavar="NAME",
                  help="workload mix (default: the experiment's choice "
                       "for the app)"),
    "--config": dict(action="append", metavar="NAME",
                     help="configuration to run, or to build the "
                          "experiment's deployments on (default: the "
                          "experiment's choice)"),
    "--scale": dict(choices=("tiny", "quick", "full"),
                    help="grid size and phase lengths"),
    "--seed": dict(type=int, default=42),
    "--jobs": dict(type=int, default=None, metavar="N",
                   help="worker processes for the sweep (default: "
                        "REPRO_JOBS, else one per CPU; 1 = in-process)"),
    "--trace": dict(action="store_true",
                    help="re-run the experiment's probe points with "
                         "request tracing; append bottleneck verdicts"),
    "--full": dict(action="store_true", help="paper-scale grid"),
}


def _at_least(minimum):
    """An argparse type: an integer no smaller than ``minimum``, so an
    impossible count is refused before any application is built."""
    def count(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return count


def _figures(__args) -> int:
    from repro.experiments.registry import FIGURES
    print("figure  kind        workload")
    for figure_id in sorted(FIGURES):
        spec, kind = FIGURES[figure_id]
        print(f"{figure_id}   {kind:<10}  {spec.app_name}/{spec.mix_name}")
    print("\nrun one with:  python -m repro figure 5 [--full] [--trace]")
    return 0


def _figure(args) -> int:
    from repro.experiments import registry
    report = registry.run_figure(args.figure, full=args.full, jobs=args.jobs,
                                 configurations=args.config)
    print(registry.render_figure(args.figure, report, full=args.full,
                                 trace=args.trace))
    if args.csv:
        report.save_csv(args.csv)
        print(f"\n[csv written to {args.csv}]")
    return 0


def _trace(args) -> int:
    from repro.experiments import registry, trace
    from repro.obs import flame_summary, render_report, write_chrome_trace
    if args.clients is None:
        points = trace.trace_figure_peaks(args.figure, registry.run_figure(
            args.figure, full=args.full, jobs=args.jobs,
            configurations=args.config), full=args.full)
    else:
        from repro.topology.configs import configuration_names
        points = {name: trace.trace_figure_point(
                      args.figure, name, args.clients, full=args.full)
                  for name in args.config or configuration_names()}
    for i, point in enumerate(points.values()):
        if i:
            print()
        print(render_report(point.bottleneck_report))
        if args.flame:
            print()
            print(flame_summary(point.tracer.requests))
    if args.chrome:
        # One file; when several configurations were traced the last one
        # wins (a merged export would interleave unrelated runs).
        last = list(points.values())[-1]
        n = write_chrome_trace(last.tracer, args.chrome)
        print(f"\n[chrome trace: {n} events -> {args.chrome}]")
    return 0


def _calibrate(__args) -> int:
    from repro.harness.calibrate import calibration_report
    print(calibration_report())
    return 0


def _version(__args) -> int:
    import repro
    print(repro.__version__)
    return 0


def _experiment(args) -> int:
    """Print an extension experiment: every driver takes the shared
    arguments under these names, plus the command's own (``--trace`` if
    its row has it, and the row's ``args``) under theirs."""
    row = COMMANDS[args.command]
    own = [flag.lstrip("-").replace("-", "_")
           for flag in (*row["flags"], *row.get("args", ()))
           if flag not in _EXPERIMENT]
    driver = getattr(import_module(f"repro.experiments.{args.module}"),
                     args.driver)
    print(driver(scale=args.scale, app_name=args.app, mixes=args.mix,
                 configs=args.config, seed=args.seed, jobs=args.jobs,
                 **{name: getattr(args, name) for name in own}).render())
    return 0


_EXPERIMENT = ("--app", "--mix", "--config", "--scale", "--seed", "--jobs")

#: One row per command: its handler (default: ``_experiment``), help
#: text, the shared ``flags`` it takes, its own ``args``, and -- every
#: other key -- parser defaults.  An experiment row sets ``scale`` (its
#: default ``--scale``), ``module`` and ``driver`` (the function
#: ``_experiment`` calls; the module's ``DEFAULT_MIXES[app]`` is the
#: default ``--mix``), ``one_mix`` / ``one_config`` (the command takes a
#: single mix / a single base configuration, not a repeatable list) and
#: ``any_topology`` (``--config`` accepts the whole topology grammar,
#: not just the six paper names).
COMMANDS = {
    "figures": dict(func=_figures, help="list reproducible figures"),
    "figure": dict(
        func=_figure, help="regenerate one figure and check its findings",
        flags=("--full", "--trace", "--config", "--jobs"),
        args={"figure": dict(help="figure id: 6, 06 and fig06 all work"),
              "--csv": dict(metavar="PATH",
                            help="also write the sweep data as CSV")}),
    "trace": dict(
        func=_trace, help="re-run figure points with request-level "
                          "tracing and print bottleneck attribution",
        flags=("--config", "--full", "--jobs"),
        args={"figure": dict(help="figure id: 6, 06 and fig06 all work"),
              "--clients": dict(type=_at_least(1), metavar="N",
                                help="client count to trace (default: each "
                                     "configuration's peak, found by the "
                                     "untraced sweep --jobs fans out)"),
              "--chrome": dict(metavar="PATH",
                               help="write the retained span trees as "
                                    "Chrome trace-event JSON"),
              "--flame": dict(action="store_true",
                              help="also print a flame summary (where "
                                   "virtual time went, by span path)")}),
    "calibrate": dict(func=_calibrate,
                      help="analytic demands vs paper targets"),
    "faults": dict(
        help="failover experiment: crash and restart one tier mid-run "
             "for all six configurations",
        flags=_EXPERIMENT, scale="quick", module="ext_failover",
        driver="run_failover", one_mix=True,
        args={"--tier": dict(default="db",
                             choices=("web", "servlet", "ejb", "db"),
                             help="tier to crash (default: db)")}),
    "scale": dict(
        help="scale-out experiment: peak throughput vs database read "
             "replicas for CPU-bound and lock-bound mixes",
        flags=_EXPERIMENT + ("--trace",), scale="quick",
        module="ext_scaleout", driver="run_scaleout", one_config=True,
        args={"--replicas": dict(
            action="append", type=_at_least(0), metavar="N",
            help="replica count to sweep (repeatable; default: the "
                 "scale level's grid)")}),
    "slo": dict(
        help="open-loop overload experiment: goodput/latency vs offered "
             "load through saturation, plus a flash-crowd + replica-crash "
             "chaos run",
        flags=_EXPERIMENT, scale="tiny", module="ext_slo",
        driver="run_slo", one_mix=True,
        args={"--no-chaos": dict(
                  action="store_true",
                  help="skip the flash-crowd + crash scenario"),
              "--chaos-only": dict(action="store_true",
                                   help="run only the chaos scenario")}),
    "cache": dict(
        help="cache-tier experiment: hit rate and throughput vs cache "
             "capacity x node count, with traced bottleneck-migration "
             "verdicts",
        flags=_EXPERIMENT + ("--trace",), scale="tiny", module="ext_cache",
        driver="run_cache", one_config=True, any_topology=True,
        args={"--mode": dict(default="sharded", choices=CACHE_MODES,
                             help="key placement across cache nodes"),
              "--granularity": dict(
                  default="key", choices=CACHE_GRANULARITIES,
                  help="invalidation granularity on writes")}),
    "shard": dict(
        help="sharding vs replication head-to-head: spend the same "
             "database box budget as read replicas, shard primaries, or "
             "both",
        flags=_EXPERIMENT + ("--trace",), scale="quick",
        module="ext_shard", driver="run_shard", one_mix=True,
        one_config=True),
    "version": dict(func=_version, help="print version"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Cecchet et al., Middleware 2003")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in COMMANDS.items():
        defaults = dict(row)
        text = defaults.pop("help")
        cmd = sub.add_parser(name, help=text, description=text)
        for flag in defaults.pop("flags", ()):
            cmd.add_argument(flag, **FLAGS[flag])
        for arg, spec in defaults.pop("args", {}).items():
            cmd.add_argument(arg, **spec)
        cmd.set_defaults(**{"func": _experiment, **defaults})
    return parser


def _problem(args):
    """Validate the figure id, ``--config`` / ``--mix`` and
    ``REPRO_JOBS``, and normalize them, before any application is
    built.  Returns the error text (the caller exits 2) or None."""
    if hasattr(args, "figure"):
        from repro.experiments.registry import normalize_figure_id
        try:
            args.figure = normalize_figure_id(args.figure)
        except KeyError:
            return (f"unknown figure {args.figure!r}; try 'python -m repro "
                    f"figures'")
    for flag, one in (("config", "one_config"), ("mix", "one_mix")):
        if getattr(args, one, False) and len(getattr(args, flag) or ()) > 1:
            return f"takes one --{flag}"
    if getattr(args, "config", None):
        errors = validate_config_names(
            args.config, paper_only=not getattr(args, "any_topology", False))
        if errors:
            return "\n".join(errors)
        args.config = (args.config[0] if getattr(args, "one_config", False)
                       else tuple(args.config))
    if hasattr(args, "module"):
        known = mix_names(args.app)
        for mix in args.mix or ():
            if mix not in known:
                return (f"unknown {args.app} mix {mix!r}; "
                        f"have {', '.join(known)}")
    if getattr(args, "jobs", 0) is None:
        from repro.harness.parallel import default_jobs
        try:
            args.jobs = default_jobs()
        except ValueError as exc:
            return str(exc)
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _problem(args)
    if problem is not None:
        print(f"repro {args.command}: error: {problem}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
