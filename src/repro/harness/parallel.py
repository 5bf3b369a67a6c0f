"""Parallel sweep execution over a ``multiprocessing`` process pool.

Every figure in the reproduction is a grid of *independent*
(configuration, client-count) simulation runs: each run builds its own
:class:`~repro.sim.kernel.Simulator`, seeds its own RNG streams, and
shares no mutable state with its neighbours.  That makes the sweep
embarrassingly parallel -- exactly how Cecchet et al. scaled the real
benchmark by adding client machines.

Design
------
* **Worker warm start.**  Workers are primed by an initializer that
  loads the application, its populated database, and the calibrated
  interaction profiles through the same per-process caches the serial
  path uses (:func:`repro.harness.profiles.get_profiles`).  On
  fork-based platforms the parent warms the caches *before* the pool is
  created, so children inherit them for free; on spawn-based platforms
  the initializer recomputes them once per worker (profiling is seeded,
  so every worker derives byte-identical profiles).

* **Lean tasks.**  An :class:`~repro.harness.experiment.ExperimentSpec`
  embeds the full ``AppProfile`` (megabytes of step tuples).  When the
  spec carries its ``app_name``, the profile is stripped before
  pickling and rehydrated from the worker's cache, so a task costs a
  few hundred bytes on the wire instead of the whole profile.

* **Deterministic merge.**  Tasks are submitted in (configuration,
  client-count) order and results are consumed with ``imap`` (which
  streams results back but preserves submission order), so a parallel
  report is assembled in exactly the order the serial loop would have
  produced -- combined with pinned seeds, reports are bit-identical to
  the serial path.

* **One entry point.**  :func:`run_points` is the only way a list of
  points runs: everything a point carries is picklable
  (:func:`~repro.harness.experiment.measure_point` lists it), so no
  driver folds in the worker, and :func:`parallel_map`,
  :func:`strip_spec` and :func:`rehydrate_spec` have no other caller.

``jobs`` semantics everywhere in the harness: ``None`` or ``1`` means
in-process, in order (no pool, no pickling); ``N > 1`` fans out over
``min(N, len(tasks))`` workers; ``0`` / negative values mean "one
worker per CPU".  The ``REPRO_JOBS`` environment variable supplies the
default for ``python -m repro``.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "default_jobs",
    "effective_jobs",
    "parallel_map",
    "run_points",
    "strip_spec",
    "rehydrate_spec",
]


def default_jobs() -> int:
    """The CLI default: ``REPRO_JOBS`` if set, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}")
    return os.cpu_count() or 1


def effective_jobs(jobs: Optional[int], ntasks: int) -> int:
    """Resolve a ``jobs`` argument against the task count."""
    if jobs is None:
        return 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, ntasks))


# -- worker-side cache warm-up -------------------------------------------------

def _warm_worker(app_names: Tuple[str, ...]) -> None:
    """Pool initializer: pre-load apps, databases and profiles once per
    worker so every task after the first touches only warm caches."""
    from repro.apps import build_app
    from repro.harness.profiles import get_profiles
    for name in app_names:
        build_app(name)
        get_profiles(name)


def parallel_map(func: Callable, tasks: Sequence, jobs: Optional[int] = None,
                 app_names: Iterable[str] = ()) -> list:
    """Map ``func`` over ``tasks`` preserving order.

    ``func`` must be a module-level callable (it is sent to workers by
    reference).  With ``jobs`` of None/1, this is a plain list
    comprehension -- the exact serial code path.
    """
    tasks = list(tasks)
    app_names = tuple(sorted(set(app_names)))
    njobs = effective_jobs(jobs, len(tasks))
    if njobs <= 1:
        return [func(task) for task in tasks]
    # Warm the parent before forking: fork children inherit populated
    # caches and their initializer becomes a no-op.
    _warm_worker(app_names)
    ctx = multiprocessing.get_context()
    with ctx.Pool(processes=njobs, initializer=_warm_worker,
                  initargs=(app_names,)) as pool:
        return list(pool.imap(func, tasks, chunksize=1))


# -- experiment-point fan-out --------------------------------------------------

def strip_spec(spec):
    """Drop the embedded profile when it can be rehydrated by app name."""
    if spec.app_name is not None and spec.profile is not None:
        return replace(spec, profile=None)
    return spec


def rehydrate_spec(spec):
    """Worker side of :func:`strip_spec`: the profile comes back from
    the worker's warm cache."""
    if spec.profile is None:
        if spec.app_name is None:
            raise ValueError(
                "spec has neither a profile nor an app_name to load one")
        from repro.harness.profiles import get_profiles
        spec = replace(
            spec,
            profile=get_profiles(spec.app_name)[spec.config.profile_flavor])
    return spec


def _point_task(spec):
    """Worker entry: rehydrate the spec's profile and run one point."""
    from repro.harness.experiment import run_experiment
    return run_experiment(rehydrate_spec(spec))


def run_points(specs: Sequence, jobs: Optional[int] = None) -> List:
    """Run every spec (one grid point each), returning points in order.

    The only way a list of points runs.  With ``jobs`` > 1 the specs are
    stripped of their profiles and fan out over a process pool; the
    result list order always matches the input order.
    """
    specs = list(specs)
    njobs = effective_jobs(jobs, len(specs))
    if njobs <= 1:
        from repro.harness.experiment import run_experiment
        return [run_experiment(spec) for spec in specs]
    app_names = {spec.app_name for spec in specs if spec.app_name}
    return parallel_map(_point_task, [strip_spec(s) for s in specs],
                        njobs, app_names)
