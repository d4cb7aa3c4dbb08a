"""Deterministic checkpoint / resume for long-running tolerance ensembles.

A 10⁵-sample Monte Carlo run is hours of solves; a crash at sample 99 000
should not restart at sample 0.  :func:`checkpointed_ensemble_sweep` is the
checkpointing preset of the shard pipeline (:mod:`repro.montecarlo.engine`):
this module holds only the file format and the resume logic.  The run state
is serialized after every shard — atomically, via a temporary file and
:func:`os.replace`, so a kill at any instant leaves either the previous
checkpoint or the new one, never a torn file.

Determinism is the design constraint, not an afterthought:

* every sample's element values are drawn **up front** from the seeded
  generator (:meth:`~repro.montecarlo.space.ParameterSpace.sample_values`),
  so shard ``k`` sees exactly the values it would have seen in an
  uninterrupted run;
* both batched dense kernels are batch-size invariant and the sparse /
  resilient paths solve sample-by-sample, so a shard's response rows are
  bit-for-bit the rows of the full run;
* the pipeline's sink merges each shard's :class:`EnsembleStatistics` in
  fixed shard order, starting from the restored state, so a resumed run
  replays the identical sequence of floating-point additions.

Together: **kill + resume is bit-identical** to never having been killed —
same responses, same statistics, same quarantine report.

Checkpoints carry the circuit fingerprint, the parameter-space key, the
sampler seed and the solver configuration; resuming against a mismatched
setup raises :class:`~repro.errors.CheckpointError` instead of silently
mixing two different runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import zipfile
import zlib
from typing import Optional

import numpy as np

from ..engine.resilience import (SweepReport, merge_shard_report,
                                 report_from_json, report_to_json)
from ..errors import CheckpointError
from .engine import (_SUPERVISED_DEFAULTS, EnsembleResult, _resolve,
                     _ShardSink)
from .space import ParameterSpace
# EnsembleStatistics grew histogram / weight extensions and moved to
# repro.montecarlo.statistics with the other streaming estimators; this
# re-export keeps every historical import path working.
from .statistics import EnsembleStatistics

__all__ = ["EnsembleStatistics", "CheckpointedRun",
           "checkpointed_ensemble_sweep", "checkpoint_info"]

#: On-disk format version; bumped on any incompatible layout change.
#: Streaming runs (``store_responses=False``) add *optional* fields —
#: weight totals, histogram counts — which absent readers simply ignore,
#: so the version stays 1.
_FORMAT_VERSION = 1


@dataclasses.dataclass
class CheckpointedRun:
    """Outcome of one :func:`checkpointed_ensemble_sweep` call.

    ``finished`` is False when ``max_shards`` stopped the run early (the
    checkpoint then holds everything needed to resume); ``ensemble`` is the
    full :class:`~repro.montecarlo.engine.EnsembleResult` once finished and
    ``None`` before.  ``resumed_from`` counts the samples that were already
    in the checkpoint when this call started.
    """

    finished: bool
    completed: int
    total: int
    resumed_from: int
    statistics: EnsembleStatistics
    report: Optional[SweepReport]
    path: str
    ensemble: Optional[EnsembleResult] = None


def _space_key_digest(space) -> str:
    """Content hash of the parameter space (names, nominals, tolerances)."""
    digest = hashlib.sha256()
    digest.update(repr(space.key()).encode("utf-8"))
    return digest.hexdigest()


# Nothing here calls it: perfbench/layers.py hooks this name.
_merge_shard_report = merge_shard_report


def _save_checkpoint(path, *, fingerprint, space_digest, seed, samples,
                     shard_size, solver, solver_used, method, on_failure,
                     frequencies, completed, responses, statistics, report,
                     store_responses=True):
    """Atomically write the run state: tmp file + :func:`os.replace`.

    Streaming runs persist accumulators only: ``responses`` is a zero-row
    array and the extra weight / histogram fields of the extended
    :class:`~repro.montecarlo.statistics.EnsembleStatistics` ride along so
    a resumed run restores the identical accumulator state.
    """
    temporary = os.fspath(path) + ".tmp"
    histogram = (statistics.histogram if statistics.histogram is not None
                 else np.zeros((0, 0)))
    with open(temporary, "wb") as handle:
        np.savez(
            handle,
            version=np.array(_FORMAT_VERSION),
            fingerprint=np.array(fingerprint),
            space_digest=np.array(space_digest),
            seed=np.array(int(seed)),
            samples=np.array(int(samples)),
            shard_size=np.array(int(shard_size)),
            solver=np.array(solver),
            solver_used=np.array(solver_used),
            method=np.array(method),
            on_failure=np.array(on_failure),
            store_responses=np.array(bool(store_responses)),
            frequencies=np.asarray(frequencies, dtype=float),
            completed=np.array(int(completed)),
            responses=(responses[:completed] if store_responses
                       else np.zeros((0, len(frequencies)), dtype=complex)),
            stats_count=np.array(int(statistics.count)),
            stats_sum_db=statistics.sum_db,
            stats_sumsq_db=statistics.sumsq_db,
            stats_min_db=statistics.min_db,
            stats_max_db=statistics.max_db,
            stats_weight_sum=np.array(float(statistics.weight_sum)),
            stats_weight_sumsq=np.array(float(statistics.weight_sumsq)),
            stats_max_weight=np.array(float(statistics.max_weight)),
            stats_histogram_bins=np.array(int(statistics.histogram_bins)),
            stats_histogram_low_db=np.array(
                float(statistics.histogram_low_db)),
            stats_histogram_high_db=np.array(
                float(statistics.histogram_high_db)),
            stats_histogram=histogram,
            report_json=np.array(report_to_json(report)),
        )
    os.replace(temporary, path)


def _load_checkpoint(path):
    """Read a checkpoint file into a plain dict (strings unwrapped).

    Any way the bytes on disk can be wrong — not a zip at all (wrong magic),
    truncated mid-write (a torn copy from a foreign machine; ``os.replace``
    only protects writes on the *same* filesystem), a member that fails CRC
    or decompression — must surface as :class:`CheckpointError`, never as a
    silent restart-from-zero or a raw ``zipfile``/``zlib`` traceback.
    """
    try:
        with np.load(path, allow_pickle=False) as archive:
            state = {key: archive[key] for key in archive.files}
    except (OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile, zlib.error) as error:
        raise CheckpointError(
            f"cannot read ensemble checkpoint {path!r}: {error}") from error
    try:
        unpacked = {
            "version": int(state["version"]),
            "fingerprint": str(state["fingerprint"]),
            "space_digest": str(state["space_digest"]),
            "seed": int(state["seed"]),
            "samples": int(state["samples"]),
            "shard_size": int(state["shard_size"]),
            "solver": str(state["solver"]),
            "solver_used": str(state["solver_used"]),
            "method": str(state["method"]),
            "on_failure": str(state["on_failure"]),
            "frequencies": np.asarray(state["frequencies"], dtype=float),
            "completed": int(state["completed"]),
            "responses": np.asarray(state["responses"], dtype=complex),
            "stats_count": int(state["stats_count"]),
            "stats_sum_db": np.asarray(state["stats_sum_db"], dtype=float),
            "stats_sumsq_db": np.asarray(state["stats_sumsq_db"],
                                         dtype=float),
            "stats_min_db": np.asarray(state["stats_min_db"], dtype=float),
            "stats_max_db": np.asarray(state["stats_max_db"], dtype=float),
            "report_json": str(state["report_json"]),
        }
        # Streaming-era fields are optional: a PR 7/9 checkpoint predating
        # them loads as a stored-responses run with no histogram and the
        # count-derived weight totals.
        unpacked["store_responses"] = bool(
            state["store_responses"]) if "store_responses" in state else True
        unpacked["stats_weight_sum"] = (
            float(state["stats_weight_sum"]) if "stats_weight_sum" in state
            else float(unpacked["stats_count"]))
        unpacked["stats_weight_sumsq"] = (
            float(state["stats_weight_sumsq"])
            if "stats_weight_sumsq" in state
            else float(unpacked["stats_count"]))
        unpacked["stats_max_weight"] = (
            float(state["stats_max_weight"]) if "stats_max_weight" in state
            else (1.0 if unpacked["stats_count"] else 0.0))
        unpacked["stats_histogram_bins"] = (
            int(state["stats_histogram_bins"])
            if "stats_histogram_bins" in state else 0)
        unpacked["stats_histogram_low_db"] = (
            float(state["stats_histogram_low_db"])
            if "stats_histogram_low_db" in state else 0.0)
        unpacked["stats_histogram_high_db"] = (
            float(state["stats_histogram_high_db"])
            if "stats_histogram_high_db" in state else 1.0)
        unpacked["stats_histogram"] = (
            np.asarray(state["stats_histogram"], dtype=float)
            if "stats_histogram" in state else np.zeros((0, 0)))
    except KeyError as error:
        raise CheckpointError(
            f"ensemble checkpoint {path!r} is missing field {error}; "
            "corrupt or from an incompatible version") from error
    points = len(unpacked["frequencies"])
    completed = unpacked["completed"]
    expected_rows = completed if unpacked["store_responses"] else 0
    if unpacked["responses"].shape != (expected_rows, points):
        raise CheckpointError(
            f"ensemble checkpoint {path!r} is internally inconsistent: "
            f"responses shape {unpacked['responses'].shape} does not match "
            f"{expected_rows} stored samples × {points} frequency points")
    bins = unpacked["stats_histogram_bins"]
    if bins and unpacked["stats_histogram"].shape != (points, bins):
        raise CheckpointError(
            f"ensemble checkpoint {path!r} is internally inconsistent: "
            f"histogram shape {unpacked['stats_histogram'].shape} does not "
            f"match {points} frequency points × {bins} bins")
    for field in ("stats_sum_db", "stats_sumsq_db",
                  "stats_min_db", "stats_max_db"):
        if unpacked[field].shape != (points,):
            raise CheckpointError(
                f"ensemble checkpoint {path!r} is internally inconsistent: "
                f"{field} has shape {unpacked[field].shape}, expected "
                f"({points},)")
    return unpacked


def checkpoint_info(path) -> dict:
    """Inspect a checkpoint without resuming it.

    Returns a dict with the run configuration and progress: ``completed`` /
    ``samples``, seed, solver, and the quarantine summary so far.
    """
    state = _load_checkpoint(path)
    report = report_from_json(state["report_json"])
    return {
        "version": state["version"],
        "fingerprint": state["fingerprint"],
        "seed": state["seed"],
        "samples": state["samples"],
        "completed": state["completed"],
        "shard_size": state["shard_size"],
        "solver": state["solver"],
        "method": state["method"],
        "on_failure": state["on_failure"],
        "store_responses": state["store_responses"],
        "quarantined": report.quarantined if report is not None else [],
    }


def _restore(path, sink, expected, frequencies) -> None:
    """Load ``path`` into ``sink`` after checking it belongs to this run."""
    state = _load_checkpoint(path)
    if state["version"] != _FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has format version {state['version']}, "
            f"expected {_FORMAT_VERSION}")
    for field, value in expected.items():
        if state[field] != value:
            raise CheckpointError(
                f"checkpoint {path!r} belongs to a different run: "
                f"{field} is {state[field]!r}, this run has {value!r}")
    if not np.array_equal(state["frequencies"], frequencies):
        raise CheckpointError(
            f"checkpoint {path!r} belongs to a different run: "
            "frequency grids differ")
    completed = state["completed"]
    if sink.responses is not None:
        sink.responses[:completed] = state["responses"]
    fresh = sink.statistics
    sink.statistics = EnsembleStatistics(
        frequencies=frequencies, count=state["stats_count"],
        sum_db=state["stats_sum_db"], sumsq_db=state["stats_sumsq_db"],
        min_db=state["stats_min_db"], max_db=state["stats_max_db"],
        weight_sum=state["stats_weight_sum"],
        weight_sumsq=state["stats_weight_sumsq"],
        max_weight=state["stats_max_weight"],
        histogram_bins=fresh.histogram_bins,
        histogram_low_db=fresh.histogram_low_db,
        histogram_high_db=fresh.histogram_high_db,
        histogram=(state["stats_histogram"] if fresh.histogram_bins
                   else None))
    sink.report = report_from_json(state["report_json"])
    sink.solver_used = state["solver_used"]
    sink.completed = completed


def checkpointed_ensemble_sweep(circuit, output, frequencies, space=None, *,
                                path, samples=128, seed=0,
                                shard_size=_SUPERVISED_DEFAULTS.shard_size,
                                max_shards=None, tolerances=None,
                                solver="lapack", method="auto",
                                on_failure=_SUPERVISED_DEFAULTS.on_failure,
                                policy=None, workers=None, supervisor=None,
                                store_responses=True, histogram_bins=None,
                                histogram_range=None) -> CheckpointedRun:
    """Run (or resume) a tolerance ensemble with periodic checkpointing.

    The ensemble is evaluated in shards of ``shard_size`` samples through the
    shard pipeline of :mod:`repro.montecarlo.engine`; after each shard the
    responses so far, the streaming :class:`EnsembleStatistics` and the
    quarantine report are written atomically to ``path``.  If ``path``
    already holds a checkpoint of the *same* run (circuit fingerprint,
    parameter-space content, seed, sample count, shard size and solver
    configuration all match) the run resumes after its last completed
    shard; a mismatched checkpoint raises
    :class:`~repro.errors.CheckpointError`.

    A resumed run is **bit-identical** to an uninterrupted one: values are
    drawn up front from the seeded sampler, shard boundaries are fixed, and
    each shard's solves and statistics updates are independent of how many
    processes it took to get there.

    Parameters
    ----------
    path:
        Checkpoint file (``.npz``).  The file is left in place on
        completion — delete it to re-run from scratch.
    shard_size:
        Samples per shard (and per checkpoint write).
    max_shards:
        Stop after this many *new* shards (``finished=False`` in the
        result); ``None`` runs to completion.  This is the hook fault /
        kill tests use to stop a run at a deterministic point.
    on_failure, policy:
        Resilience controls, as for
        :func:`~repro.montecarlo.engine.ensemble_sweep`; checkpointed runs
        default to ``"quarantine"`` so one bad sample cannot waste hours of
        completed work.
    workers, supervisor:
        ``workers`` other than ``None`` / ``1`` runs the remaining shards
        on supervised worker processes
        (:func:`~repro.montecarlo.parallel.run_shards`, configured by the
        optional :class:`~repro.montecarlo.parallel.SupervisorConfig`).
        Shards complete out of order, but the checkpoint only ever absorbs
        them in fixed shard order, so the file on disk is at all times
        bit-identical to one a sequential run would have written, and a
        killed *supervisor* resumes bit-identically with any worker count.
    store_responses, histogram_bins, histogram_range:
        ``store_responses=False`` switches to the streaming estimation
        mode: the checkpoint persists only the
        :class:`~repro.montecarlo.statistics.EnsembleStatistics`
        accumulator (O(F·bins) state) instead of the ``(M, F)`` responses,
        the finished result carries ``ensemble.responses=None``, and memory
        stays O(F·bins + chunk budget) regardless of ``samples``.
        ``histogram_bins`` / ``histogram_range`` shape the statistics
        histogram (off by default when responses are stored).  A
        checkpoint written in one mode cannot be resumed in the other.

    Returns
    -------
    CheckpointedRun
    """
    from ..engine.session import AnalysisSession
    from . import parallel

    if space is None:
        space = ParameterSpace(circuit, tolerances)
    samples = int(samples)
    shard_size = int(shard_size)
    if shard_size <= 0:
        raise CheckpointError(f"shard_size must be positive, got {shard_size}")
    space, frequencies, values, __, options = _resolve(
        circuit, frequencies, space, samples=samples, seed=seed,
        solver=solver, method=method, on_failure=on_failure, policy=policy,
        store_responses=store_responses, histogram_bins=histogram_bins,
        histogram_range=histogram_range)
    fingerprint = AnalysisSession.fingerprint(circuit)
    space_digest = _space_key_digest(space)
    sink = _ShardSink(frequencies, samples, options)
    if os.path.exists(path):
        bins = options.histogram_bins
        expected = {"fingerprint": fingerprint, "space_digest": space_digest,
                    "seed": int(seed), "samples": samples,
                    "shard_size": shard_size, "solver": solver,
                    "method": method, "on_failure": on_failure,
                    "store_responses": options.store_responses,
                    "stats_histogram_bins": bins}
        if bins:
            (expected["stats_histogram_low_db"],
             expected["stats_histogram_high_db"]) = options.histogram_range
        _restore(path, sink, expected, frequencies)
    resumed_from = sink.completed

    def save(*__):
        _save_checkpoint(path, fingerprint=fingerprint,
                         space_digest=space_digest, seed=seed,
                         samples=samples, shard_size=shard_size,
                         solver=solver, solver_used=sink.solver_used,
                         method=method, on_failure=on_failure,
                         frequencies=frequencies, completed=sink.completed,
                         responses=sink.responses,
                         statistics=sink.statistics, report=sink.report,
                         store_responses=options.store_responses)

    plan = parallel.shard_plan(samples, shard_size,
                               first_sample=sink.completed)[:max_shards]
    if plan:
        parallel.run_shards(circuit, output, frequencies, space, values,
                            plan, options=options,
                            workers=1 if workers is None else workers,
                            config=supervisor, sink=sink,
                            on_shard_complete=save)
    result = CheckpointedRun(finished=sink.completed == samples,
                             completed=sink.completed, total=samples,
                             resumed_from=resumed_from,
                             statistics=sink.statistics, report=sink.report,
                             path=path)
    if result.finished:
        result.ensemble = sink.result(values, space, output)
    return result
