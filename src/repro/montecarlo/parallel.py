"""The shard executor and its supervised multiprocess arm.

:func:`run_shards` is the one executor of the ensemble shard pipeline (see
:mod:`repro.montecarlo.engine`): it runs a fixed shard plan inline when
``workers == 1`` and across supervised worker *processes* otherwise, and
hands every completed shard to the run's in-order sink.
:func:`parallel_ensemble_sweep` is the preset that shards a whole ensemble
across processes.  The supervisor keeps the run alive through worker
crashes and hangs, while keeping every result bit identical to an
uninterrupted single-process resilient run.

Determinism is structural, not statistical:

* element values are drawn **up front** from the seeded sampler and placed
  in shared memory; every worker sees the same bits;
* **shard boundaries are fixed** by ``shard_size`` alone — never by worker
  count, completion order, or failures — and both batched dense kernels are
  batch-size invariant while the resilient path solves sample-by-sample, so
  a shard's response rows are bit-for-bit the rows of the full run;
* a re-dispatched shard re-runs the identical computation on identical
  inputs, so retries are invisible in the output;
* the sink takes shards — their rows, per-shard
  :class:`~repro.engine.resilience.SweepReport`\\ s and streaming
  accumulators — **in fixed shard order**, regardless of which worker
  finished which shard when.

The supervisor distinguishes two failure planes:

* **infrastructure failure** — a worker process died (SIGKILL, OOM), hung
  past the shard deadline, went heartbeat-silent, or raised something that
  is not a :class:`~repro.errors.ReproError`.  The shard is re-dispatched
  to a healthy worker with bounded retries and backoff; the dead worker is
  replaced.  When the retry budget is exhausted the run aborts with a
  typed :class:`~repro.errors.ShardFailureError` carrying the shard index
  and the chronological attempt trail.  A worker gets no shard before its
  own first heartbeat, so interpreter start-up never counts as a hang; a
  start-up longer than the shard deadline counts as a failed start, and
  ``max_attempts`` failed starts in a row abort the run.
* **numerical failure** — the escalation chain inside a worker was
  exhausted for some sample.  Exactly as in-process: with
  ``on_failure="quarantine"`` the sample is masked NaN and recorded in the
  shard report; with ``"raise"`` the error aborts the ensemble.  Numerical
  failure never causes a shard re-run.

Workers send their :data:`~repro.engine.resilience.TELEMETRY` delta with
each completed shard; the supervisor folds each delta exactly once, so
process-wide counters reflect the whole ensemble no matter how many
processes solved it.

Environment knobs: ``REPRO_MP_START`` selects the multiprocessing start
method (``fork`` / ``spawn`` / ``forkserver``; default: the platform
default), ``REPRO_PARALLEL_WORKERS`` the default worker count.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import threading
import time
from multiprocessing.sharedctypes import RawArray
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.resilience import (SweepReport, merge_telemetry,
                                 telemetry_snapshot)
from ..errors import (FormulationError, ReproError, ShardFailureError,
                      SingularMatrixError)
from .engine import (_SUPERVISED_DEFAULTS, EnsembleResult, _Evaluator,
                     _Options, _resolve, _ShardSink)
from .statistics import EnsembleStatistics

__all__ = ["SupervisorConfig", "ParallelRunInfo", "ShardRun", "shard_plan",
           "run_shards", "parallel_ensemble_sweep"]

#: Process-level fault plan installed by :func:`tests.faults.parallel_faults`:
#: ``{shard_index: action | [action_per_attempt, ...]}`` with actions
#: ``"kill"`` / ``"hang"`` / ``"crash"`` / ``"kill_after"`` (a bare string
#: applies to every attempt — a *poisoned* shard).  ``"kill_after"`` solves
#: the shard completely and SIGKILLs the worker *before reporting*, the
#: worst case for streaming accumulators: the re-dispatched attempt must
#: fold exactly once, never twice.  Shipped to workers inside the pickled
#: payload, so it works under fork and spawn alike.
_FAULT_PLAN: Optional[dict] = None


def _default_workers() -> int:
    """Worker processes when the caller does not say (env-overridable)."""
    override = os.environ.get("REPRO_PARALLEL_WORKERS")
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def _start_method() -> Optional[str]:
    """Start method from ``REPRO_MP_START`` (``None`` = platform default)."""
    method = os.environ.get("REPRO_MP_START", "").strip().lower()
    return method if method in ("fork", "spawn", "forkserver") else None


@dataclasses.dataclass(frozen=True)
class SupervisorConfig:
    """Supervision timing and retry budget of a parallel ensemble run.

    Attributes
    ----------
    heartbeat_interval:
        Seconds between worker heartbeats (a daemon thread in each worker
        stamps ``time.monotonic()`` into a shared slot).
    heartbeat_timeout:
        A busy worker whose last heartbeat is older than this is declared
        hung, killed and replaced; its shard is re-dispatched.
    shard_deadline:
        Wall-clock budget for one shard attempt; exceeding it counts as a
        hang even if heartbeats still arrive.  Also bounds a worker's
        start-up, which ends with its first heartbeat.
    max_attempts:
        Total attempts per shard (first try + retries) before the run
        aborts with :class:`~repro.errors.ShardFailureError`; also the
        number of failed starts in a row one worker slot may have.
    backoff:
        Seconds to wait before re-dispatching a failed shard, scaled by the
        number of attempts already made.
    poll_interval:
        Supervisor loop granularity.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; ``None`` reads
        ``REPRO_MP_START`` and falls back to the platform default.
    """

    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 10.0
    shard_deadline: float = 600.0
    max_attempts: int = 3
    backoff: float = 0.25
    poll_interval: float = 0.01
    start_method: Optional[str] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise FormulationError("max_attempts must be at least 1")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise FormulationError(
                "heartbeat_timeout must exceed heartbeat_interval")


@dataclasses.dataclass
class ParallelRunInfo:
    """How a parallel ensemble was executed (attached to the result).

    ``attempts`` maps shard index → chronological attempt trail (strings);
    ``redispatches`` counts infrastructure re-runs (0 on a clean run);
    ``statistics`` is the streaming accumulator folded in fixed shard
    order, bit-identical to a checkpointed run of the same ``shard_size``.
    """

    workers: int
    shard_size: int
    shards: int
    redispatches: int
    attempts: Dict[int, List[str]]
    statistics: EnsembleStatistics


@dataclasses.dataclass
class ShardRun:
    """How :func:`run_shards` executed a plan.

    ``reports`` maps shard index → per-shard
    :class:`~repro.engine.resilience.SweepReport` (``None`` on the legacy
    raise path); ``sink`` holds the merged run state — responses,
    statistics, yields, merged report.
    """

    reports: Dict[int, Optional[SweepReport]]
    attempts: Dict[int, List[str]]
    redispatches: int
    workers: int
    sink: _ShardSink


def shard_plan(samples, shard_size, first_sample=0) -> List[Tuple[int, int, int]]:
    """Fixed ``(shard_index, start, stop)`` boundaries over the sample axis.

    Boundaries depend only on ``shard_size`` — the same function cuts
    checkpointed, parallel and sequential runs, which is what makes their
    statistics streams bit-comparable.  ``first_sample`` lets a resumed
    checkpoint plan only its remaining tail while keeping global indices.
    """
    samples = int(samples)
    shard_size = int(shard_size)
    if shard_size <= 0:
        raise FormulationError(
            f"shard_size must be positive, got {shard_size}")
    plan = []
    for start in range(int(first_sample), samples, shard_size):
        stop = min(start + shard_size, samples)
        plan.append((start // shard_size, start, stop))
    return plan


def _plan_action(fault_plan, shard, attempt) -> Optional[str]:
    """The injected action for this (shard, attempt), if any."""
    if not fault_plan:
        return None
    spec = fault_plan.get(shard)
    if spec is None:
        return None
    if isinstance(spec, str):
        return spec
    index = attempt - 1
    if 0 <= index < len(spec):
        return spec[index]
    return None


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #


def _heartbeat_loop(slot, heartbeats, interval, stop_event):
    while not stop_event.wait(interval):
        heartbeats[slot] = time.monotonic()


def _worker_main(slot, payload, tasks, results, values_buffer,
                 responses_buffer, weights_buffer, heartbeats):
    """One worker process: pull shard tasks, evaluate, push outcomes.

    Stored mode: the worker reads its sample rows from the shared values
    buffer and writes its response rows to a disjoint slice of the shared
    responses buffer *before* reporting completion, so a kill at any
    instant leaves either an unreported (re-runnable) shard or a fully
    written one.

    Streaming mode (``store_responses=False``): no responses buffer exists;
    the shard's accumulators travel in the completion message.  A kill
    before the message leaves *no* trace, so a shard folds exactly once no
    matter how many attempts it took.
    """
    evaluator = payload["evaluator"]
    num_samples = payload["num_samples"]
    num_axes = payload["num_axes"]
    num_points = len(evaluator.frequencies)
    values = np.frombuffer(values_buffer, dtype=float,
                           count=num_samples * num_axes).reshape(
                               num_samples, num_axes)
    responses = None
    if responses_buffer is not None:
        responses = np.frombuffer(
            responses_buffer, dtype=np.complex128,
            count=num_samples * num_points).reshape(num_samples, num_points)
    weights = None
    if weights_buffer is not None:
        weights = np.frombuffer(weights_buffer, dtype=float)[:num_samples]
    # The first beat says "started": the supervisor dispatches nothing to
    # this worker before it.
    heartbeats[slot] = time.monotonic()
    stop_event = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(slot, heartbeats, payload["heartbeat_interval"], stop_event),
        daemon=True)
    beat.start()
    fault_plan = payload["fault_plan"]
    while True:
        task = tasks.get()
        if task is None:
            return
        shard, start, stop, attempt = task
        action = _plan_action(fault_plan, shard, attempt)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "hang":
            # Go silent: heartbeats stop, the task never completes.  The
            # supervisor must detect and kill us.
            stop_event.set()
            time.sleep(3600.0)
        try:
            if action == "crash":
                raise RuntimeError(
                    f"injected crash (shard {shard}, attempt {attempt})")
            before = telemetry_snapshot()
            outcome = evaluator(
                values[start:stop],
                None if weights is None else weights[start:stop],
                None if responses is None else responses[start:stop])
            after = telemetry_snapshot()
            if action == "kill_after":
                # The solve completed but the worker dies before reporting:
                # the at-most-once worst case.
                os.kill(os.getpid(), signal.SIGKILL)
            delta = {key: after[key] - before[key] for key in after}
            results.put(("done", slot, shard, attempt, outcome, delta))
        except ReproError as error:
            # Numerical failure (raise mode): forward the typed error.
            try:
                pickle.dumps(error)
                message = error
            except Exception:
                message = f"{type(error).__name__}: {error}"
            results.put(("numerical", slot, shard, attempt, message))
        except BaseException as error:
            # Anything else is an infrastructure failure of this attempt.
            results.put(("infra", slot, shard, attempt,
                         f"{type(error).__name__}: {error}"))


# --------------------------------------------------------------------------- #
# supervisor side
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class _WorkerHandle:
    slot: int
    process: object
    tasks: object
    results: object
    spawned_at: float
    failed_starts: int = 0
    shard: Optional[int] = None
    attempt: int = 0
    dispatched_at: float = 0.0


def _spawn_worker(context, slot, payload, buffers, heartbeats,
                  failed_starts=0) -> _WorkerHandle:
    tasks = context.Queue()
    results = context.Queue()
    # 0.0 = not started yet; the worker stamps its own first heartbeat.
    heartbeats[slot] = 0.0
    process = context.Process(
        target=_worker_main,
        args=(slot, payload, tasks, results, *buffers, heartbeats),
        daemon=True, name=f"repro-ensemble-worker-{slot}")
    process.start()
    return _WorkerHandle(slot=slot, process=process, tasks=tasks,
                         results=results, spawned_at=time.monotonic(),
                         failed_starts=failed_starts)


def _stop_worker(handle) -> None:
    if handle.process.is_alive():
        handle.process.kill()
    handle.process.join(timeout=5.0)
    # Never let a dead worker's queues block interpreter shutdown.
    for channel in (handle.tasks, handle.results):
        try:
            channel.cancel_join_thread()
            channel.close()
        except Exception:
            pass


def _shutdown(handles) -> None:
    for handle in handles:
        try:
            handle.tasks.put_nowait(None)
        except Exception:
            pass
    deadline = time.monotonic() + 2.0
    for handle in handles:
        handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
    for handle in handles:
        _stop_worker(handle)


def run_shards(circuit, output, frequencies, space, values, plan, *,
               options=None, weights=None, workers=None, config=None,
               sink=None, on_shard_complete=None) -> ShardRun:
    """Execute a fixed shard plan and hand each shard to the sink in order.

    The one executor under every matrix ensemble driver.  It builds the
    evaluator once, in this process, from ``circuit`` / ``output`` /
    ``space`` and the resolved ``options`` (default: a quarantining,
    stored-response run).  ``plan`` rows index into ``values`` (and the
    sink's responses), so a resumed checkpoint can run just its remaining
    tail with global sample indices.  ``weights`` carries optional
    per-sample likelihood ratios (global indexing).

    ``workers=1`` runs the plan inline (no subprocesses, no fault
    injection; ``options.threads`` threads inside each shard) — the
    bit-parity reference for every multi-worker run.  Otherwise ``workers``
    supervised processes (default :func:`_default_workers`) evaluate the
    shards with one thread each: values travel through shared memory,
    stored rows come back through a shared buffer, streaming accumulators
    in the completion message.

    ``sink`` (default: a fresh one for ``options``) takes every shard in
    fixed plan order, however the shards finished; after each,
    ``on_shard_complete(prefix_shards, responses, reports, solver_used)``
    fires in this process, which is how the checkpoint preset saves
    mid-run.
    """
    options = options or _Options()
    values = np.ascontiguousarray(values, dtype=float)
    frequencies = np.asarray(frequencies, dtype=float)
    evaluator = _Evaluator.build(circuit, output, frequencies, space,
                                 options)
    if sink is None:
        sink = _ShardSink(frequencies, values.shape[0], options)
    if workers is None:
        workers = _default_workers()
    workers = max(1, min(int(workers), max(1, len(plan))))
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=float)
    run = ShardRun(reports={}, attempts=collections.defaultdict(list),
                   redispatches=0, workers=workers, sink=sink)

    def absorb(prefix, outcome, rows=None):
        shard, start, stop = plan[prefix]
        sink.absorb(start, stop, outcome, rows)
        run.reports[shard] = outcome.report
        if on_shard_complete is not None:
            on_shard_complete(prefix + 1, sink.responses, run.reports,
                              sink.solver_used)

    if workers == 1:
        for prefix, (shard, start, stop) in enumerate(plan):
            outcome = evaluator(
                values[start:stop],
                None if weights is None else weights[start:stop],
                None if sink.responses is None else sink.responses[start:stop],
                options.threads)
            run.attempts[shard].append("attempt 1 in-process: completed")
            absorb(prefix, outcome)
    else:
        _supervise(evaluator, values, weights, plan, workers,
                   config or SupervisorConfig(), run, absorb)
    run.attempts = dict(run.attempts)
    return run


def _supervise(evaluator, values, weights, plan, workers, config, run,
               absorb) -> None:
    """Run ``plan`` on supervised worker processes (see the module doc)."""
    num_samples, num_axes = values.shape
    num_points = len(evaluator.frequencies)
    store_responses = evaluator.options.store_responses
    context = multiprocessing.get_context(
        config.start_method or _start_method())
    values_buffer = RawArray("d", max(1, num_samples * num_axes))
    np.frombuffer(values_buffer, dtype=float)[:values.size] = values.ravel()
    responses = responses_buffer = None
    if store_responses:
        responses_buffer = RawArray("d", max(1, 2 * num_samples * num_points))
        responses = np.frombuffer(
            responses_buffer, dtype=np.complex128,
            count=num_samples * num_points).reshape(num_samples, num_points)
    # Streaming: accumulators ride the result queue; the O(M×F) shared
    # buffer — the very thing that mode removes — is never allocated.
    weights_buffer = None
    if weights is not None:
        weights_buffer = RawArray("d", max(1, num_samples))
        np.frombuffer(weights_buffer,
                      dtype=float)[:weights.size] = weights.ravel()
    buffers = (values_buffer, responses_buffer, weights_buffer)
    heartbeats = RawArray("d", workers)
    payload = {
        "evaluator": evaluator, "num_samples": num_samples,
        "num_axes": num_axes,
        "heartbeat_interval": config.heartbeat_interval,
        "fault_plan": _FAULT_PLAN,
    }

    attempts = run.attempts
    bounds = {shard: (start, stop) for shard, start, stop in plan}
    pending = collections.deque(shard for shard, _, __ in plan)
    ready_at: Dict[int, float] = {}
    attempt_counts: Dict[int, int] = collections.defaultdict(int)
    completed = set()
    outcomes = {}        # completed shards the sink has not taken yet
    prefix = 0
    handles = [_spawn_worker(context, slot, payload, buffers, heartbeats)
               for slot in range(workers)]
    failure: List[BaseException] = []

    def requeue(handle, reason):
        shard = handle.shard
        handle.shard = None
        attempts[shard].append(reason)
        if attempt_counts[shard] >= config.max_attempts:
            start, stop = bounds[shard]
            failure.append(ShardFailureError(
                f"shard {shard} (samples {start}:{stop}) failed "
                f"{attempt_counts[shard]} attempts: "
                f"{'; '.join(attempts[shard])}",
                shard=shard, start=start, stop=stop,
                attempts=attempts[shard]))
            return
        run.redispatches += 1
        ready_at[shard] = (time.monotonic()
                           + config.backoff * attempt_counts[shard])
        pending.appendleft(shard)

    def replace(index, reason=None, failed_starts=0):
        handle = handles[index]
        if handle.shard is not None:
            requeue(handle, reason)
        _stop_worker(handle)
        handles[index] = _spawn_worker(context, handle.slot, payload,
                                       buffers, heartbeats, failed_starts)

    def failed_start(index, reason):
        """A worker died or overran the deadline before its first beat."""
        handle = handles[index]
        if handle.failed_starts + 1 < config.max_attempts:
            replace(index, failed_starts=handle.failed_starts + 1)
            return
        shard = next(row for row in plan if row[0] not in completed)[0]
        start, stop = bounds[shard]
        trail = attempts[shard] + [
            f"worker {handle.slot} failed to start "
            f"{config.max_attempts} times in a row ({reason})"]
        failure.append(ShardFailureError(
            f"shard {shard} (samples {start}:{stop}) cannot run: "
            f"{trail[-1]}", shard=shard, start=start, stop=stop,
            attempts=trail))

    def dispatch():
        now = time.monotonic()
        for handle in handles:
            if (handle.shard is not None or not pending
                    or heartbeats[handle.slot] == 0.0):
                continue
            for candidate in list(pending):
                if ready_at.get(candidate, 0.0) > now:
                    continue
                pending.remove(candidate)
                attempt_counts[candidate] += 1
                start, stop = bounds[candidate]
                handle.shard = candidate
                handle.attempt = attempt_counts[candidate]
                handle.dispatched_at = now
                handle.tasks.put((candidate, start, stop, handle.attempt))
                break

    def handle_message(handle, message):
        nonlocal prefix
        kind, slot, shard, attempt, *rest = message
        if kind == "done":
            outcome, delta = rest
            if handle.shard == shard:
                handle.shard = None
            if shard in completed:
                return
            completed.add(shard)
            if shard in pending:      # late result beat a re-dispatch
                pending.remove(shard)
            outcomes[shard] = outcome
            merge_telemetry(delta)
            attempts[shard].append(
                f"attempt {attempt} on worker {slot}: completed")
            while prefix < len(plan) and plan[prefix][0] in outcomes:
                __, start, stop = plan[prefix]
                absorb(prefix, outcomes.pop(plan[prefix][0]),
                       None if responses is None else responses[start:stop])
                prefix += 1
        elif kind == "numerical":
            error = rest[0]
            if not isinstance(error, BaseException):
                error = SingularMatrixError(str(error))
            failure.append(error)
        else:  # "infra": the worker survived but the attempt did not
            requeue(handle, f"attempt {attempt} on worker {slot}: "
                            f"uncaught worker exception ({rest[0]})")

    def check_health(index, handle, now):
        if handle.shard is None:
            if heartbeats[handle.slot] != 0.0:
                if not handle.process.is_alive():
                    replace(index)
            elif not handle.process.is_alive():
                failed_start(index, "died with exit code "
                                    f"{handle.process.exitcode}")
            elif now - handle.spawned_at > config.shard_deadline:
                failed_start(index, "no heartbeat within the shard deadline")
            return
        trail = f"attempt {handle.attempt} on worker {handle.slot}"
        if not handle.process.is_alive():
            replace(index, f"{trail}: worker died (exit code "
                           f"{handle.process.exitcode})")
        elif now - heartbeats[handle.slot] > config.heartbeat_timeout:
            replace(index, f"{trail}: heartbeat lost (worker hung)")
        elif now - handle.dispatched_at > config.shard_deadline:
            replace(index, f"{trail}: shard deadline exceeded")

    try:
        while len(completed) < len(plan) and not failure:
            dispatch()
            progressed = False
            for handle in handles:
                try:
                    message = handle.results.get_nowait()
                except (queue_module.Empty, EOFError, OSError):
                    continue
                progressed = True
                handle_message(handle, message)
                if failure:
                    break
            now = time.monotonic()
            for index, handle in enumerate(handles):
                if failure:
                    break
                check_health(index, handle, now)
            if not progressed and not failure:
                time.sleep(config.poll_interval)
    finally:
        _shutdown(handles)
    if failure:
        raise failure[0]


# --------------------------------------------------------------------------- #
# the public driver
# --------------------------------------------------------------------------- #


def parallel_ensemble_sweep(circuit, output, frequencies, space=None, *,
                            values=None, samples=128, seed=0,
                            sampler="random",
                            shard_size=_SUPERVISED_DEFAULTS.shard_size,
                            workers=None, solver="lapack", method="auto",
                            on_failure=_SUPERVISED_DEFAULTS.on_failure,
                            policy=None, config=None, store_responses=True,
                            histogram_bins=None, histogram_range=None,
                            weights=None, yield_specs=None) -> EnsembleResult:
    """Evaluate a tolerance ensemble across supervised worker processes.

    Drop-in alternative to :func:`~repro.montecarlo.engine.ensemble_sweep`
    for production sample counts: the sample axis is cut into fixed shards
    (:func:`shard_plan`) and distributed over ``workers`` processes through
    shared memory, under crash / hang supervision with bounded re-dispatch
    (see the module docstring for the failure taxonomy).

    The result — responses, quarantined indices, merged
    :class:`~repro.engine.resilience.SweepReport`, streaming statistics —
    is **bit-identical for every worker count**, including ``workers=1``
    (which runs in-process and is the reference the fault-injection tests
    compare against).

    Parameters beyond :func:`~repro.montecarlo.engine.ensemble_sweep`:

    sampler:
        Point set for the up-front draw: ``"random"``, ``"sobol"`` or
        ``"lhs"`` (ignored when ``values`` is given).
    shard_size:
        Samples per shard — the unit of distribution, re-dispatch and
        statistics folding.  Match a checkpointed run's ``shard_size`` for
        bit-identical statistics streams.
    workers:
        Worker processes (default: ``REPRO_PARALLEL_WORKERS`` or the CPU
        count).  ``1`` = in-process execution.
    on_failure:
        Defaults to ``"quarantine"`` — the whole point of a supervised run
        is that neither a bad sample nor a bad worker kills it.
    config:
        :class:`SupervisorConfig` timing / retry budget.
    store_responses, histogram_bins, histogram_range, weights, yield_specs:
        Streaming estimation controls, exactly as for
        :func:`~repro.montecarlo.engine.ensemble_sweep`: with
        ``store_responses=False`` workers fold their shards into
        accumulators and ship those instead of response rows (no O(M×F)
        shared buffer exists at all), the sink merges them **in fixed
        shard order**, and the result carries ``responses=None`` with
        ``statistics`` / ``yields`` populated — bit-identical to the
        sequential streaming run at the same ``shard_size``, for every
        worker count.  A stored run also folds ``result.parallel.
        statistics``, so ``histogram_bins`` / ``histogram_range`` shape it
        in either mode.

    Raises
    ------
    ShardFailureError
        When some shard exhausts its infrastructure retry budget.
    """
    space, frequencies, values, weights, options = _resolve(
        circuit, frequencies, space, values, samples=samples, seed=seed,
        sampler=sampler, solver=solver, method=method,
        on_failure=on_failure, policy=policy,
        store_responses=store_responses, histogram_bins=histogram_bins,
        histogram_range=histogram_range, weights=weights,
        yield_specs=yield_specs)
    plan = shard_plan(values.shape[0], shard_size)
    run = run_shards(circuit, output, frequencies, space, values, plan,
                     options=options, weights=weights, workers=workers,
                     config=config)
    info = ParallelRunInfo(workers=run.workers, shard_size=int(shard_size),
                           shards=len(plan), redispatches=run.redispatches,
                           attempts=run.attempts,
                           statistics=run.sink.statistics)
    return run.sink.result(values, space, output, weights, parallel=info)
