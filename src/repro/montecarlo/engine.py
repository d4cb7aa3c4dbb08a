"""The vectorized parameter-space sweep and the shard pipeline under it.

:func:`ensemble_sweep` evaluates a whole tolerance ensemble in stacked
batched solves instead of M independent circuit rebuilds:

* the per-sample ``(G_m, C_m)`` parts come from the circuit's
  :class:`~repro.montecarlo.program.ValueProgram` — a vectorized re-stamping
  that reproduces the MNA builder's arithmetic bit-for-bit,
* the ``(M·F, n, n)`` stack is assembled chunk by chunk with exactly the
  broadcast expression of
  :meth:`~repro.engine.formulation.FormulationBase.assemble_batch`,
* factorization goes through :func:`~repro.linalg.dense.batched_solve`
  (LAPACK, the throughput default) or
  :func:`~repro.linalg.dense.batched_dense_lu` (``solver="lu"``, the
  bit-parity arm whose outputs equal the rebuild-per-sample path *exactly* —
  both solvers are batch-size invariant, so chunking cannot change results),
* above the dense cutoff each member's value vectors go through
  :meth:`~repro.engine.sweep.SweepEngine.solve_values`, the sparse sweep
  kernel every other sparse sweep runs on (a fresh pivot pattern per member,
  then batched refactorization along it over the frequency grid), so the
  responses equal the rebuild-per-sample path's bit for bit whenever no
  matrix entry is exactly zero.

Every matrix ensemble driver — :func:`ensemble_sweep`,
:func:`~repro.montecarlo.parallel.parallel_ensemble_sweep` and
:func:`~repro.montecarlo.checkpoint.checkpointed_ensemble_sweep` — is a
preset of one shard pipeline:

* a **plan**: :func:`~repro.montecarlo.parallel.shard_plan`, shard
  boundaries fixed by ``shard_size`` alone;
* an **evaluator** (:class:`_Evaluator`), built once per call in the calling
  process: the MNA right-hand side, the output terms, the ``ValueProgram``,
  the dense/sparse choice (a :class:`~repro.engine.sweep.SweepEngine`'s)
  and the resolved options.  It turns one shard's
  value rows into responses and folds them into per-shard accumulators;
* one **executor**, :func:`~repro.montecarlo.parallel.run_shards`: inline
  when ``workers == 1``, supervised processes otherwise;
* one in-order **sink** (:class:`_ShardSink`) that takes each completed
  shard in fixed shard order, so every driver folds the same addition
  sequence whatever ran the shards.

Argument checks and defaults live in :func:`_resolve` and the defaults table
above it.

:func:`rebuild_sweep` is the M-independent-rebuilds reference the engine is
benchmarked and parity-checked against: one circuit copy + MNA build + AC
sweep per sample, through the standard :class:`~repro.analysis.ac.ACAnalysis`
machinery (``solver="lu"``) or the same LAPACK solver one sample at a time
(``solver="lapack"``).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import os
from typing import Optional, Tuple

import numpy as np

from ..engine.resilience import (SolvePolicy, SweepReport,
                                 merge_shard_report, solve_stack_resilient)
from ..engine.sweep import SweepEngine
from ..errors import (FormulationError, SingularMatrixError,
                      SolveFailureError)
from ..linalg.dense import batched_dense_lu, batched_solve
from ..mna.builder import build_mna_system
from ..netlist.elements import GROUND
from ..nodal.reduce import TransferSpec
from .program import ValueProgram
from .space import ParameterSpace
from .statistics import (DEFAULT_HISTOGRAM_BINS, DEFAULT_HISTOGRAM_RANGE,
                         EnsembleStatistics, StreamingYield)

__all__ = ["EnsembleResult", "ensemble_sweep", "rebuild_sweep"]

_SOLVERS = ("lapack", "lu")

#: Complex entries held in assembled ensemble chunks at any one time
#: (~12 MB), split evenly across the threads that each hold a chunk.
#: Ensemble chunks are deliberately much smaller than the frequency-sweep
#: chunks of :func:`~repro.linalg.dense.sweep_chunk_size`: the assemble →
#: factor → solve pipeline revisits the chunk several times, and keeping it
#: cache-resident is worth ~1.5x wall clock at µA741 size.  Both solvers are
#: batch-size invariant, so the chunk size cannot change any result bit.
_ENSEMBLE_CHUNK_ELEMENTS = 750_000


def _ensemble_chunk_matrices(dimension, threads=1) -> int:
    """Matrices per assemble/factor/solve chunk of one of ``threads``."""
    dimension = max(1, int(dimension))
    budget = _ENSEMBLE_CHUNK_ELEMENTS // max(1, int(threads))
    return max(1, budget // (dimension * dimension))


def _normalize_output(output):
    """Resolve a TransferSpec / pair / node name into an output description."""
    if isinstance(output, TransferSpec):
        positive, negative = output.output_nodes()
        return positive if negative is None else (positive, negative)
    return output


def _output_terms(system, output):
    """``(solution index, sign)`` pairs whose weighted sum is the output."""
    output = _normalize_output(output)
    if isinstance(output, (tuple, list)):
        positive, negative = output
        return [(system.node_index(node), sign)
                for node, sign in ((positive, 1.0), (negative, -1.0))
                if node != GROUND]
    if output == GROUND:
        return []
    return [(system.node_index(output), 1.0)]


def _project(terms, solutions):
    """Output voltage over a ``(K, n)`` solution stack.

    The same slice-then-subtract arithmetic as
    :meth:`~repro.mna.builder.MnaSystem.node_voltages`, so projections match
    the rebuild path bit-for-bit.
    """
    result = np.zeros(solutions.shape[0], dtype=complex)
    for index, sign in terms:
        if sign == 1.0:
            result = result + solutions[:, index]
        else:
            result = result - solutions[:, index]
    return result


def _surviving(responses, report) -> np.ndarray:
    """``(K,)`` mask of response rows that were not quarantined."""
    mask = np.ones(responses.shape[0], dtype=bool)
    if report is not None:
        mask[report.quarantined] = False
    # Belt and braces: a NaN row is never a survivor, report or not.
    mask &= ~np.isnan(responses).any(axis=1)
    return mask


def _magnitudes_db(responses) -> np.ndarray:
    """Response magnitudes in dB (zeros floored at tiny)."""
    magnitude = np.abs(responses)
    magnitude[magnitude == 0.0] = np.finfo(float).tiny
    return 20.0 * np.log10(magnitude)


@dataclasses.dataclass
class EnsembleResult:
    """Responses of a whole tolerance ensemble over a frequency grid.

    Attributes
    ----------
    frequencies:
        ``(F,)`` sweep grid in hertz.
    values:
        ``(M, E)`` element values, one row per sample, columns in
        ``space.names`` order.
    responses:
        ``(M, F)`` complex output voltages (the circuit's own excitation) —
        or ``None`` for a streaming (``store_responses=False``) run, whose
        estimates live in ``statistics`` / ``yields`` instead.
    output:
        The normalized output description (node name or ``(pos, neg)``).
    solver:
        ``"lapack"``, ``"lu"`` or ``"sparse"`` — the backend that produced
        the responses.
    report:
        The :class:`~repro.engine.resilience.SweepReport` of a resilient run
        (``None`` on the legacy path).  Quarantined samples' response rows
        are NaN; use :meth:`surviving_mask` to restrict statistics to the
        samples that solved.
    parallel:
        The :class:`~repro.montecarlo.parallel.ParallelRunInfo` of a
        supervised multiprocess run (``None`` otherwise).
    statistics:
        The streaming
        :class:`~repro.montecarlo.statistics.EnsembleStatistics` accumulator
        of a ``store_responses=False`` run (``None`` otherwise).
    yields:
        The :class:`~repro.montecarlo.statistics.StreamingYield` accumulator
        when a streaming run was given ``yield_specs`` (``None`` otherwise).
    weights:
        The ``(M,)`` likelihood-ratio weights of an importance-sampled run
        (``None`` for plain Monte Carlo).
    """

    frequencies: np.ndarray
    values: np.ndarray
    responses: Optional[np.ndarray]
    space: ParameterSpace
    output: object
    solver: str
    report: object = None
    parallel: object = None
    statistics: object = None
    yields: object = None
    weights: Optional[np.ndarray] = None

    @property
    def num_samples(self):
        """Number of ensemble members."""
        return self.values.shape[0]

    def _require_responses(self, what):
        if self.responses is None:
            raise FormulationError(
                f"cannot compute {what}: this ensemble ran with "
                "store_responses=False and kept only streaming accumulators "
                "(see result.statistics / result.yields)")
        return self.responses

    def surviving_mask(self) -> np.ndarray:
        """``(M,)`` boolean mask of samples that were not quarantined."""
        return _surviving(self._require_responses("the surviving mask"),
                          self.report)

    def magnitudes_db(self) -> np.ndarray:
        """``(M, F)`` response magnitudes in dB (zeros floored at tiny)."""
        return _magnitudes_db(self._require_responses("magnitudes"))

    def __repr__(self):
        mode = ("streaming" if self.responses is None
                else f"points={len(self.frequencies)}")
        return (f"EnsembleResult(samples={self.values.shape[0]}, "
                f"{mode}, solver={self.solver!r})")


def _solve_chunk(flat, rhs, solver, describe):
    """Factor + solve one assembled ``(B, n, n)`` chunk."""
    if solver == "lapack":
        try:
            return batched_solve(flat, rhs)
        except SingularMatrixError as error:
            # batched_solve already located the offender; name the ensemble
            # sample and sweep point like the LU arm does.
            index = getattr(error, "batch_index", None)
            if index is not None:
                raise SingularMatrixError(
                    f"{describe(index)} is singular",
                    batch_index=index) from error
            raise SingularMatrixError(
                f"{describe()} is numerically singular") from error
    factorization = batched_dense_lu(flat, overwrite=True)
    if factorization.singular.any():
        index = int(np.argmax(factorization.singular))
        raise SingularMatrixError(f"{describe(index)} is singular",
                                  batch_index=index)
    return factorization.solve(rhs)


def _dense_ensemble(program, rhs, s, values, terms, solver, threads, policy,
                    report, out) -> None:
    """Chunked dense-path ensemble: assemble → factor → solve → project.

    Writes the ``(M, F)`` responses into ``out``.  Chunks are fully
    independent (both solvers are batch-size invariant and every chunk
    writes a disjoint slice of ``out``), so they run on ``threads`` threads:
    the LAPACK gufunc releases the GIL, overlapping one chunk's
    factorization with another's assembly.  Threading cannot change a
    single result bit — it only reorders which chunk computes when.  Each
    thread holds one chunk, so the chunk budget is split across them.

    With a resilient ``policy`` / ``report``, failing members escalate
    through :func:`~repro.engine.resilience.solve_stack_resilient`; the
    resolver runs such ensembles on one thread, so the report's records are
    deterministic.
    """
    num_samples = values.shape[0]
    num_points = len(s)
    dimension = program.dimension
    constant_stack, dynamic_stack = program.dense_parts(values)
    chunk = _ensemble_chunk_matrices(dimension, threads)

    def solve(flat, describe, indexer):
        if policy is not None:
            return solve_stack_resilient(flat, rhs, policy, report, indexer,
                                         solver=solver)
        return _solve_chunk(flat=flat, rhs=rhs, solver=solver,
                            describe=describe)

    def run_split(sample, start):
        """One frequency-axis slice of one sample (num_points > chunk)."""
        block = s[start:start + chunk]
        constant = constant_stack[sample][None, :, :]
        dynamic = dynamic_stack[sample][None, :, :]
        # Exactly assemble_batch's expression: constant + s·dynamic.
        stack = np.multiply(block[:, None, None], dynamic)
        np.add(constant, stack, out=stack)
        solutions = solve(
            stack,
            describe=lambda index=None:
                f"ensemble member {sample}" if index is None else
                f"ensemble member {sample} at sweep point {start + index}",
            indexer=lambda member: (
                sample,
                f"ensemble member {sample} at sweep point {start + member}"))
        out[sample, start:start + len(block)] = _project(terms, solutions)

    def run_block(start, samples_per_chunk):
        """One group of whole samples (num_points <= chunk)."""
        block = range(start, min(start + samples_per_chunk, num_samples))
        stack = np.empty((len(block), num_points, dimension, dimension),
                         dtype=complex)
        for position, sample in enumerate(block):
            # Exactly assemble_batch's expression: constant + s·dynamic.
            np.multiply(s[:, None, None], dynamic_stack[sample][None, :, :],
                        out=stack[position])
            np.add(constant_stack[sample][None, :, :], stack[position],
                   out=stack[position])
        flat = stack.reshape(len(block) * num_points, dimension, dimension)
        solutions = solve(
            flat,
            describe=lambda index=None:
                f"ensemble chunk starting at sample {start}" if index is None
                else f"ensemble member {start + index // num_points} at "
                     f"sweep point {index % num_points}",
            indexer=lambda member: (
                start + member // num_points,
                f"ensemble member {start + member // num_points} at "
                f"sweep point {member % num_points}"))
        for position, sample in enumerate(block):
            rows = solutions[position * num_points:(position + 1) * num_points]
            out[sample] = _project(terms, rows)

    if num_points > chunk:
        # A single sample's sweep exceeds the chunk budget: keep samples
        # whole and split the frequency axis instead.
        jobs = [(run_split, (sample, start))
                for sample in range(num_samples)
                for start in range(0, num_points, chunk)]
    else:
        samples_per_chunk = max(1, chunk // max(1, num_points))
        jobs = [(run_block, (start, samples_per_chunk))
                for start in range(0, num_samples, samples_per_chunk)]

    if threads == 1 or len(jobs) <= 1:
        for job, arguments in jobs:
            job(*arguments)
        return
    with concurrent.futures.ThreadPoolExecutor(threads) as pool:
        futures = [pool.submit(job, *arguments) for job, arguments in jobs]
        # Collect in submission order so the first failing chunk (by
        # ensemble position, not completion time) raises deterministically.
        for future in futures:
            future.result()


@dataclasses.dataclass(frozen=True)
class _StampedStructure:
    """Every entry a :class:`~repro.montecarlo.program.ValueProgram` stamps,
    as the formulation the sparse ensemble's engine factors over.

    The nominal MNA system drops an entry whose stamps cancel exactly at the
    design point (``gm = 1/R`` between the same two nodes, say), though the
    samples move it off zero; the program keeps every stamped entry.  The
    values come from each member
    (:meth:`~repro.engine.sweep.SweepEngine.solve_values`), so the structure
    holds none.
    """

    dimension: int
    keys: list

    def merged_sparse_structure(self):
        return self.keys, None, None


def _sparse_ensemble(engine, program, rhs, s, values, terms, policy, report,
                     out) -> None:
    """Sparse-path ensemble: one :meth:`~repro.engine.sweep.SweepEngine.
    solve_values` sweep per sample over that sample's value vectors.

    Writes the ``(M, F)`` responses into ``out``.  Mirrors the rebuild
    path's factorization policy exactly: every sample starts from a fresh
    ordered factorization (a rebuilt engine would too) and refactors along
    its own pivot order across the frequency axis, in the engine's batched
    chunks.  Pivot choices are value-dependent through the threshold test,
    so sharing one pattern across samples would break bit-parity with
    :func:`rebuild_sweep`.  A resilient run escalates point by point, and a
    member with an unrecoverable point comes back NaN.
    """
    keys = engine.formulation.keys
    position = {key: index for index, key in enumerate(keys)}
    constant_keys, constant_values, dynamic_keys, dynamic_values = (
        program.sparse_values(values))
    num_samples = values.shape[0]
    base = np.zeros((num_samples, len(keys)), dtype=complex)
    dynamic = np.zeros((num_samples, len(keys)), dtype=complex)
    base[:, [position[key] for key in constant_keys]] = constant_values
    dynamic[:, [position[key] for key in dynamic_keys]] = dynamic_values
    for sample in range(num_samples):
        solutions = engine.solve_values(s, base[sample], dynamic[sample], rhs,
                                        member=sample, policy=policy,
                                        report=report)
        out[sample] = _project(terms, solutions)


# --------------------------------------------------------------------------- #
# defaults and argument resolution
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class _DriverDefaults:
    shard_size: int
    on_failure: str


#: The ensemble drivers' defaults, each named once with its reason.  Two
#: differ between drivers; the drivers' signatures read them from here:
#:
#: * ``shard_size`` — 1024 for :func:`ensemble_sweep`, whose streaming mode
#:   folds big shards inline; 32 for the supervised drivers, where a shard is
#:   the unit of re-dispatch and of checkpoint writes, so a lost one costs
#:   little.  Statistics are bit-identical across drivers only at equal
#:   ``shard_size``.
#: * ``on_failure`` — ``"raise"`` for :func:`ensemble_sweep`, an interactive
#:   sweep that should show a singular member; ``"quarantine"`` for the
#:   supervised drivers, whose long runs must not die of one bad sample.
#:
#: The rest are shared and resolved in :func:`_resolve`:
#:
#: * threads inside a shard: ``workers`` of ``ensemble_sweep``, else up to
#:   4 bounded by the CPU count (:data:`_MAX_DEFAULT_THREADS`); always 1 on a
#:   resilient run, so its report records in ensemble order, and 1 inside a
#:   worker process, where processes already use the cores;
#: * worker processes of the supervised drivers:
#:   :func:`~repro.montecarlo.parallel._default_workers`
#:   (``REPRO_PARALLEL_WORKERS`` or the CPU count);
#: * ``histogram_bins``: :data:`~repro.montecarlo.statistics.
#:   DEFAULT_HISTOGRAM_BINS` when streaming, 0 when responses are stored
#:   (the responses already answer percentile queries exactly);
#: * ``histogram_range``: :data:`~repro.montecarlo.statistics.
#:   DEFAULT_HISTOGRAM_RANGE`;
#: * ``policy``: ``SolvePolicy()`` whenever ``on_failure="quarantine"``.
_ENSEMBLE_DEFAULTS = _DriverDefaults(shard_size=1024, on_failure="raise")
_SUPERVISED_DEFAULTS = _DriverDefaults(shard_size=32, on_failure="quarantine")

#: More threads stop paying once LAPACK and the assembly share the cores.
_MAX_DEFAULT_THREADS = 4


@dataclasses.dataclass(frozen=True)
class _Options:
    """The resolved settings of one ensemble run (see :func:`_resolve`).

    ``policy`` is ``None`` on the legacy raise path and set on every
    resilient run.  ``fold`` says whether shards fold their rows into
    :class:`~repro.montecarlo.statistics.EnsembleStatistics` (every driver
    but a stored-mode ``ensemble_sweep``).
    """

    solver: str = "lapack"
    method: str = "auto"
    on_failure: str = _SUPERVISED_DEFAULTS.on_failure
    policy: Optional[SolvePolicy] = SolvePolicy()
    threads: int = 1
    store_responses: bool = True
    fold: bool = True
    histogram_bins: int = 0
    histogram_range: Tuple[float, float] = DEFAULT_HISTOGRAM_RANGE
    specs: Optional[tuple] = None

    def statistics(self, frequencies) -> EnsembleStatistics:
        """A fresh statistics accumulator in this run's histogram layout."""
        low, high = self.histogram_range
        return EnsembleStatistics(frequencies=frequencies,
                                  histogram_bins=self.histogram_bins,
                                  histogram_low_db=low,
                                  histogram_high_db=high)

    def yields(self) -> Optional[StreamingYield]:
        """A fresh yield accumulator (``None`` without yield specs)."""
        if not self.specs:
            return None
        return StreamingYield([spec.name for spec in self.specs])


def _resolve(circuit, frequencies, space=None, values=None, *, samples=128,
             seed=0, sampler="random", solver="lapack", method="auto",
             workers=None, on_failure=_SUPERVISED_DEFAULTS.on_failure,
             policy=None, store_responses=True, fold=True,
             histogram_bins=None, histogram_range=None, weights=None,
             yield_specs=None):
    """Check a driver's arguments and apply the defaults table.

    ``workers`` is the thread count inside a shard.  Returns ``(space,
    frequencies, values, weights, options)`` with the values drawn or
    validated and the options resolved.
    """
    if solver not in _SOLVERS:
        raise FormulationError(f"unknown ensemble solver {solver!r}")
    if method not in ("auto", "dense", "sparse"):
        raise FormulationError(f"unknown factorization method {method!r}")
    if on_failure not in ("raise", "quarantine"):
        raise FormulationError(f"unknown failure mode {on_failure!r}")
    if space is None:
        space = ParameterSpace(circuit)
    frequencies = np.asarray(frequencies, dtype=float)
    if values is None:
        values = space.sample_values(samples, seed, method=sampler)
    else:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(space):
            raise FormulationError(
                f"values must be (M, {len(space)}), got {values.shape}")
    if store_responses:
        # Weights and yields are folded per shard only when streaming; the
        # histogram needs a statistics fold to live in.
        streaming_only = {"weights": weights, "yield_specs": yield_specs}
        if not fold:
            streaming_only.update(histogram_bins=histogram_bins,
                                  histogram_range=histogram_range)
        for name, argument in streaming_only.items():
            if argument is not None:
                raise FormulationError(
                    f"{name} requires the streaming mode "
                    "(store_responses=False); a stored-mode run computes "
                    "these through repro.analysis.montecarlo instead")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (values.shape[0],):
            raise FormulationError(
                f"weights must be ({values.shape[0]},) to match the sample "
                f"rows, got {weights.shape}")
    specs = None
    if yield_specs is not None:
        from ..analysis.montecarlo import YieldSpec

        specs = ((yield_specs,) if isinstance(yield_specs, YieldSpec)
                 else tuple(yield_specs))
    if histogram_bins is None:
        histogram_bins = 0 if store_responses else DEFAULT_HISTOGRAM_BINS
    low, high = (DEFAULT_HISTOGRAM_RANGE if histogram_range is None
                 else histogram_range)
    resilient = on_failure == "quarantine" or policy is not None
    if resilient:
        threads = 1
    elif workers is None:
        threads = max(1, min(_MAX_DEFAULT_THREADS, os.cpu_count() or 1))
    else:
        threads = max(1, int(workers))
    options = _Options(
        solver=solver, method=method, on_failure=on_failure,
        policy=(policy or SolvePolicy()) if resilient else None,
        threads=threads, store_responses=bool(store_responses), fold=fold,
        histogram_bins=int(histogram_bins),
        histogram_range=(float(low), float(high)), specs=specs)
    return space, frequencies, values, weights, options


# --------------------------------------------------------------------------- #
# the pipeline: evaluator and sink
# --------------------------------------------------------------------------- #


@dataclasses.dataclass
class _ShardOutcome:
    """What one evaluated shard hands the sink (pickled across processes)."""

    report: Optional[SweepReport]
    statistics: Optional[EnsembleStatistics]
    yields: Optional[StreamingYield]
    solver: str


@dataclasses.dataclass
class _Evaluator:
    """Everything a shard needs to become an outcome, built once per call.

    Worker processes receive it in their payload, so no process rebuilds the
    MNA system or the value program per shard.  ``engine`` is the sparse
    path's :class:`~repro.engine.sweep.SweepEngine` over the program's
    :class:`_StampedStructure` (``None`` on the dense path, which needs
    only the program).
    """

    frequencies: np.ndarray
    rhs: np.ndarray
    terms: list
    program: object
    dense: bool
    options: _Options
    engine: Optional[SweepEngine] = None

    @classmethod
    def build(cls, circuit, output, frequencies, space, options):
        # Both builders are looked up in this module at call time: the fault
        # harness patches ValueProgram here, and the benchmark counts builds.
        system = build_mna_system(circuit)
        program = ValueProgram.from_circuit(circuit, space)
        keys = sorted(set(program.constant_program.keys)
                      | set(program.dynamic_program.keys))
        engine = SweepEngine(_StampedStructure(program.dimension, keys),
                             method=options.method)
        return cls(frequencies=frequencies, rhs=system.rhs,
                   terms=_output_terms(system, output), program=program,
                   dense=engine.is_dense, options=options,
                   engine=None if engine.is_dense else engine)

    def __call__(self, values, weights=None, out=None,
                 threads=1) -> _ShardOutcome:
        """Solve ``values`` into ``out`` (rows × F) and fold the shard.

        A stored run passes its response rows as ``out``; a streaming run
        lets the rows live only for this shard.
        """
        options = self.options
        if out is None:
            out = np.empty((values.shape[0], len(self.frequencies)),
                           dtype=complex)
        report = None
        if options.policy is not None:
            report = SweepReport(label="ensemble member", kind="sample",
                                 total=values.shape[0])
        s = 2j * math.pi * self.frequencies
        if self.dense:
            solver = options.solver
            _dense_ensemble(self.program, self.rhs, s, values, self.terms,
                            solver, threads, options.policy, report, out)
        else:
            solver = "sparse"
            _sparse_ensemble(self.engine, self.program, self.rhs, s, values,
                             self.terms, options.policy, report, out)
        if report is not None and report.failures:
            if options.on_failure == "raise":
                failure = report.failures[0]
                raise SolveFailureError(
                    f"{failure.description} is singular: {failure.reason}",
                    sample=failure.index)
            # Quarantine whole samples: one bad point invalidates the member.
            out[report.quarantined] = np.nan
        statistics = yields = None
        if options.fold:
            surviving = _surviving(out, report)
            statistics = options.statistics(self.frequencies)
            statistics.update(_magnitudes_db(out)[surviving],
                              None if weights is None else weights[surviving])
            yields = options.yields()
            if yields is not None:
                yields.update(self.frequencies, out, options.specs,
                              surviving=surviving, weights=weights)
        return _ShardOutcome(report=report, statistics=statistics,
                             yields=yields, solver=solver)


class _ShardSink:
    """The in-order end of the pipeline: one run's merged state.

    :meth:`absorb` takes each completed shard in fixed shard order — whatever
    order the shards finished in — so merging each shard's accumulators into
    the running ones replays the same additions in every driver, for every
    worker count, and across kill and resume.  A checkpointed run starts the
    sink from the state it restored.
    """

    def __init__(self, frequencies, num_samples, options):
        self.frequencies = frequencies
        self.options = options
        self.responses = (np.zeros((num_samples, len(frequencies)),
                                   dtype=complex)
                          if options.store_responses else None)
        self.statistics = (options.statistics(frequencies) if options.fold
                           else None)
        self.yields = options.yields()
        self.report = (SweepReport(label="ensemble member", kind="sample",
                                   total=0)
                       if options.policy is not None else None)
        self.solver_used = options.solver
        self.completed = 0

    def absorb(self, start, stop, outcome, rows=None) -> None:
        """Take the next shard, ``[start, stop)``, in plan order.

        ``rows`` are its responses when they were written elsewhere (the
        supervisor's shared buffer); inline shards write straight into
        :attr:`responses`.
        """
        if rows is not None:
            self.responses[start:stop] = rows
        if outcome.statistics is not None:
            self.statistics.merge(outcome.statistics)
        if outcome.yields is not None:
            self.yields.merge(outcome.yields)
        if self.report is not None:
            if outcome.report is not None:
                merge_shard_report(self.report, outcome.report, start)
            self.report.total = stop
        self.solver_used = outcome.solver
        self.completed = stop

    def result(self, values, space, output, weights=None,
               parallel=None) -> "EnsembleResult":
        """The finished run as an :class:`EnsembleResult`."""
        streaming = not self.options.store_responses
        return EnsembleResult(
            frequencies=self.frequencies, values=values,
            responses=self.responses, space=space,
            output=_normalize_output(output), solver=self.solver_used,
            report=self.report, parallel=parallel,
            statistics=self.statistics if streaming else None,
            yields=self.yields, weights=weights)


def ensemble_sweep(circuit, output, frequencies, space=None, *, values=None,
                   samples=128, seed=0, solver="lapack", method="auto",
                   workers=None, on_failure=_ENSEMBLE_DEFAULTS.on_failure,
                   policy=None, store_responses=True,
                   shard_size=_ENSEMBLE_DEFAULTS.shard_size,
                   histogram_bins=None, histogram_range=None,
                   weights=None, yield_specs=None) -> EnsembleResult:
    """Evaluate a tolerance ensemble of ``circuit`` over a frequency grid.

    Parameters
    ----------
    circuit:
        The circuit at its design point (any MNA-supported content).
    output:
        Output node, ``(positive, negative)`` pair or
        :class:`~repro.nodal.reduce.TransferSpec`.
    frequencies:
        Sweep grid in hertz.
    space:
        The :class:`~repro.montecarlo.space.ParameterSpace`; defaults to the
        tolerances carried by the circuit's elements.
    values:
        Optional explicit ``(M, E)`` element-value matrix (e.g. corner
        values).  Default: ``space.sample_values(samples, seed)``.
    samples, seed:
        Monte Carlo draw size and RNG seed when ``values`` is not given.
    solver:
        ``"lapack"`` (default, highest throughput) or ``"lu"`` (the
        hand-rolled batched factorization whose outputs are bit-identical to
        the rebuild-per-sample path).  Ignored on the sparse path.
    method:
        ``"auto"`` (dense at or below the configured cutoff), ``"dense"``
        or ``"sparse"``.
    workers:
        Worker threads for the dense path (default: up to 4, bounded by the
        CPU count; 1 disables threading).  Results are identical for any
        worker count.  Resilient runs execute serially so the quarantine
        report is deterministic.
    on_failure:
        ``"raise"`` (default): a singular member aborts the sweep — with no
        ``policy`` this is the legacy path, bit-identical to prior releases.
        ``"quarantine"``: failing members escalate through the
        :class:`~repro.engine.resilience.SolvePolicy` chain, and samples
        that remain unrecoverable are masked to NaN and named in
        ``result.report`` instead of aborting the ensemble.
    policy:
        The escalation :class:`~repro.engine.resilience.SolvePolicy`
        (defaults to ``SolvePolicy()`` when ``on_failure="quarantine"``).
    store_responses:
        ``False`` switches to **streaming estimation**: the ensemble is
        evaluated shard by shard (``shard_size`` samples at a time) and each
        shard's response rows are folded into mergeable accumulators — a
        :class:`~repro.montecarlo.statistics.EnsembleStatistics` (min / max
        / mean / std plus a fixed-bin log-magnitude histogram for
        percentile envelopes) and, with ``yield_specs``, a
        :class:`~repro.montecarlo.statistics.StreamingYield` — then
        discarded.  Peak memory is O(M·E + shard·F + F·bins + chunk
        budget) instead of O(M×F), whatever the thread count; the result
        carries ``responses=None`` with the estimates in
        ``result.statistics`` / ``result.yields``.  Statistics are
        bit-identical to a stored-mode run's shard-ordered folds for the
        same ``shard_size``.
    shard_size:
        Samples per streaming fold (ignored when ``store_responses=True``).
        Match a checkpointed / parallel run's ``shard_size`` for
        bit-identical statistics streams.
    histogram_bins, histogram_range:
        Streaming percentile histogram layout: bin count (default
        :data:`~repro.montecarlo.statistics.DEFAULT_HISTOGRAM_BINS`; 0
        disables) and ``(low_db, high_db)`` range.  Streaming mode only.
    weights:
        Optional ``(M,)`` per-sample likelihood-ratio weights (importance
        sampling, from
        :meth:`~repro.montecarlo.space.ParameterSpace.importance_sample`);
        threaded through every streaming accumulator.  Streaming mode only.
    yield_specs:
        Optional :class:`~repro.analysis.montecarlo.YieldSpec` (or sequence)
        evaluated per sample into ``result.yields``.  Streaming mode only.

    Returns
    -------
    EnsembleResult

    Raises
    ------
    SingularMatrixError
        When some ensemble member is singular at some sweep point and
        ``on_failure="raise"``.
    """
    from . import parallel

    space, frequencies, values, weights, options = _resolve(
        circuit, frequencies, space, values, samples=samples, seed=seed,
        solver=solver, method=method, workers=workers, on_failure=on_failure,
        policy=policy, store_responses=store_responses,
        fold=not store_responses, histogram_bins=histogram_bins,
        histogram_range=histogram_range, weights=weights,
        yield_specs=yield_specs)
    # A stored run is one shard: shard_size only cuts streaming folds.
    plan = parallel.shard_plan(
        values.shape[0],
        shard_size if not store_responses else max(1, values.shape[0]))
    run = parallel.run_shards(circuit, output, frequencies, space, values,
                              plan, options=options, weights=weights,
                              workers=1)
    return run.sink.result(values, space, output, weights)


def rebuild_sweep(circuit, output, frequencies, space=None, *, values=None,
                  samples=128, seed=0, solver="lu",
                  method="auto") -> EnsembleResult:
    """The M-independent-rebuilds reference: one circuit per sample.

    ``solver="lu"`` routes every sample through the standard
    :class:`~repro.analysis.ac.ACAnalysis` production path (circuit copy,
    MNA build, batched AC sweep) — :func:`ensemble_sweep` with
    ``solver="lu"`` reproduces its outputs bit-for-bit.  ``solver="lapack"``
    runs the same per-sample rebuild against
    :func:`~repro.linalg.dense.batched_solve`, the one-at-a-time twin of the
    vectorized LAPACK arm.
    """
    if solver not in _SOLVERS:
        raise FormulationError(f"unknown ensemble solver {solver!r}")
    from ..analysis.ac import ACAnalysis

    if space is None:
        space = ParameterSpace(circuit)
    frequencies = np.asarray(frequencies, dtype=float)
    if values is None:
        values = space.sample_values(samples, seed)
    else:
        values = np.asarray(values, dtype=float)
    responses = np.zeros((values.shape[0], len(frequencies)), dtype=complex)
    for sample in range(values.shape[0]):
        perturbed = space.apply(values[sample])
        if solver == "lu":
            responses[sample] = ACAnalysis(
                perturbed, output, method=method).frequency_response(
                    frequencies)
        else:
            system = build_mna_system(perturbed)
            stack = system.assemble_batch(2j * math.pi * frequencies)
            solutions = batched_solve(stack, system.rhs)
            responses[sample] = _project(_output_terms(system, output),
                                         solutions)
    return EnsembleResult(frequencies=frequencies, values=values,
                          responses=responses, space=space,
                          output=_normalize_output(output), solver=solver)
