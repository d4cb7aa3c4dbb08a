"""Batched frequency-sweep factorization engine, shared by every formulation.

One sweep is "factor ``A(s_k) = g·G + s_k·f·C`` at every point of a frequency
grid, reusing everything that does not depend on the frequency".  The engine
owns the whole strategy:

* **dispatch** — dense at or below the :mod:`repro.linalg.config` cutoff,
  sparse above (``method="auto"``), or forced either way;
* **dense path** — the sweep is assembled chunk by chunk (so the ``(K, n, n)``
  stack never outgrows a fixed memory budget) and factored with
  :func:`~repro.linalg.dense.batched_dense_lu`, one vectorized elimination
  per chunk;
* **sparse path** — the union sparsity structure is assembled once, a
  fill-reducing elimination order (:mod:`repro.linalg.ordering`, AMD by
  default) is computed from it, and the ordered pivot search runs at the
  first point (:func:`~repro.linalg.lu.sparse_lu_reusing`).  Its pivot
  order becomes a :class:`~repro.linalg.lu.SparseRefactorPlan` (one slot per
  L/U entry, fill included, built once per pivot order), and the other
  points are refactored along it in chunks: one broadcast assembles a
  chunk's values, one :class:`~repro.linalg.lu.BatchedSparseLU` pass factors
  them.
  A chunk holds as many points as keep ``points × slots`` within the
  :func:`~repro.linalg.dense.chunk_points` budget (the dense path's
  ``_SWEEP_CHUNK_ELEMENTS``).  A point whose reused pivot is zero or below
  ``1e-8`` of its column maximum ends its chunk; the scalar
  :func:`~repro.linalg.lu.sparse_lu_reusing` serves it (fresh pivoting, or
  ``SingularMatrixError`` naming the point), and the next chunk replays the
  new pattern.  So pivot choices and counters are the per-point ones.  The
  batched kernel rounds like the scalar code, so results match the
  per-point path bit for bit whenever no matrix entry is exactly zero, and
  to rounding otherwise.

:class:`SweepEngine` streams factors (factor, use, discard — the memory-light
shape of ``ac_sweep``); :class:`SweepFactors` keeps them (the shape of
``ac_factor_sweep`` and the rank-1 screening, where every subsequent solve
costs O(n²) instead of an O(n³) refactorization).  The MNA sweeps
(:mod:`repro.mna.solve`), the interpolation batch sampler
(:mod:`repro.nodal.batch`), the sensitivity engine
(:mod:`repro.analysis.sensitivity`) and the sparse Monte Carlo ensemble
(:mod:`repro.montecarlo.engine`, one :meth:`SweepEngine.solve_values` sweep
per member) are all thin adapters over this module.
"""

from __future__ import annotations

import numpy as np

from ..errors import (FormulationError, SingularMatrixError,
                      SolveFailureError)
from ..linalg.config import (SPARSE_ORDERINGS, dense_cutoff, sparse_ordering,
                             use_dense)
from ..linalg.dense import batched_dense_lu, chunk_points, sweep_chunk_size
from ..linalg.lu import BatchedSparseLU, SparseRefactorPlan, sparse_lu_reusing
from ..linalg.ordering import fill_reducing_order
from ..linalg.sparse import SparseMatrix
from .resilience import (SolvePolicy, SweepReport, resilient_sparse_solve,
                         solve_stack_resilient)

__all__ = ["SweepEngine", "SweepFactors"]

_METHODS = ("auto", "dense", "sparse")

#: Failure modes of the resilient solve entry points: ``"raise"`` aborts on
#: the first unrecoverable point (the legacy behavior when no policy is
#: given), ``"quarantine"`` masks it to NaN and records it in the engine's
#: :attr:`SweepEngine.last_report`.
_FAILURE_MODES = ("raise", "quarantine")


class SweepEngine:
    """Factorization strategy for one formulation across frequency sweeps.

    Parameters
    ----------
    formulation:
        Any :class:`~repro.engine.formulation.Formulation` (an
        :class:`~repro.mna.builder.MnaSystem` or a
        :class:`~repro.nodal.admittance.NodalFormulation`).
    method:
        ``"auto"`` (dense at or below the configured cutoff), ``"dense"`` or
        ``"sparse"``.
    singular_label:
        Noun used in :class:`~repro.errors.SingularMatrixError` messages
        (``"matrix"``, ``"MNA matrix"``, …), so adapters keep their historic
        diagnostics.
    ordering:
        Sparse elimination-ordering strategy (see
        :data:`~repro.linalg.config.SPARSE_ORDERINGS`): ``"auto"`` / ``"amd"``
        / ``"rcm"`` / ``"natural"`` pre-order the merged structure once and
        eliminate along that fixed order, ``"markowitz"`` keeps the dynamic
        per-step pivot search.  Default: the
        :func:`~repro.linalg.config.sparse_ordering` configuration.

    Attributes
    ----------
    factorization_count:
        Full (pivot-searching) factorizations performed; the dense path
        counts one per sweep point.
    refactorization_count:
        Structure-reusing numeric refactorizations (sparse path only), one
        per point, whether replayed in a chunk or by the scalar fallback.
    dense_cutoff:
        The dense/sparse dispatch cutoff, snapshotted at construction
        (``REPRO_DENSE_CUTOFF`` is read once per engine, so one engine never
        mixes backends when the environment changes mid-life).

    The engine instance carries the sparse pivot pattern across calls, so a
    long-lived engine (e.g. inside a :class:`~repro.nodal.batch.BatchSampler`)
    keeps refactoring cheaply from one sweep to the next.
    """

    def __init__(self, formulation, method="auto", singular_label="matrix",
                 ordering=None):
        if method not in _METHODS:
            raise FormulationError(f"unknown factorization method {method!r}")
        if ordering is None:
            ordering = sparse_ordering()
        elif ordering not in SPARSE_ORDERINGS:
            raise FormulationError(
                f"unknown sparse ordering {ordering!r}")
        self.formulation = formulation
        self.method = method
        self.singular_label = singular_label
        self.ordering = ordering
        self.dense_cutoff = dense_cutoff()
        self.factorization_count = 0
        self.refactorization_count = 0
        #: :class:`~repro.engine.resilience.SweepReport` of the most recent
        #: resilient solve (``None`` after a legacy, non-resilient call).
        self.last_report = None
        self._sparse_pattern = None
        self._sparse_plan = None
        self._plan_pattern = None
        self._column_order = None

    @property
    def dimension(self):
        """Number of unknowns of the underlying formulation."""
        return self.formulation.dimension

    @property
    def is_dense(self):
        """True when this engine factors through the dense (batched) LU."""
        return use_dense(self.formulation.dimension, self.method,
                         cutoff=self.dense_cutoff)

    def column_order(self):
        """The engine's fill-reducing elimination order (``None`` = Markowitz).

        Computed once per engine from the merged sparsity structure — purely
        structural, so it is shared by every sweep point, every parameter
        sample and every refactorization fallback this engine performs.
        """
        if self.ordering == "markowitz":
            return None
        if self._column_order is None:
            keys, __, __ = self.formulation.merged_sparse_structure()
            self._column_order = fill_reducing_order(
                self.formulation.dimension, keys, method=self.ordering)
        return self._column_order

    # ------------------------------------------------------------------ #
    # streaming factor production
    # ------------------------------------------------------------------ #

    def dense_chunks(self, s, conductance_scale=1.0, frequency_scale=1.0):
        """Yield ``(start, BatchedDenseLU)`` chunks covering the sweep.

        Chunks are sized by :func:`~repro.linalg.dense.sweep_chunk_size` so
        the assembled stack stays within a fixed memory budget regardless of
        grid length.

        Raises
        ------
        SingularMatrixError
            When the assembled matrix is singular at some sweep point.
        """
        chunk = sweep_chunk_size(self.formulation.dimension)
        for start in range(0, len(s), chunk):
            block = s[start:start + chunk]
            stack = self.formulation.assemble_batch(block, conductance_scale,
                                                    frequency_scale)
            factorization = batched_dense_lu(stack, overwrite=True)
            self.factorization_count += len(block)
            if factorization.singular.any():
                index = int(np.argmax(factorization.singular))
                raise SingularMatrixError(
                    f"{self.singular_label} is singular at sweep point "
                    f"{start + index} (s={complex(block[index])!r})"
                )
            yield start, factorization

    def sparse_chunks(self, s, conductance_scale=1.0, frequency_scale=1.0):
        """Yield ``(start, BatchedSparseLU)`` chunks covering the sweep.

        The union sparsity structure comes from the formulation's cache; the
        pivot order found at the first point — along the engine's
        fill-reducing :meth:`column_order` — is replayed over whole chunks
        by :meth:`~repro.linalg.lu.SparseRefactorPlan.refactor` (see
        :meth:`_sparse_chunks`).

        Raises
        ------
        SingularMatrixError
            When no acceptable pivot exists at some sweep point; the error's
            ``sweep_point`` names it.
        """
        __, constant_values, dynamic_values = (
            self.formulation.merged_sparse_structure())
        base = (constant_values if conductance_scale == 1.0
                else conductance_scale * constant_values)
        yield from self._sparse_chunks(np.asarray(s, dtype=complex), base,
                                       dynamic_values, frequency_scale)

    def _refactor_plan(self):
        """The slot plan of the current pivot pattern.

        A plan depends only on the keys and the pivot order, so a new
        pattern that pivots like the last one (the next Monte Carlo sample,
        usually) keeps its plan.
        """
        pattern = self._sparse_pattern
        if self._plan_pattern is not pattern:
            plan = self._sparse_plan
            if (plan is None or plan.pivot_rows != pattern.pivot_rows
                    or plan.pivot_cols != pattern.pivot_cols):
                keys, __, __ = self.formulation.merged_sparse_structure()
                self._sparse_plan = SparseRefactorPlan(
                    self.formulation.dimension, keys, pattern.pivot_rows,
                    pattern.pivot_cols)
            self._plan_pattern = pattern
        return self._sparse_plan

    def _sparse_chunks(self, s, base, dynamic, frequency_scale, where=""):
        """Factor ``base + s_k·f·dynamic`` over the sweep, chunk by chunk.

        Each chunk holds as many points as fit ``points × slots`` into the
        :func:`~repro.linalg.dense.chunk_points` budget, its values
        assembled in one broadcast.  Scalar
        :func:`~repro.linalg.lu.sparse_lu_reusing` serves the first point
        with no pattern and the first point of a chunk whose reused pivot
        is zero or degraded (falling back to fresh pivoting, whose new
        pattern and plan serve the points after it) as one-point chunks, so
        pivot choices and counters follow the per-point policy exactly.
        ``where`` qualifies the point in error messages.
        """
        keys, __, __ = self.formulation.merged_sparse_structure()
        n = self.formulation.dimension
        num_keys = len(keys)
        factors = s * frequency_scale if frequency_scale != 1.0 else s
        start = 0
        while start < len(s):
            if self._sparse_pattern is not None:
                plan = self._refactor_plan()
                block = factors[start:start + chunk_points(plan.slots)]
                # Points-major broadcast: the per-point ``base + s·dynamic``
                # rounding (numpy's complex multiply depends on the layout).
                values = base[None, :] + block[:, None] * dynamic[None, :]
                stack = np.zeros((2, plan.slots, len(block)))
                stack[0, :num_keys] = values.real.T
                stack[1, :num_keys] = values.imag.T
                factorization = plan.refactor(stack)
                stable = len(block)
                if factorization.unstable.any():
                    stable = int(np.argmax(factorization.unstable))
                    factorization = BatchedSparseLU(
                        plan, stack[:, :, :stable].copy(),
                        factorization.unstable[:stable])
                if stable:
                    self.refactorization_count += stable
                    yield start, factorization
                    start += stable
                if stable == len(block):
                    continue
            matrix = SparseMatrix.from_entries(
                n, n, zip(keys, (base + factors[start] * dynamic).tolist()))
            try:
                factorization, self._sparse_pattern, refactored = (
                    sparse_lu_reusing(matrix, self._sparse_pattern,
                                      column_order=self.column_order()))
            except SingularMatrixError as error:
                raise SingularMatrixError(
                    f"{self.singular_label} is singular{where} at sweep "
                    f"point {start} (s={complex(s[start])!r}): {error}",
                    pivot_index=error.pivot_index, dimension=n,
                    sweep_point=start) from error
            if refactored:
                self.refactorization_count += 1
            else:
                self.factorization_count += 1
            yield start, BatchedSparseLU.from_factorization(
                self._refactor_plan(), factorization)
            start += 1

    def _chunks(self, s, conductance_scale, frequency_scale):
        """The dense or sparse chunk stream, whichever this engine runs."""
        chunks = self.dense_chunks if self.is_dense else self.sparse_chunks
        return chunks(s, conductance_scale, frequency_scale)

    # ------------------------------------------------------------------ #
    # whole-sweep conveniences
    # ------------------------------------------------------------------ #

    def solve_sweep(self, s, rhs, conductance_scale=1.0,
                    frequency_scale=1.0, *, on_failure="raise",
                    policy=None) -> np.ndarray:
        """Solve ``A(s_k) x_k = rhs`` at every point, discarding the factors.

        ``rhs`` is one shared right-hand side (broadcast over the sweep).
        Returns ``(K, n)`` complex solutions in input order.

        ``on_failure="raise"`` with no ``policy`` (the default) is the legacy
        path: the first singular point raises
        :class:`~repro.errors.SingularMatrixError` and results are
        bit-identical to prior releases.  Supplying a
        :class:`~repro.engine.resilience.SolvePolicy` (or
        ``on_failure="quarantine"``) activates the escalation chain: failing
        points are recovered through progressively more careful
        factorizations, and unrecoverable ones either abort (``"raise"``)
        or are masked to NaN (``"quarantine"``) — either way the outcome is
        recorded in :attr:`last_report`.
        """
        if on_failure not in _FAILURE_MODES:
            raise FormulationError(f"unknown failure mode {on_failure!r}")
        s = np.asarray(s, dtype=complex)
        solutions = np.zeros((len(s), self.formulation.dimension),
                             dtype=complex)
        if on_failure == "raise" and policy is None:
            self.last_report = None
            if len(s) == 0:
                return solutions
            for start, factorization in self._chunks(s, conductance_scale,
                                                     frequency_scale):
                solutions[start:start + factorization.batch] = (
                    factorization.solve(rhs))
            return solutions

        policy = policy or SolvePolicy()
        report = SweepReport(label=self.singular_label, kind="sweep point",
                             total=len(s))
        self.last_report = report
        if len(s) == 0:
            return solutions
        if self.is_dense:
            chunk = sweep_chunk_size(self.formulation.dimension)
            for start in range(0, len(s), chunk):
                block = s[start:start + chunk]
                stack = self.formulation.assemble_batch(
                    block, conductance_scale, frequency_scale)
                self.factorization_count += len(block)
                before = len(report.failures)

                def indexer(member, start=start, block=block):
                    point = start + member
                    return point, (f"sweep point {point} "
                                   f"(s={complex(block[member])!r})")

                solutions[start:start + len(block)] = solve_stack_resilient(
                    stack, rhs, policy, report, indexer)
                if on_failure == "raise" and len(report.failures) > before:
                    failure = report.failures[before]
                    raise SolveFailureError(
                        f"{self.singular_label} is singular at "
                        f"{failure.description}: {failure.reason}",
                        sweep_point=failure.index)
        else:
            __, constant_values, dynamic_values = (
                self.formulation.merged_sparse_structure())
            base = (constant_values if conductance_scale == 1.0
                    else conductance_scale * constant_values)
            for k, point in enumerate(s):
                factor = complex(point)
                if frequency_scale != 1.0:
                    factor = factor * frequency_scale
                solutions[k] = self._resilient_sparse_point(
                    base + factor * dynamic_values, rhs, policy, report, k,
                    f"sweep point {k} (s={factor!r})", on_failure)
        return solutions

    def _resilient_sparse_point(self, values, rhs, policy, report, index,
                                description, on_failure):
        """One resilient sparse solve of the merged-key ``values``, with
        engine counter / report upkeep."""
        keys, __, __ = self.formulation.merged_sparse_structure()
        n = self.formulation.dimension
        matrix = SparseMatrix.from_entries(n, n, zip(keys, values.tolist()))
        had_pattern = self._sparse_pattern is not None
        try:
            x, diagnostics, self._sparse_pattern = resilient_sparse_solve(
                matrix, rhs, policy, self._sparse_pattern,
                self.column_order())
        except SolveFailureError as error:
            self.factorization_count += 1
            escalations = (error.diagnostics.escalations
                           if error.diagnostics is not None else ())
            report.record_failure(index, description, str(error), escalations)
            if on_failure == "raise":
                raise SolveFailureError(
                    f"{self.singular_label} is singular at {description}: "
                    f"{error}", sweep_point=index,
                    diagnostics=error.diagnostics) from error
            return np.nan
        if diagnostics.stage == "fast":
            if had_pattern:
                self.refactorization_count += 1
            else:
                self.factorization_count += 1
            report.record_fast()
            if diagnostics.degraded:
                report.record_degraded(index, diagnostics.condition)
        else:
            self.factorization_count += 1
            report.record_recovery(index, diagnostics)
        return x

    def solve_values(self, s, base, dynamic, rhs, *, member, policy=None,
                     report=None) -> np.ndarray:
        """Solve ``(base + s_k·dynamic) x_k = rhs`` over the grid, from scratch.

        ``base`` / ``dynamic`` are value vectors over the formulation's
        merged sparse keys, used in place of its own values: one Monte
        Carlo ensemble ``member``'s.  The sweep starts with no pivot
        pattern, as an engine rebuilt for those values would, and refactors
        along its own pivot order over the grid in :meth:`_sparse_chunks`.
        Returns ``(K, n)`` solutions.

        With a ``policy`` every point instead goes through the escalation
        chain of :meth:`solve_sweep`, recorded in ``report`` under index
        ``member``; the first unrecoverable point ends the sweep and leaves
        every row NaN.
        """
        self._sparse_pattern = None
        s = np.asarray(s, dtype=complex)
        solutions = np.empty((len(s), self.formulation.dimension),
                             dtype=complex)
        if policy is None:
            for start, factorization in self._sparse_chunks(
                    s, base, dynamic, 1.0, where=f" for sample {member}"):
                solutions[start:start + factorization.batch] = (
                    factorization.solve(rhs))
            return solutions
        before = len(report.failures)
        for k, point in enumerate(s):
            solutions[k] = self._resilient_sparse_point(
                base + complex(point) * dynamic, rhs, policy, report, member,
                f"ensemble member {member} at sweep point {k}", "quarantine")
            if len(report.failures) > before:
                solutions[:] = np.nan
                break
        return solutions

    def factor_sweep(self, s, conductance_scale=1.0,
                     frequency_scale=1.0) -> "SweepFactors":
        """Factor at every point and *keep* the factors (see :class:`SweepFactors`)."""
        s = np.asarray(list(s), dtype=complex)
        factors = list(self._chunks(s, conductance_scale, frequency_scale))
        return SweepFactors(self.formulation, s, self.is_dense, factors)


class SweepFactors:
    """Cached LU factors of ``A(s_k)`` across one whole frequency sweep.

    Where :meth:`SweepEngine.solve_sweep` factors, solves once and discards,
    this object *keeps* the factors as the streaming path's chunks —
    :class:`~repro.linalg.dense.BatchedDenseLU` stacks on the dense path,
    :class:`~repro.linalg.lu.BatchedSparseLU` stacks on the sparse path —
    with the same chunking and kernels, so solutions are bit-identical to
    it.  Repeated solves against the same sweep — the
    baseline plus one solve per screened element in the rank-1 sensitivity
    engine — then cost O(n²) per right-hand side instead of an O(n³)
    refactorization.

    Build via :meth:`SweepEngine.factor_sweep` (or the
    :func:`repro.mna.solve.ac_factor_sweep` adapter).
    """

    def __init__(self, formulation, s_values, is_dense, factors):
        self.formulation = formulation
        self.s_values = s_values
        self.is_dense = is_dense
        #: ``(start_index, chunk)`` pairs: ``BatchedDenseLU`` chunks on the
        #: dense path, ``BatchedSparseLU`` chunks on the sparse path.
        self.factors = factors

    @property
    def num_points(self):
        """Number of sweep points covered by the cached factors."""
        return len(self.s_values)

    @property
    def dimension(self):
        """Number of unknowns per sweep point."""
        return self.formulation.dimension

    def solve(self, rhs) -> np.ndarray:
        """Solve ``A(s_k) x_k = rhs`` at every point; returns ``(K, n)``."""
        rhs = np.asarray(rhs, dtype=complex)
        solutions = np.zeros((len(self.s_values), self.dimension),
                             dtype=complex)
        for start, factorization in self.factors:
            solutions[start:start + factorization.batch] = (
                factorization.solve(rhs))
        return solutions

    def solve_columns(self, columns) -> np.ndarray:
        """Solve ``A(s_k) W = U`` for an ``(n, m)`` column stack at every point.

        Returns ``(K, n, m)`` — one solved column per right-hand-side column
        per sweep point.  The rank-1 screening pushes every element's
        incidence vector through the cached factors with a single call.
        """
        columns = np.asarray(columns, dtype=complex)
        if columns.ndim != 2 or columns.shape[0] != self.dimension:
            raise FormulationError(
                f"columns must be ({self.dimension}, m), got {columns.shape}"
            )
        solutions = np.zeros(
            (len(self.s_values), self.dimension, columns.shape[1]),
            dtype=complex)
        for start, factorization in self.factors:
            solutions[start:start + factorization.batch] = (
                factorization.solve_matrix(columns))
        return solutions

    @property
    def nbytes(self):
        """Bytes held by the kept chunk stacks."""
        return sum(factorization.nbytes for __, factorization in self.factors)

    def members(self):
        """Yield one scalar factorization per sweep point, in order.

        Dense chunks are exposed through
        :meth:`~repro.linalg.dense.BatchedDenseLU.member` views, whose
        determinant / substitution arithmetic is bit-for-bit the per-point
        :func:`~repro.linalg.dense.dense_lu` path — this is what keeps the
        interpolation samples identical between batched and per-point
        evaluation.  Sparse chunks give
        :meth:`~repro.linalg.lu.BatchedSparseLU.member` views.
        """
        for __, factorization in self.factors:
            for index in range(factorization.batch):
                yield factorization.member(index)

    def __repr__(self):
        kind = "dense" if self.is_dense else "sparse"
        return (f"SweepFactors(n={self.dimension}, points={self.num_points}, "
                f"path={kind!r})")
