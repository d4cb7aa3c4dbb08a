"""Sparse LU factorization with Markowitz threshold pivoting.

The factorization computes ``P A Q = L U`` where ``P`` and ``Q`` are row and
column permutations chosen at each elimination step by the Markowitz
criterion: among numerically acceptable pivots (magnitude at least
``threshold`` times the largest magnitude in the candidate's column), pick the
entry minimizing ``(r_i - 1)(c_j - 1)`` — the classical fill-in heuristic used
by sparse circuit simulators.

Two results matter downstream:

* :meth:`LUFactorization.solve` — solve ``A x = b`` (Eq. 7 of the paper) to
  obtain the network function value at one interpolation point,
* :meth:`LUFactorization.determinant` — ``det(A)`` as the product of pivots
  (Eq. 9), tracked as a complex mantissa plus a decimal exponent so that very
  large or very small determinants (routine for scaled admittance matrices)
  never overflow IEEE doubles.

A frequency sweep factors many matrices of one structure along one reused
pivot order.  That replay is vectorized over whole sweep chunks:

* :class:`SparseRefactorPlan` — built once per pivot pattern by a symbolic
  elimination over the merged key list.  Every L/U entry, fill included, gets
  a *slot* in a value array.  Elimination steps that do not read each
  other's results are grouped into *passes* (one per level of the
  dependency order), each stored as index arrays, so a pass runs as a
  handful of numpy operations however many steps it holds;
* :class:`BatchedSparseLU` — the points' values, real and imaginary parts
  as a ``(2, slots, points)`` stack, factored by
  :meth:`SparseRefactorPlan.refactor` one pass at a time.  It flags
  points whose reused pivot is zero or below ``1e-8`` of its column maximum
  (the :func:`sparse_lu_refactor` test) in ``unstable``, and offers
  vectorized determinants and solves plus scalar
  :meth:`~BatchedSparseLU.member` views.

The batched arithmetic replays CPython's scalar complex rounding, so it
equals the per-point :func:`sparse_lu_refactor` / :meth:`LUFactorization.solve`
bit for bit whenever no matrix entry is exactly zero.  An exact zero drops
out of the scalar row dicts and can reorder the back-substitution sums; the
two then agree to rounding.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import LinAlgError, SingularMatrixError
from ..xfloat import XFloat
from .dense import _POW10, _POW10_OFFSET
from .sparse import SparseMatrix

__all__ = ["sparse_lu", "sparse_lu_refactor", "sparse_lu_reusing",
           "LUFactorization", "SparseRefactorPlan", "BatchedSparseLU"]

#: A reused pivot is rejected when its magnitude falls below this share of
#: the largest magnitude left in its column.
_REFACTOR_STABILITY = 1e-8


def _permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as the image list ``perm[k] = original index``."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = perm[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class LUFactorization:
    """Result of :func:`sparse_lu`.

    The factorization stores, per elimination step ``k``:

    * ``pivot_rows[k]`` / ``pivot_cols[k]`` — the original row / column chosen,
    * ``pivots[k]`` — the pivot value,
    * ``eliminations[k]`` — list of ``(row, multiplier)`` pairs applied to the
      remaining rows,
    * ``upper_rows[k]`` — the pivot row after elimination (``{col: value}``).
    """

    def __init__(self, n, pivot_rows, pivot_cols, pivots, eliminations,
                 upper_rows, fill_in):
        self.n = n
        self.pivot_rows = pivot_rows
        self.pivot_cols = pivot_cols
        self.pivots = pivots
        self.eliminations = eliminations
        self.upper_rows = upper_rows
        self.fill_in = fill_in

    # -- determinant ---------------------------------------------------------

    def determinant_mantissa_exponent(self) -> Tuple[complex, int]:
        """Return ``det(A)`` as ``(mantissa, exponent)`` with ``mantissa * 10**exponent``.

        The mantissa is complex with magnitude normalized into ``[1, 10)``;
        a zero determinant returns ``(0j, 0)``.
        """
        mantissa = complex(1.0)
        exponent = 0
        for pivot in self.pivots:
            mantissa *= pivot
            if mantissa == 0:
                return 0.0 + 0.0j, 0
            magnitude = abs(mantissa)
            shift = int(math.floor(math.log10(magnitude)))
            if shift:
                mantissa /= 10.0**shift
                exponent += shift
        sign = (_permutation_sign(self.pivot_rows)
                * _permutation_sign(self.pivot_cols))
        mantissa *= sign
        return mantissa, exponent

    def determinant(self) -> complex:
        """``det(A)`` as a plain complex number (may overflow/underflow)."""
        mantissa, exponent = self.determinant_mantissa_exponent()
        if mantissa == 0:
            return 0.0 + 0.0j
        if exponent > 300:
            return mantissa * cmath.inf
        if exponent < -300:
            return 0.0 + 0.0j
        return mantissa * 10.0**exponent

    def determinant_xfloat(self) -> Tuple[XFloat, float]:
        """``|det(A)|`` as an :class:`~repro.xfloat.XFloat` plus the phase in radians."""
        mantissa, exponent = self.determinant_mantissa_exponent()
        if mantissa == 0:
            return XFloat.zero(), 0.0
        return XFloat(abs(mantissa), exponent), cmath.phase(mantissa)

    def log10_determinant_magnitude(self) -> float:
        """``log10 |det(A)|`` (``-inf`` for a singular matrix)."""
        mantissa, exponent = self.determinant_mantissa_exponent()
        if mantissa == 0:
            return -math.inf
        return math.log10(abs(mantissa)) + exponent

    # -- solve -----------------------------------------------------------------

    def solve(self, rhs):
        """Solve ``A x = b`` for a single right-hand side.

        Parameters
        ----------
        rhs:
            Sequence of length ``n`` (complex or real).

        Returns
        -------
        numpy.ndarray
            Complex solution vector of length ``n``.
        """
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.shape[0] != self.n:
            raise LinAlgError(
                f"rhs has {rhs.shape[0]} entries, expected {self.n}"
            )
        work = rhs.copy()
        # Forward elimination replay: the same row operations applied to A are
        # applied to b, in elimination order.
        for step in range(self.n):
            pivot_value = work[self.pivot_rows[step]]
            if pivot_value != 0:
                for row, multiplier in self.eliminations[step]:
                    work[row] -= multiplier * pivot_value
        # Back substitution over the stored upper rows.
        solution = np.zeros(self.n, dtype=complex)
        for step in range(self.n - 1, -1, -1):
            row_index = self.pivot_rows[step]
            col_index = self.pivot_cols[step]
            accumulator = work[row_index]
            for col, value in self.upper_rows[step].items():
                if col != col_index:
                    accumulator -= value * solution[col]
            solution[col_index] = accumulator / self.pivots[step]
        return solution


def sparse_lu(matrix, threshold=0.1, pivoting="markowitz", column_order=None):
    """Factor a square :class:`~repro.linalg.sparse.SparseMatrix`.

    Parameters
    ----------
    matrix:
        Square sparse matrix (it is not modified).
    threshold:
        Relative threshold ``u`` for numerically acceptable pivots: a candidate
        ``a_ij`` is acceptable when ``|a_ij| >= u * max_i |a_ij|`` over its
        column.  Smaller values favour sparsity over numerical safety.
    pivoting:
        ``"markowitz"`` (default) or ``"partial"`` (plain column-order with
        row pivoting, mostly useful for tests).
    column_order:
        Optional fill-reducing elimination order (a permutation of
        ``range(n)``, e.g. from
        :func:`~repro.linalg.ordering.fill_reducing_order`): step ``k``
        eliminates column ``column_order[k]``, preferring the structurally
        symmetric pivot row ``column_order[k]`` when its magnitude passes the
        ``threshold`` test against the column maximum, else falling back to
        the largest-magnitude row (threshold partial pivoting).  This replaces
        the O(active²) per-step Markowitz search with an O(column) choice —
        the production configuration for pre-ordered post-layout-scale
        matrices.  Overrides ``pivoting``.

    Returns
    -------
    LUFactorization

    Raises
    ------
    SingularMatrixError
        If no acceptable non-zero pivot can be found at some step (for
        ``column_order``, also when an ordered column is structurally empty —
        a structurally deficient matrix).
    """
    if matrix.n_rows != matrix.n_cols:
        raise LinAlgError("LU factorization requires a square matrix")
    if pivoting not in ("markowitz", "partial"):
        raise LinAlgError(f"unknown pivoting strategy {pivoting!r}")
    n = matrix.n_rows
    if column_order is not None:
        column_order = [int(col) for col in column_order]
        if sorted(column_order) != list(range(n)):
            raise LinAlgError(
                f"column_order must be a permutation of range({n})")
    if n == 0:
        return LUFactorization(0, [], [], [], [], [], 0)

    # Working row-wise copy plus a column index for pivot searching.
    rows: List[Dict[int, complex]] = matrix.rows()
    col_index: List[set] = [set() for __ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            col_index[j].add(i)

    active_rows = set(range(n))
    active_cols = set(range(n))
    pivot_rows: List[int] = []
    pivot_cols: List[int] = []
    pivots: List[complex] = []
    eliminations: List[List[Tuple[int, complex]]] = []
    upper_rows: List[Dict[int, complex]] = []
    initial_nnz = matrix.nnz
    fill_in = 0

    for step in range(n):
        if column_order is not None:
            pivot_row, pivot_col = _select_ordered_pivot(
                rows, col_index, active_rows, threshold, column_order[step]
            )
        else:
            pivot_row, pivot_col = _select_pivot(
                rows, col_index, active_rows, active_cols, threshold, pivoting
            )
        if pivot_row is None:
            raise SingularMatrixError(
                f"matrix is singular (no acceptable pivot at step "
                f"{len(pivots)} of {n})",
                pivot_index=len(pivots), dimension=n,
            )
        pivot_value = rows[pivot_row][pivot_col]
        pivot_rows.append(pivot_row)
        pivot_cols.append(pivot_col)
        pivots.append(pivot_value)
        upper_rows.append(dict(rows[pivot_row]))

        active_rows.discard(pivot_row)
        active_cols.discard(pivot_col)

        # Eliminate pivot_col from every remaining active row that has it.
        target_rows = [i for i in col_index[pivot_col] if i in active_rows]
        step_eliminations, step_fill = _eliminate_pivot_column(
            rows, col_index, active_cols, pivot_row, pivot_col, pivot_value,
            target_rows,
        )
        fill_in += step_fill
        eliminations.append(step_eliminations)

    return LUFactorization(
        n, pivot_rows, pivot_cols, pivots, eliminations, upper_rows, fill_in
    )


def _eliminate_pivot_column(rows, col_index, active_cols, pivot_row,
                            pivot_col, pivot_value, target_rows):
    """One elimination step shared by :func:`sparse_lu` and
    :func:`sparse_lu_refactor`: remove ``pivot_col`` from ``target_rows`` and
    update their remaining entries.  Returns ``(eliminations, fill_in)``.
    """
    step_eliminations: List[Tuple[int, complex]] = []
    fill_in = 0
    pivot_row_items = [(j, v) for j, v in rows[pivot_row].items()
                       if j in active_cols]
    for i in target_rows:
        multiplier = rows[i][pivot_col] / pivot_value
        step_eliminations.append((i, multiplier))
        row_i = rows[i]
        # Remove the eliminated entry.
        del row_i[pivot_col]
        col_index[pivot_col].discard(i)
        # Update the rest of the row.
        for j, pivot_entry in pivot_row_items:
            existing = row_i.get(j)
            if existing is None:
                new_value = -multiplier * pivot_entry
                if new_value != 0:
                    row_i[j] = new_value
                    col_index[j].add(i)
                    fill_in += 1
            else:
                new_value = existing - multiplier * pivot_entry
                if new_value == 0:
                    del row_i[j]
                    col_index[j].discard(i)
                else:
                    row_i[j] = new_value
    return step_eliminations, fill_in


def sparse_lu_refactor(matrix, pattern,
                       stability=_REFACTOR_STABILITY) -> LUFactorization:
    """Refactor ``matrix`` numerically, reusing the pivot order of ``pattern``.

    During a frequency sweep every matrix ``g·G + s_k·f·C`` shares one
    sparsity structure, so the (expensive) Markowitz pivot search only needs
    to run once: subsequent points replay the same elimination order with
    fresh numbers.  This is the classical factor-once / refactor-many split of
    sparse circuit simulators.

    Parameters
    ----------
    matrix:
        Square :class:`~repro.linalg.sparse.SparseMatrix` with (a subset of)
        the sparsity structure that produced ``pattern``.
    pattern:
        An :class:`LUFactorization` of a structurally identical matrix whose
        ``pivot_rows`` / ``pivot_cols`` sequence is reused.
    stability:
        A pivot is rejected when its magnitude falls below ``stability`` times
        the largest magnitude in its column over the remaining rows.  Callers
        should fall back to a fresh :func:`sparse_lu` (new pivot order) on
        :class:`~repro.errors.SingularMatrixError`.

    Raises
    ------
    SingularMatrixError
        When a reused pivot is zero or numerically unacceptable at the new
        frequency point.
    """
    if matrix.n_rows != matrix.n_cols:
        raise LinAlgError("LU refactorization requires a square matrix")
    n = matrix.n_rows
    if pattern.n != n:
        raise LinAlgError(
            f"pattern is for a {pattern.n}x{pattern.n} matrix, "
            f"got {n}x{n}"
        )
    rows: List[Dict[int, complex]] = matrix.rows()
    col_index: List[set] = [set() for __ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            col_index[j].add(i)

    active_rows = set(range(n))
    active_cols = set(range(n))
    pivots: List[complex] = []
    eliminations: List[List[Tuple[int, complex]]] = []
    upper_rows: List[Dict[int, complex]] = []
    fill_in = 0

    for step in range(n):
        pivot_row = pattern.pivot_rows[step]
        pivot_col = pattern.pivot_cols[step]
        pivot_value = rows[pivot_row].get(pivot_col, 0.0 + 0.0j)
        target_rows = [i for i in col_index[pivot_col]
                       if i in active_rows and i != pivot_row]
        if pivot_value == 0:
            raise SingularMatrixError(
                f"reused pivot ({pivot_row}, {pivot_col}) is zero at "
                f"step {step}; refactor with fresh pivoting",
                pivot_index=step, dimension=n,
            )
        if stability and target_rows:
            column_max = max(abs(rows[i][pivot_col]) for i in target_rows)
            if abs(pivot_value) < stability * column_max:
                raise SingularMatrixError(
                    f"reused pivot ({pivot_row}, {pivot_col}) lost "
                    f"{1.0 / stability:.0e} of its column magnitude at "
                    f"step {step}; refactor with fresh pivoting",
                    pivot_index=step, dimension=n,
                )
        pivots.append(pivot_value)
        upper_rows.append(dict(rows[pivot_row]))
        active_rows.discard(pivot_row)
        active_cols.discard(pivot_col)

        step_eliminations, step_fill = _eliminate_pivot_column(
            rows, col_index, active_cols, pivot_row, pivot_col, pivot_value,
            target_rows,
        )
        fill_in += step_fill
        eliminations.append(step_eliminations)

    return LUFactorization(
        n, list(pattern.pivot_rows), list(pattern.pivot_cols), pivots,
        eliminations, upper_rows, fill_in
    )


def sparse_lu_reusing(matrix, pattern, stability=_REFACTOR_STABILITY,
                      column_order=None):
    """Factor ``matrix``, reusing ``pattern``'s pivot order when possible.

    The factor-once / refactor-many policy of every sparse sweep path (the
    batched chunks of :class:`BatchedSparseLU` fall back to it for the
    points they cannot replay): with no ``pattern`` (first point) run the
    full pivot search — along the
    fill-reducing ``column_order`` when one is given, else the Markowitz
    scan — otherwise refactor along the known pivot order, falling back to a
    fresh factorization when a reused pivot is zero or numerically degraded.

    Returns
    -------
    (LUFactorization, LUFactorization, bool)
        The factorization, the pattern to reuse for the next point (a fresh
        factorization replaces a degraded pattern), and whether the cheap
        refactorization path was taken.
    """
    if pattern is not None:
        try:
            return (sparse_lu_refactor(matrix, pattern, stability=stability),
                    pattern, True)
        except SingularMatrixError:
            pass
    factorization = sparse_lu(matrix, column_order=column_order)
    return factorization, factorization, False


def _complex(real, imag):
    """The complex array with exactly these parts (``real + 1j * imag``
    can flip the sign of a zero)."""
    out = np.empty(np.shape(real), dtype=complex)
    out.real = real
    out.imag = imag
    return out


def _levels(accesses, size, costs, budget):
    """Group operations into passes that may each run as one numpy step.

    ``accesses`` lists ``(reads, writes)`` per operation in program order:
    indices into ``range(size)``, none repeated within one list.  An
    operation joins the first level after every earlier write to what it
    reads, and no earlier than any earlier read or write of what it writes.
    A pass that gathers all of a level's reads before its writes, and
    applies repeated writes to one location in program order (see
    :func:`_by_rank`), then gives the sequential result bit for bit.  Each
    level is split into runs of consecutive operations whose ``costs`` sum
    within ``budget`` (a run takes at least one operation).  Returns the
    passes as lists of operation indices.
    """
    last_read = [0] * size
    last_write = [-1] * size
    levels: List[List[int]] = []
    for index, (reads, writes) in enumerate(accesses):
        level = 0
        for key in reads:
            if last_write[key] >= level:
                level = last_write[key] + 1
        for key in writes:
            if last_write[key] > level:
                level = last_write[key]
            if last_read[key] > level:
                level = last_read[key]
        for key in reads:
            if last_read[key] < level:
                last_read[key] = level
        for key in writes:
            last_write[key] = level
        if level == len(levels):
            levels.append([])
        levels[level].append(index)
    passes = []
    for level in levels:
        current, total = [], 0
        for index in level:
            if current and total + costs[index] > budget:
                passes.append(current)
                current, total = [], 0
            current.append(index)
            total += costs[index]
        passes.append(current)
    return passes


def _index(values):
    return np.array(values, dtype=np.intp)


def _by_rank(keys):
    """Split ``keys`` into rounds in which no key repeats: round ``r`` takes
    every key's ``r``-th occurrence, so updates to one key apply in order.
    Returns ``(positions, keys[positions])`` per round; a single round's
    positions are ``slice(None)``."""
    keys = _index(keys)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    run_start = np.ones(len(keys), dtype=bool)
    run_start[1:] = ordered[1:] != ordered[:-1]
    position = np.arange(len(keys))
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = position - np.maximum.accumulate(
        np.where(run_start, position, 0))
    rounds = int(rank.max()) + 1 if len(keys) else 1
    if rounds == 1:
        return [(slice(None), keys)]
    return [(positions, keys[positions])
            for positions in (np.flatnonzero(rank == r)
                              for r in range(rounds))]


class _PlanStep:
    """One elimination step of a :class:`SparseRefactorPlan`, as index lists.

    ``targets`` are the rows not yet eliminated with an entry in the pivot
    column and ``upper_cols`` the columns not yet eliminated with an entry
    in the pivot row, in the order :func:`sparse_lu_refactor` stores that
    row.  ``pivot``, ``lower`` and ``upper`` are the slots of the pivot and
    of those entries, and ``update`` lists the slots of the entries
    ``(targets[a], upper_cols[b])`` row by row.
    """

    __slots__ = ("pivot_row", "pivot_col", "pivot", "targets", "lower",
                 "upper_cols", "upper", "update")

    def __init__(self, pivot_row, pivot_col, pivot, targets, lower,
                 upper_cols, upper, update):
        self.pivot_row = pivot_row
        self.pivot_col = pivot_col
        self.pivot = pivot
        self.targets = targets
        self.lower = lower
        self.upper_cols = upper_cols
        self.upper = upper
        self.update = update


class SparseRefactorPlan:
    """Slot layout for replaying one pivot order over many value stacks.

    Built once per pivot pattern: a symbolic elimination of the merged
    ``keys`` along ``pivot_rows`` / ``pivot_cols`` gives every L and U entry,
    fill included, a slot.  Slot ``i < len(keys)`` holds ``keys[i]``, so an
    assembled value vector over the keys drops straight into the first
    slots; fill slots start at zero.  Structural zeros stay explicit, which
    changes no value: they only ever add or subtract exact zeros.

    The symbolic elimination keeps each row's entries in the order
    :func:`sparse_lu_refactor`'s row dicts hold them when no entry is
    exactly zero (keys first, fill appended as it appears), so back
    substitution accumulates in the scalar order.  :meth:`_schedule` then
    groups the steps into passes (see :func:`_levels`); a tree needs a few
    passes, a 2-D mesh about a third as many passes as it has steps.

    Attributes
    ----------
    n:
        Matrix dimension.
    slots:
        Values stored per point (keys plus fill).
    steps:
        One :class:`_PlanStep` per elimination step, in pivot order.
    sign:
        Sign of the row and column permutations' product, the determinant's
        sign factor.
    """

    def __init__(self, n, keys, pivot_rows, pivot_cols):
        self.n = n
        self.pivot_rows = list(pivot_rows)
        self.pivot_cols = list(pivot_cols)
        self.num_keys = len(keys)
        # rows[i] maps column -> slot in insertion order; col_rows[j] holds
        # the rows with an entry in column j.
        rows: List[Dict[int, int]] = [{} for __ in range(n)]
        col_rows: List[set] = [set() for __ in range(n)]
        slots = 0

        def add(row, col):
            nonlocal slots
            rows[row][col] = slots
            col_rows[col].add(row)
            slots += 1
            return slots - 1

        for row, col in keys:
            add(row, col)
        row_done = [False] * n
        col_done = [False] * n
        self.steps: List[_PlanStep] = []
        for pivot_row, pivot_col in zip(self.pivot_rows, self.pivot_cols):
            row_done[pivot_row] = True
            col_done[pivot_col] = True
            # A structurally absent pivot gets a slot that stays zero, so
            # every point flags it as unstable.
            pivot = rows[pivot_row].get(pivot_col)
            if pivot is None:
                pivot = add(pivot_row, pivot_col)
            targets = sorted(i for i in col_rows[pivot_col] if not row_done[i])
            upper = [(j, slot) for j, slot in rows[pivot_row].items()
                     if not col_done[j]]
            update = []
            for i in targets:
                row = rows[i]
                for j, __ in upper:
                    slot = row.get(j)
                    update.append(add(i, j) if slot is None else slot)
            self.steps.append(_PlanStep(
                pivot_row, pivot_col, pivot, targets,
                [rows[i][pivot_col] for i in targets],
                [j for j, __ in upper], [slot for __, slot in upper],
                update))
        self.slots = slots
        self._row_slots = rows
        self.pivot_slots = np.array([step.pivot for step in self.steps],
                                    dtype=np.intp)
        self.sign = (_permutation_sign(self.pivot_rows)
                     * _permutation_sign(self.pivot_cols))
        self._schedule()

    def _schedule(self):
        """Group the steps into the passes the batched kernels run.

        Refactorization: a step reads its pivot, column and pivot-row slots
        and writes its multipliers and update slots.  Forward substitution:
        a step reads its pivot row and updates its target rows.  Back
        substitution (steps in reverse): a step reads the solution entries
        of its pivot row and writes its pivot column's.  A pass holds at
        most ~``n`` entries (beyond one step's own), so its temporaries stay
        near the size of one unknown vector per point.
        """
        steps = self.steps
        budget = max(1, self.n)
        self._refactor_passes = []
        for group in _levels(
                [([step.pivot, *step.lower, *step.upper],
                  [*step.lower, *step.update]) for step in steps],
                self.slots,
                [len(step.lower) + len(step.update) for step in steps],
                budget):
            pivots, lower, owner, checked, starts, upper = [], [], [], [], [], []
            pair_lower, pair_upper, pair_slots = [], [], []
            for position, k in enumerate(group):
                step = steps[k]
                lower_start, upper_start = len(lower), len(upper)
                width = len(step.upper)
                pivots.append(step.pivot)
                if step.lower:
                    checked.append(position)
                    starts.append(lower_start)
                lower += step.lower
                owner += [position] * len(step.lower)
                upper += step.upper
                for row in range(len(step.targets)):
                    pair_lower += [lower_start + row] * width
                    pair_upper += range(upper_start, upper_start + width)
                pair_slots += step.update
            pair_lower, pair_upper = _index(pair_lower), _index(pair_upper)
            self._refactor_passes.append((
                _index(pivots), _index(lower), _index(owner), _index(checked),
                _index(starts), _index(upper),
                [(pair_lower[positions], pair_upper[positions], slots)
                 for positions, slots in _by_rank(pair_slots)]))
        self._forward_passes = []
        for group in _levels([([step.pivot_row], step.targets)
                              for step in steps], self.n,
                             [len(step.targets) for step in steps], budget):
            lower, sources, targets = [], [], []
            for k in group:
                step = steps[k]
                lower += step.lower
                sources += [step.pivot_row] * len(step.targets)
                targets += step.targets
            self._forward_passes.append((_index(lower), _index(sources),
                                         _by_rank(targets)))
        backward = steps[::-1]
        self._back_passes = []
        for group in _levels([(step.upper_cols, [step.pivot_col])
                              for step in backward], self.n,
                             [1 + len(step.upper) for step in backward],
                             budget):
            members = [backward[k] for k in group]
            upper, known, heads, products = [], [], [], []
            size = 0
            for step in members:
                heads.append(size)
                products += range(size + 1, size + 1 + len(step.upper))
                size += 1 + len(step.upper)
                upper += step.upper
                known += step.upper_cols
            self._back_passes.append((
                _index([step.pivot_row for step in members]),
                _index([step.pivot_col for step in members]),
                _index([step.pivot for step in members]),
                _index(upper), _index(known), _index(heads), _index(products),
                size))

    def refactor(self, stack) -> "BatchedSparseLU":
        """Factor a ``(2, slots, points)`` value stack in place.

        ``stack[0]`` / ``stack[1]`` hold the real / imaginary parts of each
        point's values in slot order (fill slots zero), points contiguous.
        Each pass applies the :func:`sparse_lu_refactor` arithmetic of its
        steps to all points at once and flags points whose pivot is zero or
        below ``1e-8`` of its column maximum; their factors are meaningless.

        The parts are kept apart so every operation rounds like CPython's
        scalar complex arithmetic: numpy's vectorized complex multiply may
        fuse multiply-adds, and its division is not Smith's method as
        CPython's is.  The factors therefore equal the per-point ones bit
        for bit whenever no entry of a point is exactly zero.
        """
        real, imag = stack
        unstable = np.zeros(stack.shape[2], dtype=bool)
        with np.errstate(all="ignore"):
            for (pivots, lower, owner, checked, starts, upper,
                 rounds) in self._refactor_passes:
                pivot_real = real[pivots]
                pivot_imag = imag[pivots]
                unstable |= ((pivot_real == 0) & (pivot_imag == 0)).any(axis=0)
                if not lower.size:
                    continue
                column_real = real[lower]
                column_imag = imag[lower]
                upper_real = real[upper]
                upper_imag = imag[upper]
                column_max = np.maximum.reduceat(
                    np.hypot(column_real, column_imag), starts, axis=0)
                unstable |= (np.hypot(pivot_real[checked], pivot_imag[checked])
                             < _REFACTOR_STABILITY * column_max).any(axis=0)
                # CPython's complex division: divide through by the pivot
                # part of larger magnitude.
                real_major = np.abs(pivot_real) >= np.abs(pivot_imag)
                major = np.where(real_major, pivot_real, pivot_imag)
                minor = np.where(real_major, pivot_imag, pivot_real)
                ratio = minor / major
                denominator = (major + minor * ratio)[owner]
                ratio = ratio[owner]
                real_major = real_major[owner]
                first = np.where(real_major, column_real, column_imag)
                second = np.where(real_major, column_imag, column_real)
                multiplier_real = (first + second * ratio) / denominator
                multiplier_imag = (second - first * ratio) / denominator
                np.negative(multiplier_imag, out=multiplier_imag,
                            where=~real_major)
                real[lower] = multiplier_real
                imag[lower] = multiplier_imag
                for pair_lower, pair_upper, slots in rounds:
                    factor_real = multiplier_real[pair_lower]
                    factor_imag = multiplier_imag[pair_lower]
                    entry_real = upper_real[pair_upper]
                    entry_imag = upper_imag[pair_upper]
                    real[slots] -= (factor_real * entry_real
                                    - factor_imag * entry_imag)
                    imag[slots] -= (factor_real * entry_imag
                                    + factor_imag * entry_real)
        return BatchedSparseLU(self, stack, unstable)


class BatchedSparseLU:
    """Factors of a chunk of sweep points sharing one :class:`SparseRefactorPlan`.

    The sparse counterpart of :class:`~repro.linalg.dense.BatchedDenseLU`.
    Determinants and solves round like the per-point
    :class:`LUFactorization` code (see :meth:`SparseRefactorPlan.refactor`).

    Attributes
    ----------
    plan:
        The shared slot layout and pivot order.
    stack:
        ``(2, slots, points)`` real and imaginary factor values: multipliers
        in L slots, the eliminated pivot rows in U slots.
    unstable:
        ``(points,)`` mask of points whose reused pivot was zero or
        numerically degraded; their determinants and solutions are zero.
    """

    def __init__(self, plan, stack, unstable):
        self.plan = plan
        self.stack = stack
        self.unstable = unstable
        self.batch = stack.shape[2]
        self.n = plan.n

    @classmethod
    def from_factorization(cls, plan, factorization) -> "BatchedSparseLU":
        """One-point chunk holding a scalar :class:`LUFactorization`'s values.

        ``factorization`` must follow ``plan``'s pivot order; its entries
        are a subset of the plan's slots.
        """
        values = np.zeros(plan.slots, dtype=complex)
        for step, multipliers, upper_row in zip(
                plan.steps, factorization.eliminations,
                factorization.upper_rows):
            for row, multiplier in multipliers:
                values[plan._row_slots[row][step.pivot_col]] = multiplier
            pivot_row = plan._row_slots[step.pivot_row]
            for col, value in upper_row.items():
                values[pivot_row[col]] = value
        stack = np.stack([values.real, values.imag])[:, :, None]
        return cls(plan, stack, np.zeros(1, dtype=bool))

    @property
    def nbytes(self) -> int:
        """Bytes held by the factor values."""
        return self.stack.nbytes

    def member(self, index) -> LUFactorization:
        """The ``index``-th point's factors as a scalar :class:`LUFactorization`."""
        values = _complex(self.stack[0, :, index], self.stack[1, :, index])
        pivots: List[complex] = []
        eliminations: List[List[Tuple[int, complex]]] = []
        upper_rows: List[Dict[int, complex]] = []
        for step in self.plan.steps:
            pivot = complex(values[step.pivot])
            pivots.append(pivot)
            eliminations.append(list(zip(step.targets,
                                         values[step.lower].tolist())))
            upper_row = {step.pivot_col: pivot}
            upper_row.update(zip(step.upper_cols,
                                 values[step.upper].tolist()))
            upper_rows.append(upper_row)
        plan = self.plan
        return LUFactorization(plan.n, list(plan.pivot_rows),
                               list(plan.pivot_cols), pivots, eliminations,
                               upper_rows, plan.slots - plan.num_keys)

    def determinants_mantissa_exponent(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-point ``det(A)`` as ``(mantissas, exponents)`` arrays.

        The pivots are multiplied in pivot order with the per-step
        renormalization and rounding of
        :meth:`LUFactorization.determinant_mantissa_exponent` (up to
        ``np.log10`` placing a value within an ulp of a power of ten in the
        other decade); unstable points and zero determinants give ``(0, 0)``.
        """
        real, imag = self.stack[:, self.plan.pivot_slots]
        mantissa_real = np.ones(self.batch)
        mantissa_imag = np.zeros(self.batch)
        exponent = np.zeros(self.batch, dtype=np.int64)
        dead = self.unstable.copy()
        with np.errstate(all="ignore"):
            for pivot_real, pivot_imag in zip(real, imag):
                mantissa_real, mantissa_imag = (
                    mantissa_real * pivot_real - mantissa_imag * pivot_imag,
                    mantissa_real * pivot_imag + mantissa_imag * pivot_real)
                dead |= (mantissa_real == 0) & (mantissa_imag == 0)
                magnitude = np.hypot(mantissa_real, mantissa_imag)
                magnitude[dead] = 1.0
                shift = np.floor(np.log10(magnitude)).astype(np.int64)
                scale = _POW10[shift + _POW10_OFFSET]
                mantissa_real /= scale
                mantissa_imag /= scale
                exponent += shift
        mantissa = _complex(mantissa_real * self.plan.sign,
                            mantissa_imag * self.plan.sign)
        mantissa[dead] = 0.0
        exponent[dead] = 0
        return mantissa, exponent

    def solve(self, rhs) -> np.ndarray:
        """Solve every point's system; ``rhs`` is shared ``(n,)`` or ``(points, n)``.

        Returns ``(points, n)`` complex solutions.
        """
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.ndim == 1:
            if rhs.shape[0] != self.n:
                raise LinAlgError(
                    f"rhs has {rhs.shape[0]} entries, expected {self.n}")
            rhs = np.broadcast_to(rhs, (self.batch, self.n))
        elif rhs.shape != (self.batch, self.n):
            raise LinAlgError(
                f"rhs stack has shape {rhs.shape}, expected "
                f"({self.batch}, {self.n})")
        return self._substitute(rhs[:, :, None])[:, :, 0]

    def solve_matrix(self, rhs_matrix) -> np.ndarray:
        """Solve for an ``(n, m)`` shared or ``(points, n, m)`` column stack.

        Returns ``(points, n, m)`` complex solutions.
        """
        rhs_matrix = np.asarray(rhs_matrix, dtype=complex)
        if rhs_matrix.ndim == 2:
            if rhs_matrix.shape[0] != self.n:
                raise LinAlgError(
                    f"rhs matrix has {rhs_matrix.shape[0]} rows, "
                    f"expected {self.n}")
            rhs_matrix = np.broadcast_to(
                rhs_matrix, (self.batch,) + rhs_matrix.shape)
        elif (rhs_matrix.ndim != 3
              or rhs_matrix.shape[:2] != (self.batch, self.n)):
            raise LinAlgError(
                f"rhs stack has shape {rhs_matrix.shape}, expected "
                f"({self.batch}, {self.n}, m)")
        return self._substitute(rhs_matrix)

    def _substitute(self, rhs):
        """Forward and back substitution of a ``(points, n, m)`` stack,
        rounding like :meth:`LUFactorization.solve` point by point."""
        real, imag = self.stack
        # Unknown-major work planes: each pass touches whole (points, m)
        # blocks of a few rows.
        work_real = np.ascontiguousarray(rhs.real.transpose(1, 0, 2))
        work_imag = np.ascontiguousarray(rhs.imag.transpose(1, 0, 2))
        solution = np.zeros(work_real.shape, dtype=complex)
        solution_real = solution.real
        solution_imag = solution.imag
        with np.errstate(all="ignore"):
            for lower, sources, rounds in self.plan._forward_passes:
                if not lower.size:
                    continue
                lower_real = real[lower][:, :, None]
                lower_imag = imag[lower][:, :, None]
                pivot_real = work_real[sources]
                pivot_imag = work_imag[sources]
                product_real = lower_real * pivot_real - lower_imag * pivot_imag
                product_imag = lower_real * pivot_imag + lower_imag * pivot_real
                for positions, rows in rounds:
                    work_real[rows] -= product_real[positions]
                    work_imag[rows] -= product_imag[positions]
            for (rows, cols, pivots, upper, known, heads, products,
                 size) in self.plan._back_passes:
                # The scalar code subtracts a pivot row's products from its
                # right-hand side one at a time, in row order: lay each row
                # out as [rhs, products...] and fold with subtract.reduceat.
                terms_real = np.empty((size,) + work_real.shape[1:])
                terms_imag = np.empty((size,) + work_real.shape[1:])
                terms_real[heads] = work_real[rows]
                terms_imag[heads] = work_imag[rows]
                if upper.size:
                    upper_real = real[upper][:, :, None]
                    upper_imag = imag[upper][:, :, None]
                    known_real = solution_real[known]
                    known_imag = solution_imag[known]
                    terms_real[products] = (upper_real * known_real
                                            - upper_imag * known_imag)
                    terms_imag[products] = (upper_real * known_imag
                                            + upper_imag * known_real)
                accumulator = _complex(
                    np.subtract.reduceat(terms_real, heads, axis=0),
                    np.subtract.reduceat(terms_imag, heads, axis=0))
                pivot = _complex(real[pivots], imag[pivots])
                # The scalar code divides numpy scalars: numpy's division.
                solution[cols] = (accumulator
                                  / np.where(pivot == 0, 1.0, pivot)[:, :, None])
        solution = solution.transpose(1, 0, 2)
        if self.unstable.any():
            solution[self.unstable] = 0.0
        return solution


def _select_ordered_pivot(rows, col_index, active_rows, threshold, col):
    """Pivot for one pre-ordered elimination step: column ``col``, preferring
    the structurally symmetric row ``col`` under threshold partial pivoting.
    Returns ``(row, col)`` or ``(None, None)`` when the column has no usable
    entry (structurally or numerically deficient).
    """
    candidates = [i for i in col_index[col] if i in active_rows]
    if not candidates:
        return None, None
    best_row = max(candidates, key=lambda i: abs(rows[i][col]))
    column_max = abs(rows[best_row][col])
    if column_max == 0.0:
        return None, None
    if col in active_rows:
        diagonal = rows[col].get(col)
        if diagonal is not None and abs(diagonal) >= threshold * column_max:
            return col, col
    return best_row, col


def _select_pivot(rows, col_index, active_rows, active_cols, threshold,
                  pivoting):
    """Pick the next pivot; returns ``(row, col)`` or ``(None, None)``."""
    if not active_rows:
        return None, None

    if pivoting == "partial":
        # Eliminate the lowest-numbered active column, choosing the largest
        # magnitude entry in that column.
        for col in sorted(active_cols):
            candidates = [i for i in col_index[col] if i in active_rows]
            if not candidates:
                continue
            best_row = max(candidates, key=lambda i: abs(rows[i][col]))
            if abs(rows[best_row][col]) > 0.0:
                return best_row, col
        return None, None

    # Markowitz with threshold pivoting.
    # Per-column maximum magnitude over active rows (numerical acceptance).
    best = None
    best_cost = None
    best_magnitude = 0.0
    row_counts = {i: sum(1 for j in rows[i] if j in active_cols)
                  for i in active_rows}
    for col in active_cols:
        col_rows = [i for i in col_index[col] if i in active_rows]
        if not col_rows:
            continue
        col_max = max(abs(rows[i][col]) for i in col_rows)
        if col_max == 0.0:
            continue
        col_count = len(col_rows)
        for i in col_rows:
            magnitude = abs(rows[i][col])
            if magnitude < threshold * col_max or magnitude == 0.0:
                continue
            cost = (row_counts[i] - 1) * (col_count - 1)
            if (best_cost is None or cost < best_cost
                    or (cost == best_cost and magnitude > best_magnitude)):
                best = (i, col)
                best_cost = cost
                best_magnitude = magnitude
    if best is None:
        return None, None
    return best
