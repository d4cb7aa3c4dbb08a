"""The benchmark's four closed-loop workloads.

Each workload has one caller: the next operation starts when the previous
one returns.  A workload builds its inputs from the seed in :meth:`setup`,
runs one operation per :meth:`operation` call, and checks the outputs it
kept in :meth:`check`, outside any timed region.  The program only ever
receives the generated circuits and value matrices
(``checkpointed_ensemble_sweep`` draws its own values and so receives the
seed).

The library is called through module attributes (``engine.ensemble_sweep``
rather than a name bound at import) so that the traced run's wrappers, which
replace those attributes, see every call the benchmark makes.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile

import numpy as np

from repro.analysis import ac
from repro.circuits import (build_cascode_amplifier, build_miller_ota,
                            build_positive_feedback_ota, build_rc_ladder,
                            build_sallen_key_lowpass, build_tow_thomas_biquad,
                            build_ua741, build_ua741_macro)
from repro.circuits.generators import build_generator
from repro.engine.session import AnalysisSession
from repro.errors import ReproError
from repro.interpolation import reference as interpolation_reference
from repro.montecarlo import checkpoint
from repro.montecarlo import compiled as compiled_sweep
from repro.montecarlo import engine as ensemble_engine
from repro.montecarlo.space import ParameterSpace
from repro.symbolic import generation, sdg
from repro.symbolic.determinant import DEFAULT_MAX_TERMS


class _Workload:
    """Operation counts: at least ``min_ops`` in a timed run, exactly
    ``trace_ops`` in a traced run and ``memory_ops`` in the memory run."""

    min_ops = 3
    trace_ops = 3
    memory_ops = 1

    def trace_counts(self, output):
        """Counters read from one operation's output (traced run only)."""
        return {}


# --------------------------------------------------------------------------- #
# reference: the paper's pipeline on a fixed circuit mix
# --------------------------------------------------------------------------- #

#: Paper circuits: fixed inputs, the same on every seed.
PAPER_CIRCUITS = (
    ("ua741", build_ua741),
    ("pf_ota", build_positive_feedback_ota),
    ("miller_ota", build_miller_ota),
    ("cascode", build_cascode_amplifier),
    ("sallen_key", build_sallen_key_lowpass),
    ("tow_thomas", build_tow_thomas_biquad),
    ("rc_ladder12", lambda: build_rc_ladder(12)),
)

#: Seeded post-layout generators.  The tree and the bus stay below the
#: 150-unknown dense cutoff (dense batched LU); the mesh is above it, so its
#: reference runs on the sparse LU path.  A fanout-4 tree is the closest
#: clock tree to ~96 unknowns (87 MNA / 85 nodal unknowns).
POSTLAYOUT_CIRCUITS = (
    ("clock_tree", lambda seed: build_generator("tree", 96, seed=seed,
                                                fanout=4)),
    ("coupled_bus", lambda seed: build_generator("bus", 96, seed=seed)),
    ("rc_mesh", lambda seed: build_generator("mesh", 160, seed=seed)),
)

#: Paper circuits are ~100x cheaper than post-layout ones.  A cycle runs
#: this many passes over them before each post-layout circuit, so their
#: samples are many and spread over the whole run rather than bunched in a
#: second or two, where a brief change in host speed would move them all.
PAPER_PASSES = 4

#: Bode check grid: the paper's Fig. 2 band, 5 points per decade.
BODE_FREQUENCIES = np.logspace(0.0, 8.0, 41)

#: The Bode check is SPICE's mixed tolerance, applied to the complex
#: response at every grid point: ``|H_ref - H_ac| <= RELTOL * |H_ac| +
#: ABSTOL``.  RELTOL is SPICE's default.  ABSTOL sits 80 dB under the direct
#: curve's peak: references carry an absolute error floor, seen up to
#: 1.6e-5 of the peak on coupled-bus victim lines over 60 seeds (zero DC
#: transfer, ~145 dB under the peak at 1 Hz), and 1e-4 stays well above
#: it.  ABSTOL is never under ABS_FLOOR, which covers a transfer that
#: vanishes to round-off (the positive-feedback OTA's differential gain is
#: ~1e-13 V/V on both paths).  ``ref_tol_ratio`` reports the worst point's
#: share of the tolerance.
RELTOL = 1e-3
DYNAMIC_RANGE_DB = 80.0
ABS_FLOOR = 1e-9


def bode_check(reference, direct):
    """Compare a reference with direct AC values on :data:`BODE_FREQUENCIES`.

    ``direct`` is the complex response of an MNA AC sweep.  Returns
    ``(error_db, tolerance_ratio)``: the largest |dB| difference over the
    points at or above ABSTOL (0 when there are none), and the largest
    share of the mixed tolerance any point uses (at most 1 to pass).
    """
    interpolated = reference.frequency_response(BODE_FREQUENCIES)
    magnitude = np.abs(direct)
    abstol = max(ABS_FLOOR,
                 float(magnitude.max()) * 10.0 ** (-DYNAMIC_RANGE_DB / 20.0))
    ratio = float(np.max(np.abs(interpolated - direct)
                         / (RELTOL * magnitude + abstol)))
    scored = magnitude >= abstol
    if not scored.any():
        return 0.0, ratio
    with np.errstate(divide="ignore"):
        error = np.abs(20.0 * np.log10(np.abs(interpolated[scored])
                                       / magnitude[scored]))
    return float(error.max()), ratio


class ReferenceWorkload(_Workload):
    """``generate_reference`` without a session over the circuit mix.

    Every operation count is one full cycle of the mix, set in setup.
    """

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        circuits = [(name, "paper") + build()
                    for name, build in PAPER_CIRCUITS]
        for name, build in POSTLAYOUT_CIRCUITS:
            circuits.append((name, "postlayout")
                            + build(int(rng.integers(0, 2**31 - 1))))
        self.circuits = {name: (kind, circuit, spec)
                         for name, kind, circuit, spec in circuits}
        paper = [name for name, __ in PAPER_CIRCUITS]
        self.cycle = []
        for name, __ in POSTLAYOUT_CIRCUITS:
            self.cycle += paper * PAPER_PASSES + [name]
        self.min_ops = self.trace_ops = self.memory_ops = len(self.cycle)
        # Warm-up: both LU back ends on a small circuit.
        ladder, ladder_spec = build_rc_ladder(4)
        interpolation_reference.generate_reference(ladder, ladder_spec)
        interpolation_reference.generate_reference(ladder, ladder_spec,
                                                   method="sparse")

    def operation(self, index):
        name = self.cycle[index % len(self.cycle)]
        __, circuit, spec = self.circuits[name]
        try:
            output = interpolation_reference.generate_reference(circuit, spec)
        except ReproError as error:
            output = error
        return name, output

    def throughput(self, ops):
        """References per CPU second over the mix: the cycle's length over
        the sum of its circuits' median CPU times.

        The post-layout references take most of a cycle's time.  The paper
        circuits' references take milliseconds, and on a loaded host their
        times swing more than the post-layout ones (interpreter-bound work
        slows more than LAPACK-bound work), so weighting each circuit
        equally would let them set the figure.
        """
        medians = {}
        for name in self.circuits:
            times = [seconds for (op, __), seconds in ops if op == name]
            medians[name] = statistics.median(times)
        rate = len(self.cycle) / sum(medians[name] for name in self.cycle)
        details = {"refs": len(ops)}
        for kind in ("paper", "postlayout"):
            names = [name for name in medians
                     if self.circuits[name][0] == kind]
            details[f"{kind}_refs_per_cpu_s"] = (
                len(names) / sum(medians[name] for name in names))
        return rate, "1/s", details

    def check(self, ops):
        """Convergence and the Bode check of every reference.

        ``ref_err_db`` reports the paper circuits only: their inputs do not
        depend on the seed, so the figure compares across runs.
        """
        failed = 0
        worst = {"paper": 0.0, "postlayout": 0.0}
        tolerance = 0.0
        direct = {name: ac.ac_sweep(circuit, spec, BODE_FREQUENCIES)
                  for name, (__, circuit, spec) in self.circuits.items()}
        for (name, output), __ in ops:
            kind = self.circuits[name][0]
            if isinstance(output, Exception) or not output.converged:
                failed += 1
                continue
            error, ratio = bode_check(output, direct[name])
            worst[kind] = max(worst[kind], error)
            tolerance = max(tolerance, ratio)
            failed += not ratio <= 1.0
        return len(ops), failed, {"ref_err_db": worst["paper"],
                                  "postlayout_err_db": worst["postlayout"],
                                  "ref_tol_ratio": tolerance}


# --------------------------------------------------------------------------- #
# sdg_session: a designer loop on the µA741 macro
# --------------------------------------------------------------------------- #

SDG_EPSILONS = (0.3, 0.1, 0.03, 0.01, 0.001)
SERVE_SAMPLES = 256
SERVE_FREQUENCIES = np.logspace(0.0, 8.0, 200)
#: Steps 1 and 3 must key the session cache identically, or the compiled
#: sweep silently regenerates the transfer function.
MAX_TERMS = DEFAULT_MAX_TERMS
SERVE_DEVIATION_LIMIT = 1e-9


class SdgSessionWorkload(_Workload):
    """Generate → SDG at five budgets → compile and serve, fresh session."""

    trace_ops = 2

    def setup(self, seed):
        self.circuit, self.spec = build_ua741_macro()
        self.reference = interpolation_reference.generate_reference(
            self.circuit, self.spec)
        self.space = ParameterSpace(self.circuit)
        self.values = self.space.sample_values(SERVE_SAMPLES, seed=seed)
        # Warm-up: the same three steps on the small Miller OTA.
        circuit, spec = build_miller_ota()
        session = AnalysisSession()
        generation.symbolic_network_function(circuit, spec, session=session)
        sdg.simplification_during_generation(
            circuit, spec, interpolation_reference.generate_reference(
                circuit, spec), epsilon=0.01, session=session)

    def operation(self, index):
        session = AnalysisSession()
        transfer = generation.symbolic_network_function(
            self.circuit, self.spec, max_terms=MAX_TERMS, session=session)
        budgets = []
        for epsilon in SDG_EPSILONS:
            result = sdg.simplification_during_generation(
                self.circuit, self.spec, self.reference, epsilon=epsilon,
                max_terms=MAX_TERMS, session=session)
            budgets.append((epsilon, result))
        served = compiled_sweep.compiled_ensemble_sweep(
            self.circuit, self.spec, SERVE_FREQUENCIES, self.space,
            values=self.values, session=session, max_terms=MAX_TERMS)
        stats = session.stats()
        kernel = transfer.kernel_stats
        return {
            "terms": len(transfer.numerator) + len(transfer.denominator),
            "minor_hits": kernel.minor_hits,
            "minor_lookups": kernel.minor_hits + kernel.minor_misses,
            "budgets": [(epsilon, [report.achieved_error
                                   for report in result.reports],
                         result.total_terms())
                        for epsilon, result in budgets],
            "responses": served.responses,
            "session_hits": stats["hits"],
            "session_misses": stats["misses"],
        }

    def trace_counts(self, output):
        return {"engine.session_hits": output["session_hits"],
                "engine.session_misses": output["session_misses"],
                "symbolic.terms": output["terms"],
                "symbolic.minor_hits": output["minor_hits"],
                "symbolic.minor_lookups": output["minor_lookups"],
                "symbolic.kept_terms": sum(kept for __, __, (kept, __)
                                           in output["budgets"]),
                "symbolic.budget_terms": sum(total for __, __, (__, total)
                                             in output["budgets"])}

    def throughput(self, ops):
        """Designer loops per CPU second."""
        median = statistics.median(seconds for __, seconds in ops)
        return 1.0 / median, "1/s", {"loops": len(ops)}

    def check(self, ops):
        """ε attainment of every SDG run and compiled-vs-LAPACK deviation."""
        matrix = ensemble_engine.ensemble_sweep(
            self.circuit, self.spec, SERVE_FREQUENCIES, self.space,
            values=self.values)
        scale = np.maximum(np.abs(matrix.responses), np.finfo(float).tiny)
        attempted = failed = 0
        worst_ratio = worst_deviation = 0.0
        for output, __ in ops:
            attempted += 1 + len(output["budgets"]) + 1
            for epsilon, errors, __ in output["budgets"]:
                ratio = max(errors) / epsilon
                worst_ratio = max(worst_ratio, ratio)
                failed += ratio > 1.0
            deviation = float(np.max(np.abs(output["responses"]
                                            - matrix.responses) / scale))
            worst_deviation = max(worst_deviation, deviation)
            failed += not deviation <= SERVE_DEVIATION_LIMIT
        return attempted, failed, {"sdg_err_ratio": worst_ratio,
                                   "serve_rel_dev": worst_deviation}


# --------------------------------------------------------------------------- #
# mc_stream / mc_checkpoint: µA741 tolerance ensembles
# --------------------------------------------------------------------------- #

#: The µA741's discrete passives, each toleranced ±5%.
UA741_PASSIVES = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9",
                  "RL", "Cc", "CL")
MC_TOLERANCE = 0.05
MC_FREQUENCIES = np.logspace(0.0, 8.0, 8)
MC_SAMPLES = 4096
MC_WORKERS = 2


def _ua741_space():
    circuit, spec = build_ua741()
    space = ParameterSpace(circuit, {name: MC_TOLERANCE
                                     for name in UA741_PASSIVES})
    return circuit, spec, space


_STAT_FIELDS = ("count", "sum_db", "sumsq_db", "min_db", "max_db",
                "histogram")


def _same_statistics(first, second) -> bool:
    return all(np.array_equal(getattr(first, field), getattr(second, field))
               for field in _STAT_FIELDS)


class _EnsembleWorkload(_Workload):
    def throughput(self, ops):
        """Sample·points per CPU second."""
        median = statistics.median(seconds for __, seconds in ops)
        return (MC_SAMPLES * len(MC_FREQUENCIES) / median, "1/s",
                {"ensembles": len(ops)})


class McStreamWorkload(_EnsembleWorkload):
    """Streaming LAPACK ensemble on two threads."""

    shard_size = 1024

    def setup(self, seed):
        self.circuit, self.spec, self.space = _ua741_space()
        self.values = self.space.sample_values(MC_SAMPLES, seed=seed)
        self._sweep(self.values[:256], MC_WORKERS)

    def _sweep(self, values, workers):
        return ensemble_engine.ensemble_sweep(
            self.circuit, self.spec, MC_FREQUENCIES, self.space,
            values=values, store_responses=False,
            shard_size=self.shard_size, workers=workers, on_failure="raise")

    def operation(self, index):
        try:
            return self._sweep(self.values, MC_WORKERS).statistics
        except ReproError as error:
            return error

    def check(self, ops):
        """Every run's statistics bit-identical to an inline 1-worker run.

        The inline run covers each run's whole value matrix, which includes
        any fixed prefix.
        """
        inline = self._sweep(self.values, 1).statistics
        failed = sum(MC_SAMPLES for output, __ in ops
                     if isinstance(output, Exception)
                     or not _same_statistics(output, inline))
        return len(ops) * MC_SAMPLES, failed, {}


class McCheckpointWorkload(_EnsembleWorkload):
    """Supervised two-process checkpointed ensemble, stored responses."""

    shard_size = 256

    def __init__(self, work_dir):
        self.work_dir = work_dir

    def setup(self, seed):
        self.seed = seed
        self.circuit, self.spec, self.space = _ua741_space()
        # Two shards, so the warm-up starts worker processes as a run does.
        self._run(2 * self.shard_size, MC_WORKERS)

    def _run(self, samples, workers):
        """One run on a fresh checkpoint path, removed afterwards."""
        directory = tempfile.mkdtemp(prefix="ckpt-", dir=self.work_dir)
        try:
            return checkpoint.checkpointed_ensemble_sweep(
                self.circuit, self.spec, MC_FREQUENCIES, self.space,
                path=os.path.join(directory, "run.npz"), samples=samples,
                seed=self.seed, shard_size=self.shard_size, workers=workers,
                store_responses=True)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def operation(self, index):
        try:
            return self._run(MC_SAMPLES, MC_WORKERS)
        except ReproError as error:
            return error

    def trace_counts(self, output):
        if isinstance(output, Exception) or output.report is None:
            return {}
        return {"montecarlo.quarantined": len(output.report.quarantined)}

    def check(self, ops):
        """Fresh, finished, no quarantine, bit-identical to a 1-worker run."""
        inline = self._run(MC_SAMPLES, 1).ensemble.responses
        failed = 0
        for run, __ in ops:
            if isinstance(run, Exception):
                failed += MC_SAMPLES
                continue
            quarantined = len(run.report.quarantined) if run.report else 0
            good = (run.finished and run.resumed_from == 0
                    and run.completed == MC_SAMPLES
                    and np.array_equal(run.ensemble.responses, inline))
            failed += MC_SAMPLES if not good else quarantined
        return len(ops) * MC_SAMPLES, failed, {}


def make(name, work_dir):
    """The workload object called ``name``."""
    if name == "reference":
        return ReferenceWorkload()
    if name == "sdg_session":
        return SdgSessionWorkload()
    if name == "mc_stream":
        return McStreamWorkload()
    if name == "mc_checkpoint":
        return McCheckpointWorkload(work_dir)
    raise ValueError(f"unknown workload {name!r}")

