"""Where the traced run hooks into the library, and the per-layer metrics.

Every hook wraps a layer's public function at the module where its callers
look it up, so the library itself is untouched.  All hooks are installed on
every workload; a layer a workload does not use reports 0.
"""

from __future__ import annotations

import importlib
import os

from repro.engine import resilience

# Span names are "<layer>.<entry point>"; several hooks may share one name
# when the same layer is reached through different call sites.
_HOOKS = (
    # (module, class or None, attribute, span name, counter), where
    # counter(args, kwargs, result) returns {counter name: amount}.
    ("repro.interpolation.reference", None, "generate_reference",
     "interpolation.reference", None),
    ("repro.engine.sweep", None, "batched_dense_lu", "linalg.batched_lu",
     lambda a, k, r: {"linalg.batched_lu_points": len(a[0])}),
    ("repro.montecarlo.engine", None, "batched_dense_lu", "linalg.batched_lu",
     lambda a, k, r: {"linalg.batched_lu_points": len(a[0])}),
    ("repro.linalg.dense", "DenseLU", "solve", "linalg.point_solve",
     lambda a, k, r: {"linalg.point_solves": 1}),
    ("repro.linalg.dense", "DenseLU", "determinant_mantissa_exponent",
     "linalg.point_det", None),
    ("repro.linalg.lu", None, "sparse_lu", "linalg.sparse_lu",
     lambda a, k, r: {"linalg.sparse_factorizations": 1}),
    ("repro.linalg.lu", None, "sparse_lu_refactor", "linalg.sparse_lu",
     lambda a, k, r: {"linalg.sparse_factorizations": 1}),
    ("repro.nodal.sampler", None, "sparse_lu", "linalg.sparse_lu",
     lambda a, k, r: {"linalg.sparse_factorizations": 1}),
    ("repro.montecarlo.engine", None, "batched_solve", "linalg.lapack_solve",
     lambda a, k, r: {"linalg.lapack_systems": len(a[0])}),
    ("repro.engine.resilience", None, "batched_solve", "linalg.lapack_solve",
     lambda a, k, r: {"linalg.lapack_systems": len(a[0])}),
    ("repro.nodal.batch", "BatchSampler", "sample_batch", "nodal.sample_batch",
     lambda a, k, r: {"nodal.points": len(r)}),
    ("repro.engine.formulation", "FormulationBase", "assemble_batch",
     "engine.assemble", None),
    ("repro.interpolation.adaptive", "AdaptiveScalingInterpolator", "run",
     "interpolation.adaptive",
     lambda a, k, r: {"interpolation.iterations": r.iteration_count(),
                      "interpolation.factorizations": r.total_samples,
                      "interpolation.coefficients": r.degree_bound + 1}),
    ("repro.montecarlo.engine", None, "solve_stack_resilient",
     "engine.resilience", None),
    ("repro.symbolic.generation", None, "symbolic_network_function",
     "symbolic.generate", None),
    ("repro.symbolic.sdg", None, "simplification_during_generation",
     "symbolic.sdg", None),
    ("repro.symbolic.generation", "SymbolicTransferFunction", "compile",
     "symbolic.compile", None),
    ("repro.symbolic.compile", "CompiledTransferModel", "frequency_response",
     "symbolic.serve",
     lambda a, k, r: {"symbolic.served_points": r.size}),
    ("repro.montecarlo.compiled", None, "compiled_ensemble_sweep",
     "montecarlo.compiled_sweep", None),
    ("repro.montecarlo.space", "ParameterSpace", "sample_values",
     "montecarlo.draw", None),
    ("repro.montecarlo.engine", None, "build_mna_system", "mna.build",
     lambda a, k, r: {"mna.builds": 1}),
    ("repro.montecarlo.program", "ValueProgram", "from_circuit",
     "montecarlo.program_build",
     lambda a, k, r: {"montecarlo.program_builds": 1}),
    ("repro.montecarlo.program", "ValueProgram", "dense_parts",
     "montecarlo.program_replay", None),
    ("repro.montecarlo.engine", None, "ensemble_sweep", "montecarlo.ensemble",
     None),
    ("repro.montecarlo.statistics", "EnsembleStatistics", "update",
     "montecarlo.fold",
     lambda a, k, r: {"montecarlo.fold_rows": len(a[1])}),
    ("repro.montecarlo.statistics", "EnsembleStatistics", "merge",
     "montecarlo.merge", lambda a, k, r: {"montecarlo.merges": 1}),
    ("repro.montecarlo.checkpoint", None, "_merge_shard_report",
     "montecarlo.merge", lambda a, k, r: {"montecarlo.merges": 1}),
    ("repro.montecarlo.checkpoint", None, "_save_checkpoint",
     "montecarlo.checkpoint_write",
     lambda a, k, r: {"montecarlo.checkpoint_writes": 1,
                      "montecarlo.checkpoint_bytes": os.path.getsize(a[0])}),
    ("repro.montecarlo.checkpoint", None, "checkpointed_ensemble_sweep",
     "montecarlo.checkpointed", None),
    ("repro.montecarlo.parallel", None, "run_shards", "montecarlo.supervisor",
     lambda a, k, r: {"montecarlo.shards": len(a[5]),
                      "montecarlo.redispatches": r.redispatches}),
)


def install(tracer) -> None:
    """Wrap every hooked entry point with ``tracer``."""
    for module_name, class_name, attribute, span, counter in _HOOKS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attribute, span, counter)


def escalations() -> int:
    """Accepted solves past the fast stage, process-wide so far."""
    snapshot = resilience.telemetry_snapshot()
    return snapshot["bitexact"] + snapshot["fresh"] + snapshot["regularized"]


#: Per-layer metric → (source, span name or counter, unit).  ``self`` and
#: ``total`` sum span seconds; ``count`` reads a tracer counter.
LAYER_METRICS = (
    ("linalg.batched_lu_s", "total", "linalg.batched_lu", "s"),
    ("linalg.batched_lu_points", "count", "linalg.batched_lu_points", "count"),
    ("linalg.point_solve_s", "total", ("linalg.point_solve",
                                       "linalg.point_det"), "s"),
    ("linalg.point_solves", "count", "linalg.point_solves", "count"),
    ("linalg.sparse_lu_s", "total", "linalg.sparse_lu", "s"),
    ("linalg.sparse_factorizations", "count", "linalg.sparse_factorizations",
     "count"),
    ("linalg.lapack_solve_s", "total", "linalg.lapack_solve", "s"),
    ("linalg.lapack_systems", "count", "linalg.lapack_systems", "count"),
    ("nodal.sample_batch_self_s", "self", "nodal.sample_batch", "s"),
    ("nodal.points", "count", "nodal.points", "count"),
    ("engine.assemble_s", "total", "engine.assemble", "s"),
    ("interpolation.adaptive_self_s", "self", "interpolation.adaptive", "s"),
    ("interpolation.iterations", "count", "interpolation.iterations", "count"),
    ("engine.resilience_self_s", "self", "engine.resilience", "s"),
    ("engine.escalations", "count", "engine.escalations", "count"),
    ("engine.session_hits", "count", "engine.session_hits", "count"),
    ("engine.session_misses", "count", "engine.session_misses", "count"),
    ("symbolic.generate_s", "total", "symbolic.generate", "s"),
    ("symbolic.terms", "count", "symbolic.terms", "count"),
    ("symbolic.sdg_s", "total", "symbolic.sdg", "s"),
    ("symbolic.compile_s", "total", "symbolic.compile", "s"),
    ("symbolic.serve_s", "total", "symbolic.serve", "s"),
    ("symbolic.served_points", "count", "symbolic.served_points", "count"),
    ("montecarlo.draw_s", "total", "montecarlo.draw", "s"),
    ("mna.builds", "count", "mna.builds", "count"),
    ("mna.build_s", "total", "mna.build", "s"),
    ("montecarlo.program_builds", "count", "montecarlo.program_builds",
     "count"),
    ("montecarlo.program_build_s", "total", "montecarlo.program_build", "s"),
    ("montecarlo.program_replay_s", "total", "montecarlo.program_replay", "s"),
    ("montecarlo.ensemble_self_s", "self", "montecarlo.ensemble", "s"),
    ("montecarlo.fold_s", "total", "montecarlo.fold", "s"),
    ("montecarlo.fold_rows", "count", "montecarlo.fold_rows", "count"),
    ("montecarlo.merge_s", "total", "montecarlo.merge", "s"),
    ("montecarlo.merges", "count", "montecarlo.merges", "count"),
    ("montecarlo.checkpoint_write_s", "total", "montecarlo.checkpoint_write",
     "s"),
    ("montecarlo.checkpoint_writes", "count", "montecarlo.checkpoint_writes",
     "count"),
    ("montecarlo.checkpoint_bytes", "count", "montecarlo.checkpoint_bytes",
     "B"),
    ("montecarlo.supervisor_wait_s", "self", "montecarlo.supervisor", "s"),
    ("montecarlo.shards", "count", "montecarlo.shards", "count"),
    ("montecarlo.redispatches", "count", "montecarlo.redispatches", "count"),
    ("montecarlo.quarantined", "count", "montecarlo.quarantined", "count"),
)


def collect(tracer):
    """``{metric: (value, unit)}`` for every per-layer metric."""
    self_times = tracer.self_times()
    total_times = tracer.total_times()
    metrics = {}
    for name, source, key, unit in LAYER_METRICS:
        keys = key if isinstance(key, tuple) else (key,)
        if source == "count":
            value = sum(tracer.counts.get(item, 0) for item in keys)
        else:
            table = self_times if source == "self" else total_times
            value = sum(table.get(item, 0.0) for item in keys)
        metrics[name] = (value, unit)
    counts = tracer.counts
    coefficients = counts.get("interpolation.coefficients", 0)
    metrics["interpolation.samples_per_coeff"] = (
        counts.get("interpolation.factorizations", 0) / coefficients
        if coefficients else 0.0, "ratio")
    lookups = counts.get("symbolic.minor_lookups", 0)
    metrics["symbolic.minor_hit_rate"] = (
        counts.get("symbolic.minor_hits", 0) / lookups if lookups else 0.0,
        "ratio")
    budget_terms = counts.get("symbolic.budget_terms", 0)
    metrics["symbolic.kept_ratio"] = (
        counts.get("symbolic.kept_terms", 0) / budget_terms
        if budget_terms else 0.0, "ratio")
    return metrics
