"""The shard pipeline behind the matrix ensemble drivers.

* The evaluator — MNA system and value program — is built once per driver
  call, in the calling process: never once per shard, and never inside a
  worker process.
* A worker's start-up is not a hang: no shard is dispatched to it before
  its own first heartbeat, and failed starts are bounded.
* Every hook the benchmark's traced run installs (``perfbench/layers.py``)
  still names an attribute of the library, so a refactor cannot break the
  traced run silently.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import time

import numpy as np
import pytest

import repro.montecarlo.engine as ensemble_engine
import repro.montecarlo.parallel as parallel_engine
from repro.circuits.rc_ladder import build_rc_ladder
from repro.errors import ShardFailureError
from repro.montecarlo import (ParameterSpace, SupervisorConfig,
                              checkpointed_ensemble_sweep, ensemble_sweep,
                              parallel_ensemble_sweep)

FREQUENCIES = np.logspace(1, 6, 5)

FAST = SupervisorConfig(heartbeat_interval=0.05, heartbeat_timeout=0.8,
                        shard_deadline=30.0, backoff=0.01,
                        poll_interval=0.005)


@pytest.fixture(scope="module")
def ladder():
    circuit, spec = build_rc_ladder(4)
    names = [element.name for element in circuit
             if type(element).__name__ in ("Resistor", "Capacitor")][:5]
    space = ParameterSpace(circuit, {name: 0.1 for name in names})
    return circuit, spec, space


@pytest.fixture
def builds(monkeypatch):
    """Count evaluator builds; a build in any other process raises."""
    parent = os.getpid()
    counts = {"mna": 0, "program": 0}
    build_mna_system = ensemble_engine.build_mna_system
    value_program = ensemble_engine.ValueProgram

    def in_parent(kind):
        if os.getpid() != parent:
            raise RuntimeError(f"worker process {os.getpid()} built {kind}")
        counts[kind] += 1

    def counting_build(circuit):
        in_parent("mna")
        return build_mna_system(circuit)

    class CountingProgram:
        @staticmethod
        def from_circuit(circuit, space):
            in_parent("program")
            return value_program.from_circuit(circuit, space)

    monkeypatch.setattr(ensemble_engine, "build_mna_system", counting_build)
    monkeypatch.setattr(ensemble_engine, "ValueProgram", CountingProgram)
    return counts


class TestEvaluatorBuiltOnce:
    def test_streaming_ensemble_sweep(self, ladder, builds):
        circuit, spec, space = ladder
        run = ensemble_sweep(circuit, spec, FREQUENCIES, space, samples=32,
                             store_responses=False, shard_size=8)
        assert run.statistics.count == 32
        assert builds == {"mna": 1, "program": 1}

    def test_checkpointed_inline(self, ladder, builds, tmp_path):
        circuit, spec, space = ladder
        run = checkpointed_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=40, shard_size=8,
            workers=1, path=str(tmp_path / "run.npz"))
        assert run.finished and run.statistics.count == 40
        assert builds == {"mna": 1, "program": 1}

    @pytest.mark.parametrize("store_responses", [True, False])
    def test_no_worker_process_builds(self, ladder, builds, store_responses):
        circuit, spec, space = ladder
        run = parallel_ensemble_sweep(
            circuit, spec, FREQUENCIES, space, samples=32, shard_size=8,
            workers=2, config=FAST, store_responses=store_responses)
        assert run.parallel.workers == 2
        assert run.parallel.redispatches == 0
        assert builds == {"mna": 1, "program": 1}


_WORKER_MAIN = parallel_engine._worker_main

#: Worker start-up is simulated by delaying the forked worker's main, so
#: these tests pin the fork start method.
FORK = dataclasses.replace(FAST, start_method="fork")


def _slow_worker_main(*args):
    time.sleep(2 * FAST.heartbeat_timeout)
    _WORKER_MAIN(*args)


def _dead_worker_main(*args):
    os._exit(3)


class TestWorkerStartUp:
    def test_slow_start_is_not_a_hang(self, ladder, monkeypatch):
        circuit, spec, space = ladder
        reference = ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                   samples=32, on_failure="quarantine")
        monkeypatch.setattr(parallel_engine, "_worker_main",
                            _slow_worker_main)
        run = parallel_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                      samples=32, shard_size=8, workers=2,
                                      config=FORK)
        assert run.parallel.redispatches == 0
        np.testing.assert_array_equal(run.responses, reference.responses)

    def test_failed_starts_are_bounded(self, ladder, monkeypatch):
        circuit, spec, space = ladder
        monkeypatch.setattr(parallel_engine, "_worker_main",
                            _dead_worker_main)
        with pytest.raises(ShardFailureError, match="failed to start") as info:
            parallel_ensemble_sweep(circuit, spec, FREQUENCIES, space,
                                    samples=32, shard_size=8, workers=2,
                                    config=FORK)
        assert info.value.shard == 0


def test_perfbench_hooks_resolve():
    """Every (module, class, attribute) the traced run wraps exists."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for module_name, class_name, attribute, __, ___ in layers._HOOKS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attribute)), (
            module_name, class_name, attribute)
