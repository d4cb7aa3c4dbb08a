"""Batched-vs-pointwise equivalence of the frequency-sweep engine."""

import math

import numpy as np
import pytest

import repro.linalg.dense as dense_module
import repro.linalg.lu as lu_module
from repro.analysis.ac import ACAnalysis
from repro.analysis.bode import bode_sweep
from repro.circuits.generators import build_generator
from repro.circuits.rc_ladder import build_rc_ladder
from repro.engine.sweep import SweepEngine
from repro.errors import SingularMatrixError
from repro.interpolation.polynomial import Polynomial
from repro.interpolation.rational import RationalFunction
from repro.linalg.dense import batched_dense_lu, dense_lu
from repro.linalg.lu import (BatchedSparseLU, SparseRefactorPlan, sparse_lu,
                             sparse_lu_refactor, sparse_lu_reusing)
from repro.linalg.sparse import SparseMatrix
from repro.mna.builder import build_mna_system
from repro.mna.solve import ac_solve, ac_sweep
from repro.netlist.circuit import Circuit
from repro.netlist.transform import to_admittance_form
from repro.nodal.batch import BatchSampler
from repro.nodal.sampler import NetworkFunctionSampler
from repro.xfloat import XFloat


def _random_grid(rng, count=24):
    """Log-random complex frequency points over 12 decades."""
    magnitudes = 10.0 ** rng.uniform(-2.0, 10.0, count)
    return (2j * math.pi * magnitudes).tolist()


class TestBatchedDenseLU:
    def test_matches_scalar_factorization(self):
        rng = np.random.default_rng(11)
        stack = rng.normal(size=(9, 17, 17)) + 1j * rng.normal(size=(9, 17, 17))
        batched = batched_dense_lu(stack.copy())
        rhs = rng.normal(size=17) + 1j * rng.normal(size=17)
        for index in range(stack.shape[0]):
            scalar = dense_lu(stack[index])
            assert np.array_equal(scalar.lu, batched.lu[index])
            assert np.array_equal(scalar.permutation,
                                  batched.permutations[index])
            member = batched.member(index)
            assert (member.determinant_mantissa_exponent()
                    == scalar.determinant_mantissa_exponent())
            assert np.array_equal(member.solve(rhs), scalar.solve(rhs))

    def test_vectorized_determinants_and_solve(self):
        rng = np.random.default_rng(12)
        stack = rng.normal(size=(6, 13, 13)) + 1j * rng.normal(size=(6, 13, 13))
        batched = batched_dense_lu(stack.copy())
        mantissas, exponents = batched.determinants_mantissa_exponent()
        rhs = rng.normal(size=(6, 13)) + 1j * rng.normal(size=(6, 13))
        solutions = batched.solve(rhs)
        for index in range(6):
            scalar = dense_lu(stack[index])
            mantissa, exponent = scalar.determinant_mantissa_exponent()
            assert exponents[index] == exponent
            assert mantissas[index] == pytest.approx(mantissa, rel=1e-12)
            expected = scalar.solve(rhs[index])
            assert np.max(np.abs(solutions[index] - expected)) <= (
                1e-12 * np.max(np.abs(expected))
            )

    def test_singular_member_flagged_not_fatal(self):
        rng = np.random.default_rng(13)
        stack = rng.normal(size=(4, 8, 8)) + 1j * rng.normal(size=(4, 8, 8))
        stack[2] = 0.0
        batched = batched_dense_lu(stack.copy())
        assert batched.singular.tolist() == [False, False, True, False]
        mantissas, __ = batched.determinants_mantissa_exponent()
        assert mantissas[2] == 0
        healthy = dense_lu(stack[0])
        assert (batched.member(0).determinant_mantissa_exponent()
                == healthy.determinant_mantissa_exponent())


class TestSparseRefactor:
    def _random_sparse(self, rng, n=20, density=0.25):
        dense = np.where(rng.random((n, n)) < density, 1.0, 0.0) * (
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        )
        dense += np.diag(rng.normal(size=n) + 4.0)
        return SparseMatrix.from_dense(dense)

    def test_refactor_matches_fresh(self):
        rng = np.random.default_rng(21)
        matrix = self._random_sparse(rng)
        pattern = sparse_lu(matrix)
        shifted = matrix.copy()
        for row, col, value in list(matrix.entries()):
            shifted.set(row, col, value * (1.0 + 0.05j))
        refactored = sparse_lu_refactor(shifted, pattern)
        fresh = sparse_lu(shifted)
        rhs = rng.normal(size=matrix.n_rows)
        assert np.max(np.abs(refactored.solve(rhs) - fresh.solve(rhs))) < 1e-9
        r_mantissa, r_exponent = refactored.determinant_mantissa_exponent()
        f_mantissa, f_exponent = fresh.determinant_mantissa_exponent()
        assert r_exponent == f_exponent
        assert r_mantissa == pytest.approx(f_mantissa, rel=1e-9)

    def test_zero_pivot_raises(self):
        rng = np.random.default_rng(22)
        matrix = self._random_sparse(rng, n=6, density=0.0)
        pattern = sparse_lu(matrix)
        degenerate = matrix.copy()
        degenerate.set(pattern.pivot_rows[0], pattern.pivot_cols[0], 0.0)
        with pytest.raises(SingularMatrixError):
            sparse_lu_refactor(degenerate, pattern)


def _mesh_system(seed=3):
    """MNA system of a post-layout RC mesh above the dense cutoff."""
    circuit, __ = build_generator("mesh", 160, seed=seed)
    return build_mna_system(circuit)


def _pointwise_sparse(system, s, order):
    """The per-point oracle: scalar ``sparse_lu_reusing`` at every point,
    the policy the chunked engine must reproduce.  Returns the
    factorizations (up to a singular point), the fresh / refactored counts
    and the singular point's index (``None`` if none)."""
    keys, constant_values, dynamic_values = system.merged_sparse_structure()
    n = system.dimension
    pattern = None
    factorizations, fresh, refactored = [], 0, 0
    for k, point in enumerate(s):
        values = constant_values + complex(point) * dynamic_values
        matrix = SparseMatrix.from_entries(n, n, zip(keys, values.tolist()))
        try:
            factorization, pattern, reused = sparse_lu_reusing(
                matrix, pattern, column_order=order)
        except SingularMatrixError:
            return factorizations, fresh, refactored, k
        factorizations.append(factorization)
        refactored += reused
        fresh += not reused
    return factorizations, fresh, refactored, None


def _members(chunks):
    """``(k, chunk, index)`` for every point covered by the chunks."""
    for start, chunk in chunks:
        for index in range(chunk.batch):
            yield start + index, chunk, index


class TestBatchedSparseLU:
    @pytest.mark.parametrize("ordering", ["amd", "rcm", "markowitz"])
    def test_matches_pointwise_refactor(self, ordering):
        system = _mesh_system()
        s = 2j * math.pi * np.logspace(0, 8, 12)
        engine = SweepEngine(system, method="sparse", ordering=ordering)
        chunks = list(engine.sparse_chunks(s))
        expected, fresh, refactored, __ = _pointwise_sparse(
            system, s, engine.column_order())
        assert (engine.factorization_count,
                engine.refactorization_count) == (fresh, refactored)
        rhs = system.rhs
        for k, chunk, index in _members(chunks):
            assert isinstance(chunk, BatchedSparseLU)
            mantissas, exponents = chunk.determinants_mantissa_exponent()
            mantissa, exponent = expected[k].determinant_mantissa_exponent()
            assert exponents[index] == exponent
            assert abs(mantissas[index] - mantissa) <= 1e-12 * abs(mantissa)
            solution = expected[k].solve(rhs)
            for got in (chunk.solve(rhs)[index],
                        chunk.solve_matrix(rhs[:, None])[index, :, 0],
                        chunk.member(index).solve(rhs)):
                assert np.max(np.abs(got - solution)) <= (
                    1e-12 * np.max(np.abs(solution)))

    def test_degraded_pivot_mid_chunk(self, monkeypatch):
        system = _mesh_system()
        keys, constant_values, dynamic_values = (
            system.merged_sparse_structure())
        engine = SweepEngine(system, method="sparse")
        order = engine.column_order()
        s = 2j * math.pi * np.logspace(2, 8, 12)
        first = _pointwise_sparse(system, s[:1], order)[0][0]
        # Cancel a reused pivot at point 5 (s·C = -G on its entry): the
        # first pivot with a capacitive part that no earlier step updates.
        plan = SparseRefactorPlan(system.dimension, keys, first.pivot_rows,
                                  first.pivot_cols)
        updated = set()
        for step in plan.steps:
            if (step.pivot < len(keys) and dynamic_values[step.pivot] != 0
                    and step.pivot not in updated):
                break
            updated.update(step.update)
        s[5] = -constant_values[step.pivot] / dynamic_values[step.pivot]
        expected, fresh, refactored, __ = _pointwise_sparse(system, s, order)
        assert (fresh, refactored) == (2, len(s) - 2)

        calls = []
        original = lu_module.sparse_lu

        def counting_sparse_lu(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lu_module, "sparse_lu", counting_sparse_lu)
        chunks = list(engine.sparse_chunks(s))
        assert len(calls) == 2
        assert [(start, chunk.batch) for start, chunk in chunks] == [
            (0, 1), (1, 4), (5, 1), (6, 6)]
        # Point 5 re-pivoted; the rest of the sweep replays its pattern.
        assert chunks[2][1].plan is chunks[3][1].plan
        assert chunks[2][1].plan.pivot_rows == expected[5].pivot_rows
        assert chunks[2][1].plan.pivot_rows != first.pivot_rows
        assert (engine.factorization_count,
                engine.refactorization_count) == (fresh, refactored)
        for k, chunk, index in _members(chunks):
            solution = expected[k].solve(system.rhs)
            assert np.max(np.abs(chunk.solve(system.rhs)[index] - solution)) \
                <= 1e-12 * np.max(np.abs(solution))

    def test_singular_point_named(self):
        circuit = Circuit("floating")
        circuit.add_voltage_source("Vin", "in", "0", 1.0)
        circuit.add_resistor("R1", "in", "a", 1e3)
        circuit.add_capacitor("C1", "b", "0", 1e-12)   # b floats at DC
        system = build_mna_system(circuit)
        s = 2j * math.pi * np.array([1e3, 2e3, 0.0, 3e3])
        engine = SweepEngine(system, method="sparse")
        __, ___, ____, singular = _pointwise_sparse(system, s,
                                                   engine.column_order())
        assert singular == 2
        with pytest.raises(SingularMatrixError,
                           match="singular at sweep point 2") as info:
            engine.solve_sweep(s, system.rhs)
        assert info.value.sweep_point == singular

    def test_chunks_respect_budget(self, monkeypatch):
        system = _mesh_system()
        s = 2j * math.pi * np.logspace(0, 8, 15)
        whole = list(SweepEngine(system, method="sparse").sparse_chunks(s))
        assert [chunk.batch for __, chunk in whole] == [1, 14]
        slots = whole[1][1].plan.slots
        budget = 4 * slots + 1
        monkeypatch.setattr(dense_module, "_SWEEP_CHUNK_ELEMENTS", budget)
        split = list(SweepEngine(system, method="sparse").sparse_chunks(s))
        assert [start for start, __ in split] == [0, 1, 5, 9, 13]
        assert all(chunk.batch * chunk.plan.slots <= budget
                   for __, chunk in split)
        for (k, chunk, index), (__, reference, position) in zip(
                _members(split), _members(whole)):
            assert np.array_equal(chunk.solve(system.rhs)[index],
                                  reference.solve(system.rhs)[position])


class TestSampleManyEquivalence:
    @pytest.mark.parametrize("scales", [(1.0, 1.0), (2.5, 1e9), (0.3, 3.7e6)])
    def test_property_random_grids_match_pointwise(self, scales, rc_ladder_3,
                                                   ota_circuit,
                                                   miller_circuit):
        """Batched and per-point samples agree on random grids and scales."""
        conductance_scale, frequency_scale = scales
        rng = np.random.default_rng(int(frequency_scale) % 7919)
        fixtures = [rc_ladder_3[:2], ota_circuit, miller_circuit]
        for circuit, spec in fixtures:
            sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
            points = _random_grid(rng)
            pointwise = sampler.sample_many(points, conductance_scale,
                                            frequency_scale, batch=False)
            batched = sampler.sample_many(points, conductance_scale,
                                          frequency_scale, batch=True)
            for expected, got in zip(pointwise, batched):
                assert got.numerator == expected.numerator
                assert got.denominator == expected.denominator

    def test_sample_many_preserves_ordering(self, rc_ladder_3):
        circuit, spec = rc_ladder_3[:2]
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        rng = np.random.default_rng(5)
        points = _random_grid(rng, count=17)
        rng.shuffle(points)
        samples = sampler.sample_many(points)
        assert [sample.s for sample in samples] == [complex(p) for p in points]

    def test_sample_many_xfloat_exponent_handling(self):
        """Huge scale factors: exponents match per-point and mantissas stay
        normalized into [1, 10), beyond double range when denormalized."""
        circuit, spec = build_rc_ladder(24)
        sampler = NetworkFunctionSampler(to_admittance_form(circuit), spec)
        points = _random_grid(np.random.default_rng(6), count=12)
        pointwise = sampler.sample_many(points, 1.0, 1e9, batch=False)
        batched = sampler.sample_many(points, 1.0, 1e9, batch=True)
        for expected, got in zip(pointwise, batched):
            assert got.denominator == expected.denominator
            assert got.numerator == expected.numerator
            for mantissa, __ in (got.numerator, got.denominator):
                if mantissa != 0:
                    # Mantissas stay normalized (up to one rounding ulp at
                    # the decade boundary, matching the per-point path).
                    assert 0.999 <= abs(mantissa) < 10.001
        # The sweep reaches magnitudes a plain double cannot represent once
        # combined with the Eq. (11) denormalization — XFloat carries them.
        coefficient = XFloat(abs(batched[0].denominator[0]),
                             batched[0].denominator[1] - 1000)
        assert coefficient.log10() < -308

    def test_sparse_method_matches_pointwise(self, miller_circuit):
        mesh = build_generator("mesh", 160, seed=8)
        for circuit, spec in (miller_circuit, mesh):
            sampler = NetworkFunctionSampler(to_admittance_form(circuit),
                                             spec, method="sparse")
            points = _random_grid(np.random.default_rng(8), count=15)
            pointwise = sampler.sample_many(points, batch=False)
            batched = sampler.sample_many(points, batch=True)
            reference = np.array([sample.transfer() for sample in pointwise])
            values = np.array([sample.transfer() for sample in batched])
            assert np.max(np.abs(values - reference)
                          / np.abs(reference)) <= 1e-9
            batch_sampler = sampler.batch_sampler()
            assert batch_sampler.factorization_count == 1
            assert batch_sampler.refactorization_count == len(points) - 1

    def test_batch_sampler_direct_api(self, rc_ladder_3):
        circuit, spec = rc_ladder_3[:2]
        admittance = to_admittance_form(circuit)
        batch_sampler = BatchSampler(admittance, spec)
        frequencies = np.logspace(2, 7, 30)
        response = batch_sampler.frequency_response(frequencies)
        sampler = NetworkFunctionSampler(admittance, spec)
        expected = np.array([sampler.transfer_value(2j * math.pi * f)
                             for f in frequencies])
        assert np.array_equal(response, expected)


class TestMnaAndAnalysisSweep:
    def test_ac_sweep_matches_ac_solve(self, ua741_circuit):
        circuit, __ = ua741_circuit
        system = build_mna_system(circuit)
        points = _random_grid(np.random.default_rng(9), count=10)
        swept = ac_sweep(system, points)
        for index, point in enumerate(points):
            single = ac_solve(system, point)
            assert np.max(np.abs(swept[index] - single)) <= (
                1e-9 * np.max(np.abs(single))
            )

    def test_ac_sweep_sparse_matches_dense(self, ua741_circuit):
        circuit, __ = ua741_circuit
        system = build_mna_system(circuit)
        points = _random_grid(np.random.default_rng(10), count=6)
        dense = ac_sweep(system, points, method="dense")
        sparse = ac_sweep(system, points, method="sparse")
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(dense - sparse)) <= 1e-9 * scale

    def test_analysis_frequency_response_matches_value_at(self, ua741_circuit):
        circuit, spec = ua741_circuit
        analysis = ACAnalysis(circuit, spec)
        frequencies = np.logspace(0, 8, 25)
        swept = analysis.frequency_response(frequencies)
        pointwise = np.array([analysis.value_at(2j * math.pi * f)
                              for f in frequencies])
        assert np.max(np.abs(swept - pointwise) / np.abs(pointwise)) <= 1e-9
        assert analysis.factorization_count == 50

    def test_bode_sweep_matches_bode(self, ua741_circuit):
        circuit, spec = ua741_circuit
        frequencies = np.logspace(0, 8, 17)
        data = bode_sweep(circuit, spec, frequencies)
        magnitude, phase = ACAnalysis(circuit, spec).bode(frequencies)
        assert np.allclose(data.magnitude_db, magnitude, rtol=1e-9)
        assert np.allclose(data.phase_deg, phase, rtol=1e-9)


class TestVectorizedEvaluation:
    def _polynomials(self):
        rng = np.random.default_rng(31)
        numerator = Polynomial([
            XFloat(rng.normal(), int(exponent))
            for exponent in rng.integers(-150, 150, 12)
        ])
        denominator = Polynomial([
            XFloat(rng.normal(), int(exponent))
            for exponent in rng.integers(-120, 180, 15)
        ])
        return numerator, denominator

    def test_polynomial_evaluate_many_matches_scalar(self):
        polynomial, __ = self._polynomials()
        rng = np.random.default_rng(32)
        s_values = np.asarray(_random_grid(rng, count=40))
        s_values[3] = 0.0
        mantissas, exponents = polynomial.evaluate_many(s_values)
        for index, s in enumerate(s_values):
            mantissa, exponent = polynomial.evaluate(s)
            value = mantissas[index] * 10.0 ** float(exponents[index]
                                                     - exponent)
            assert value == pytest.approx(mantissa, rel=1e-9, abs=1e-300)

    def test_rational_frequency_response_matches_scalar(self):
        numerator, denominator = self._polynomials()
        rational = RationalFunction(numerator, denominator)
        frequencies = np.logspace(-1, 9, 60)
        batched = rational.frequency_response(frequencies)
        pointwise = np.array([rational.evaluate(2j * math.pi * f)
                              for f in frequencies])
        assert np.max(np.abs(batched - pointwise)
                      / np.maximum(np.abs(pointwise), 1e-300)) <= 1e-9
