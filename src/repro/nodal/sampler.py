"""Evaluation of numerator / denominator samples at interpolation points.

This module implements Eqs. (7)–(10) of the paper: at a complex frequency
``s_k`` the (scaled) nodal matrix is LU-factored once; the determinant gives
``D(s_k)`` and the solution of the linear system gives ``H(s_k)``, from which
``N(s_k) = H(s_k) · D(s_k)``.

Because scaled determinants of large circuits can exceed the double-precision
exponent range, both values are carried as ``(complex mantissa, decimal
exponent)`` pairs (see :class:`SampleValue`); the DFT stage later rescales a
whole batch of samples by a common power of ten.

Multi-point evaluation (:meth:`NetworkFunctionSampler.sample_many`,
:meth:`NetworkFunctionSampler.frequency_response`) routes through the batched
engine of :mod:`repro.nodal.batch`, which assembles the frequency-independent
and frequency-proportional matrix parts once per sweep and reuses the
factorization structure across all points; pass ``batch=False`` to force the
original one-point-at-a-time loop (used by benchmarks and equivalence tests).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InterpolationError
from ..linalg.config import use_dense
from ..linalg.dense import dense_lu
from ..linalg.lu import sparse_lu
from .admittance import NodalFormulation, build_nodal_formulation
from .reduce import TransferSpec

__all__ = ["SampleValue", "NetworkFunctionSampler"]


@dataclasses.dataclass
class SampleValue:
    """One evaluation of the network function at a complex frequency.

    ``numerator`` and ``denominator`` are ``(mantissa, exponent)`` pairs
    representing ``mantissa * 10**exponent`` with a complex mantissa.
    """

    s: complex
    numerator: Tuple[complex, int]
    denominator: Tuple[complex, int]

    def transfer(self) -> complex:
        """``H(s) = N(s) / D(s)`` as a plain complex number."""
        n_mantissa, n_exponent = self.numerator
        d_mantissa, d_exponent = self.denominator
        if d_mantissa == 0:
            raise ZeroDivisionError("denominator sample is zero")
        ratio = n_mantissa / d_mantissa
        shift = n_exponent - d_exponent
        return ratio * 10.0**shift


def _scaled_value(mantissa: complex, exponent: int) -> Tuple[complex, int]:
    """Renormalize so the mantissa magnitude is in [1, 10) (or exactly 0)."""
    if mantissa == 0:
        return 0.0 + 0.0j, 0
    magnitude = abs(mantissa)
    shift = int(math.floor(math.log10(magnitude)))
    if shift:
        mantissa /= 10.0**shift
        exponent += shift
    return mantissa, exponent


class NetworkFunctionSampler:
    """Samples ``N(s)`` and ``D(s)`` of a circuit's network function.

    Parameters
    ----------
    circuit:
        Admittance-form circuit (see
        :func:`repro.netlist.transform.to_admittance_form`).
    spec:
        :class:`~repro.nodal.reduce.TransferSpec` naming drive and output.
    method:
        ``"auto"`` (dense at or below the configured
        :func:`~repro.linalg.config.dense_cutoff`), ``"dense"`` or
        ``"sparse"``.
    """

    def __init__(self, circuit, spec, method="auto"):
        if isinstance(spec, TransferSpec):
            self.formulation = build_nodal_formulation(circuit, spec)
        elif isinstance(spec, NodalFormulation):
            self.formulation = spec
        else:
            raise InterpolationError(
                "spec must be a TransferSpec or NodalFormulation"
            )
        if method not in ("auto", "dense", "sparse"):
            raise InterpolationError(f"unknown factorization method {method!r}")
        self.method = method
        #: Number of LU factorizations performed (for benchmarking).  Batched
        #: sweeps count one factorization per point, whether the work was done
        #: by the vectorized stack LU or by structure-reusing refactorization.
        self.factorization_count = 0
        self._batch_sampler = None

    # ------------------------------------------------------------------ #

    @property
    def dimension(self):
        """Number of unknown node voltages."""
        return self.formulation.dimension

    def max_polynomial_degree(self):
        """Upper bound on numerator / denominator degree (see formulation)."""
        return self.formulation.max_polynomial_degree()

    def _factor(self, matrix):
        self.factorization_count += 1
        if use_dense(matrix.n_rows, self.method):
            return dense_lu(matrix)
        return sparse_lu(matrix)

    # ------------------------------------------------------------------ #

    def sample(self, s, conductance_scale=1.0, frequency_scale=1.0) -> SampleValue:
        """Evaluate numerator and denominator at complex frequency ``s``.

        The matrix assembled is ``g·G + s·f·C`` — i.e. the *scaled* system —
        so the polynomial recovered from these samples has the normalized
        coefficients ``p'_i`` of Eq. (11).
        """
        formulation = self.formulation
        matrix = formulation.assemble(s, conductance_scale, frequency_scale)
        factorization = self._factor(matrix)
        det_mantissa, det_exponent = factorization.determinant_mantissa_exponent()
        if det_mantissa == 0:
            return SampleValue(s=complex(s), numerator=(0.0 + 0.0j, 0),
                               denominator=(0.0 + 0.0j, 0))

        if formulation.output_is_forced():
            rhs = None
            transfer = formulation.output_voltage(
                np.zeros(formulation.dimension, dtype=complex)
            )
        else:
            rhs = formulation.rhs(s, conductance_scale, frequency_scale)
            solution = factorization.solve(rhs)
            transfer = formulation.output_voltage(solution)

        numerator = _scaled_value(transfer * det_mantissa, det_exponent)
        denominator = (det_mantissa, det_exponent)
        return SampleValue(s=complex(s), numerator=numerator,
                           denominator=denominator)

    def sample_many(self, points, conductance_scale=1.0,
                    frequency_scale=1.0, batch=True) -> List[SampleValue]:
        """Evaluate at every point of ``points`` (a sequence of complex values).

        Results preserve the input order.  With ``batch=True`` (the default)
        any non-empty list, a single point included, runs through the
        batched engine (:class:`~repro.nodal.batch.BatchSampler`): the
        matrix parts are assembled once and the factorization structure is
        shared across all points and calls.  ``batch=False`` evaluates one
        point at a time via :meth:`sample` — the per-point oracle of
        benchmarks and equivalence tests.
        """
        points = list(points)
        if batch and points:
            batch_sampler = self.batch_sampler()
            samples = batch_sampler.sample_batch(points, conductance_scale,
                                                 frequency_scale)
            self.factorization_count += len(points)
            return samples
        return [self.sample(point, conductance_scale, frequency_scale)
                for point in points]

    def batch_sampler(self):
        """The cached :class:`~repro.nodal.batch.BatchSampler` for this circuit."""
        if self._batch_sampler is None:
            from .batch import BatchSampler

            self._batch_sampler = BatchSampler(self.formulation,
                                               method=self.method)
        return self._batch_sampler

    def transfer_value(self, s) -> complex:
        """Exact (unscaled) ``H(s)`` at a single complex frequency.

        This is the value a conventional AC analysis computes and is used for
        cross-checking interpolated polynomials (Fig. 2 of the paper).
        """
        return self.sample(s, 1.0, 1.0).transfer()

    def frequency_response(self, frequencies) -> np.ndarray:
        """``H(j·2π·f)`` for an array of frequencies in hertz (batched)."""
        frequencies = np.asarray(frequencies, dtype=float)
        samples = self.sample_many(2j * math.pi * frequencies)
        return np.asarray([sample.transfer() for sample in samples],
                          dtype=complex)
