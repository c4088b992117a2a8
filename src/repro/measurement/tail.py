"""Droop-depth tail modelling for emergency-rate extrapolation.

A finite simulated window cannot empirically resolve emergency rates of
10^-8 per cycle, but the resilient-design sweeps (Figs. 8 and 10) need
rates at deep margins where events are that rare.  Droop depths beyond the
bulk of the distribution are governed by coincidences of independent noise
sources (ripple trough x burst edge x refill surge), which yields an
approximately exponential depth tail — so we fit

    rate(depth > m) = A * exp(-m / beta)

to the empirically counted excursions and extrapolate beyond them.  Inside
the well-sampled region the empirical rate is used directly; the fit takes
over only where sampling noise would dominate.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CalibrationError, MeasurementError
from repro.measurement.droops import DroopStatistics

#: Minimum events required above a margin before the empirical count is
#: trusted over the fitted tail.
MIN_EMPIRICAL_EVENTS = 20

#: Minimum excursions required to fit a tail at all.
MIN_FIT_EVENTS = 10


class DroopTailModel:
    """Empirical + fitted-exponential model of droop-event rates.

    Parameters
    ----------
    statistics:
        Excursion statistics from :func:`repro.measurement.droops.detect_droops`.
    """

    def __init__(self, statistics: DroopStatistics) -> None:
        if statistics.n_cycles <= 0:
            raise MeasurementError("statistics cover zero cycles")
        self._stats = statistics
        self._amplitude, self._beta = self._fit()
        # Sorted once so every margin's event count is a binary search.
        self._sorted_depths = np.sort(statistics.depths)

    @property
    def statistics(self) -> DroopStatistics:
        return self._stats

    @property
    def beta(self) -> float:
        """Exponential tail scale (fraction of nominal per e-fold)."""
        return self._beta

    def _fit(self) -> tuple[float, float]:
        depths = self._stats.depths
        if depths.size < MIN_FIT_EVENTS:
            # Too few excursions to characterize a tail: treat the deepest
            # observation as an upper bound with a steep synthetic tail.
            fallback_beta = 0.002
            amplitude = depths.size / self._stats.n_cycles if depths.size else 1e-12
            return amplitude, fallback_beta
        # Fit on the upper half of observed depths (the tail region) by the
        # maximum-likelihood estimator for a shifted exponential.
        pivot = float(np.quantile(depths, 0.5))
        tail = depths[depths > pivot]
        if tail.size < MIN_FIT_EVENTS:
            pivot = float(np.quantile(depths, 0.25))
            tail = depths[depths > pivot]
        beta = float(np.mean(tail - pivot))
        beta = max(beta, 1e-5)
        rate_at_pivot = tail.size / self._stats.n_cycles
        amplitude = rate_at_pivot * np.exp(pivot / beta)
        return amplitude, beta

    def rate(self, margin: float) -> float:
        """Emergency rate (events per cycle) at one operating margin."""
        return float(self.rates(np.array([margin], dtype=float))[0])

    def rates(self, margins: np.ndarray) -> np.ndarray:
        """Emergency rates (events per cycle), one per margin, same shape.

        Uses the empirical count where at least ``MIN_EMPIRICAL_EVENTS``
        excursions exceed the margin; otherwise the fitted tail.
        """
        margins = np.asarray(margins, dtype=float)
        if (margins <= 0).any():
            raise CalibrationError("margin must be positive")
        stats = self._stats
        sorted_depths = self._sorted_depths
        # Excursions strictly deeper than each margin.
        events = sorted_depths.size - sorted_depths.searchsorted(
            margins, side="right"
        )
        empirical = events / stats.n_cycles
        extrapolated = self._amplitude * np.exp(-margins / self._beta)
        # Never report more events than actually observed at margins we
        # could count (monotonicity guard for the crossover point).
        ceiling = np.maximum(empirical, MIN_EMPIRICAL_EVENTS / stats.n_cycles)
        counted = margins >= stats.threshold
        return np.where(
            counted & (events >= MIN_EMPIRICAL_EVENTS),
            empirical,
            np.where(counted, np.minimum(extrapolated, ceiling), extrapolated),
        )
