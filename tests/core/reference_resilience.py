"""Test-only reference: the per-element droop-rate rule and margin sweeps.

The original :class:`~repro.measurement.tail.DroopTailModel` answered
one margin at a time, and :class:`~repro.core.resilience.
ResilientDesignModel` swept margins, costs and runs in nested Python
loops over it.  Both are kept here verbatim so the array versions can
be pinned bit-identical to them, element for element.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resilience import RECOVERY_COSTS, ResilienceParameters
from repro.errors import CalibrationError
from repro.measurement.droops import DroopStatistics
from repro.measurement.tail import MIN_EMPIRICAL_EVENTS, MIN_FIT_EVENTS


class ReferenceTailModel:
    """The scalar empirical + fitted-exponential rate rule."""

    def __init__(self, statistics: DroopStatistics) -> None:
        self._stats = statistics
        self._amplitude, self._beta = self._fit()

    def _fit(self) -> Tuple[float, float]:
        depths = self._stats.depths
        if depths.size < MIN_FIT_EVENTS:
            fallback_beta = 0.002
            amplitude = depths.size / self._stats.n_cycles if depths.size else 1e-12
            return amplitude, fallback_beta
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
        if margin <= 0:
            raise CalibrationError("margin must be positive")
        if margin >= self._stats.threshold:
            empirical_events = self._stats.events_deeper_than(margin)
            if empirical_events >= MIN_EMPIRICAL_EVENTS:
                return empirical_events / self._stats.n_cycles
        extrapolated = self._amplitude * np.exp(-margin / self._beta)
        if margin >= self._stats.threshold:
            empirical = self._stats.event_rate(margin)
            ceiling = max(empirical, MIN_EMPIRICAL_EVENTS / self._stats.n_cycles)
            return float(min(extrapolated, ceiling))
        return float(extrapolated)


def reference_improvement(
    margin: float,
    recovery_cost: float,
    emergency_rate_per_cycle: float,
    parameters: ResilienceParameters,
) -> float:
    """The scalar net-speedup formula."""
    gain = 1.0 + parameters.frequency_gain_per_margin * (
        parameters.worst_case_margin - margin
    )
    overhead = emergency_rate_per_cycle * recovery_cost
    return gain / (1.0 + overhead) - 1.0


class ReferenceDesignModel:
    """The nested-loop sweeps over per-element :meth:`rate` calls."""

    def __init__(
        self,
        tail_models: Sequence[ReferenceTailModel],
        parameters: ResilienceParameters = ResilienceParameters(),
    ) -> None:
        self._tails = list(tail_models)
        self._parameters = parameters

    def mean_improvement(self, margin: float, recovery_cost: float) -> float:
        return float(np.mean([
            reference_improvement(
                margin, recovery_cost, tail.rate(margin), self._parameters
            )
            for tail in self._tails
        ]))

    def mean_emergency_rate(self, margin: float) -> float:
        return float(np.mean([tail.rate(margin) for tail in self._tails]))

    def margin_grid(self, n_points: int = 60) -> np.ndarray:
        return np.linspace(
            self._parameters.min_margin,
            self._parameters.worst_case_margin,
            n_points,
        )

    def margin_sweep(
        self, recovery_cost: float, margins: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        if margins is None:
            margins = self.margin_grid()
        improvements = np.array([
            self.mean_improvement(float(m), recovery_cost) for m in margins
        ])
        return margins, improvements

    def optimal_margin(
        self, recovery_cost: float, margins: Optional[np.ndarray] = None
    ) -> Tuple[float, float]:
        margins, improvements = self.margin_sweep(recovery_cost, margins)
        best = int(np.argmax(improvements))
        return float(margins[best]), float(improvements[best])

    def heatmap(
        self,
        recovery_costs: Sequence[float] = RECOVERY_COSTS,
        margins: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if margins is None:
            margins = self.margin_grid()
        grid = np.empty((len(recovery_costs), margins.size))
        for i, cost in enumerate(recovery_costs):
            _, grid[i] = self.margin_sweep(cost, margins)
        return margins, np.asarray(recovery_costs, dtype=float), grid

    def per_run_optimal_margins(
        self, recovery_cost: float, margins: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if margins is None:
            margins = self.margin_grid()
        optima = np.empty(len(self._tails))
        for i, tail in enumerate(self._tails):
            improvements = np.array([
                reference_improvement(
                    float(m), recovery_cost, tail.rate(float(m)),
                    self._parameters,
                )
                for m in margins
            ])
            optima[i] = float(margins[int(np.argmax(improvements))])
        return optima

    def one_design_fits_all_gap(self, recovery_cost: float) -> float:
        margins = self.margin_grid()
        _, static = self.optimal_margin(recovery_cost, margins)
        per_run = self.per_run_optimal_margins(recovery_cost, margins)
        individual = float(np.mean([
            reference_improvement(
                float(m), recovery_cost, tail.rate(float(m)),
                self._parameters,
            )
            for m, tail in zip(per_run, self._tails)
        ]))
        return individual - static

    def passing_runs(
        self,
        recovery_cost: float,
        margin: float,
        expected_improvement: float,
        tolerance: float = 0.0,
    ) -> List[int]:
        passing = []
        for i, tail in enumerate(self._tails):
            improvement = reference_improvement(
                margin, recovery_cost, tail.rate(margin), self._parameters
            )
            if improvement >= expected_improvement - tolerance:
                passing.append(i)
        return passing
