"""The typical-case (resilient) design performance model of Sec. III-B.

A resilient processor relaxes its operating voltage margin below the
worst-case guardband and recovers from the (rare) voltage emergencies that
result.  Three quantities govern the outcome:

* **margin → frequency**: Bowman et al. report that removing a 10 % margin
  buys ~15 % clock frequency; the paper adopts this 1.5x scaling.
* **emergency rate**: how often a workload's droops exceed the margin
  (from measurement, extrapolated by the droop-tail model).
* **recovery cost**: cycles lost per emergency — from ~1 (Razor), tens
  (DeCoR), ~100 (signature-based prediction with checkpointing) up to
  thousands-to-100k (production checkpoint/rollback hardware).

The net improvement over the worst-case design is

    speedup = (1 + 1.5 * (margin_wc - margin)) / (1 + rate * cost) - 1

:class:`ResilientDesignModel` evaluates this over workload populations,
finds optimal margins (Fig. 8), produces the margin x cost heat maps
(Fig. 10), and reports per-run pass/fail against an expected-improvement
target (Tab. I, Fig. 19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.measurement.tail import DroopTailModel

#: The paper's canonical recovery-cost sweep (cycles per emergency).
RECOVERY_COSTS: Tuple[int, ...] = (1, 10, 100, 1_000, 10_000, 100_000)

#: A scalar, or an array evaluated elementwise.
FloatOrArray = Union[float, np.ndarray]


@dataclass(frozen=True)
class ResilienceParameters:
    """Machine-level constants of the performance model."""

    #: The conservative guardband of the baseline design (Core 2: 14 %).
    worst_case_margin: float = 0.14
    #: Clock-frequency gain per unit of margin reduction (Bowman: 1.5).
    frequency_gain_per_margin: float = 1.5
    #: The smallest margin the sweep considers; below the VRM ripple the
    #: "emergency" notion stops being meaningful.
    min_margin: float = 0.020

    def __post_init__(self) -> None:
        if not 0 < self.worst_case_margin < 0.5:
            raise ConfigurationError("worst_case_margin must be in (0, 0.5)")
        if self.frequency_gain_per_margin <= 0:
            raise ConfigurationError(
                "frequency_gain_per_margin must be positive"
            )
        if not 0 < self.min_margin < self.worst_case_margin:
            raise ConfigurationError(
                "min_margin must be in (0, worst_case_margin)"
            )

    def frequency_gain(self, margin: FloatOrArray) -> FloatOrArray:
        """Clock-speed factor of running at ``margin`` vs the guardband.

        Accepts a scalar or an array of margins (elementwise).
        """
        inside = np.greater(margin, 0) & np.less_equal(
            margin, self.worst_case_margin
        )
        if not np.all(inside):
            raise ConfigurationError(
                f"margin must be in (0, {self.worst_case_margin}]"
            )
        return 1.0 + self.frequency_gain_per_margin * (
            self.worst_case_margin - margin
        )


def performance_improvement(
    margin: FloatOrArray,
    recovery_cost: FloatOrArray,
    emergency_rate_per_cycle: FloatOrArray,
    parameters: ResilienceParameters = ResilienceParameters(),
) -> FloatOrArray:
    """Net speedup (fraction) of a resilient design over worst-case.

    Emergencies add ``rate * cost`` recovery cycles per useful cycle; the
    aggressive margin multiplies clock frequency.  Values below 0 are the
    paper's "dead zone": worse than the conservative baseline.  The
    arguments broadcast against each other, so one call can evaluate a
    whole (margin x run) grid.
    """
    if np.any(np.less(recovery_cost, 0)):
        raise ConfigurationError("recovery_cost must be non-negative")
    if np.any(np.less(emergency_rate_per_cycle, 0)):
        raise ConfigurationError("emergency_rate must be non-negative")
    gain = parameters.frequency_gain(margin)
    overhead = emergency_rate_per_cycle * recovery_cost
    return gain / (1.0 + overhead) - 1.0


@dataclass(frozen=True)
class OptimalMargin:
    """Result of an optimal-margin search for one recovery cost."""

    recovery_cost: float
    margin: float
    improvement: float


class ResilientDesignModel:
    """Evaluates typical-case design over a population of measured runs.

    Parameters
    ----------
    tail_models:
        One droop-tail model per workload run (e.g. from a
        :class:`~repro.measurement.campaign.MeasurementCampaign`).
    parameters:
        Machine constants.
    """

    def __init__(
        self,
        tail_models: Iterable[DroopTailModel],
        parameters: ResilienceParameters = ResilienceParameters(),
    ) -> None:
        self._tails = list(tail_models)
        if not self._tails:
            raise ConfigurationError("need at least one tail model")
        self._parameters = parameters

    @property
    def parameters(self) -> ResilienceParameters:
        return self._parameters

    @property
    def n_runs(self) -> int:
        return len(self._tails)

    # ------------------------------------------------------------------
    # Aggregate sweeps
    # ------------------------------------------------------------------
    def _rate_matrix(self, margins: np.ndarray) -> np.ndarray:
        """Emergency rates, one row per margin and one column per run.

        Runs sit on the contiguous last axis: ``mean(axis=-1)`` then sums
        each row in the same pairwise order as ``np.mean`` over a list
        of per-run values, which keeps every sweep bit-identical to the
        per-element evaluation.
        """
        return np.stack([tail.rates(margins) for tail in self._tails], axis=-1)

    def _improvement_matrix(
        self, margins: np.ndarray, recovery_cost: FloatOrArray
    ) -> np.ndarray:
        """Per-run improvement, shape (margin, run).

        A ``(cost, 1, 1)`` array of recovery costs broadcasts to a
        (cost, margin, run) block, runs still on the last axis.
        """
        margins = np.asarray(margins, dtype=float)
        return performance_improvement(
            margins[:, None],
            recovery_cost,
            self._rate_matrix(margins),
            self._parameters,
        )

    def mean_improvement(self, margin: float, recovery_cost: float) -> float:
        """Average improvement across all runs at one design point."""
        return float(
            self._improvement_matrix(np.array([margin]), recovery_cost)[0].mean()
        )

    def mean_emergency_rate(self, margin: float) -> float:
        """Average per-cycle emergency rate across all runs at a margin.

        This is the rate of margin crossings a rollback-style recovery
        mechanism would actually service — the telemetry layer exports
        it (scaled to events per 1K cycles) per evaluated mechanism.
        """
        return float(self._rate_matrix(np.array([margin]))[0].mean())

    def margin_grid(self, n_points: int = 60) -> np.ndarray:
        """The margin axis used by sweeps (min_margin … worst case)."""
        return np.linspace(
            self._parameters.min_margin,
            self._parameters.worst_case_margin,
            n_points,
        )

    def margin_sweep(
        self,
        recovery_cost: float,
        margins: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(margins, mean improvement) — one line of Fig. 8."""
        if margins is None:
            margins = self.margin_grid()
        improvements = self._improvement_matrix(margins, recovery_cost)
        return margins, improvements.mean(axis=-1)

    def optimal_margin(
        self,
        recovery_cost: float,
        margins: Optional[np.ndarray] = None,
    ) -> OptimalMargin:
        """The single static margin maximizing mean improvement (Fig. 8)."""
        margins, improvements = self.margin_sweep(recovery_cost, margins)
        best = int(np.argmax(improvements))
        return OptimalMargin(
            recovery_cost=recovery_cost,
            margin=float(margins[best]),
            improvement=float(improvements[best]),
        )

    def heatmap(
        self,
        recovery_costs: Sequence[float] = RECOVERY_COSTS,
        margins: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(margins, costs, improvement[cost, margin]) — one Fig. 10 panel."""
        if margins is None:
            margins = self.margin_grid()
        costs = np.asarray(recovery_costs, dtype=float)
        improvements = self._improvement_matrix(margins, costs[:, None, None])
        return margins, costs, improvements.mean(axis=-1)

    # ------------------------------------------------------------------
    # Per-run pass/fail (Tab. I / Fig. 19)
    # ------------------------------------------------------------------
    def run_improvement(
        self, run_index: int, margin: float, recovery_cost: float
    ) -> float:
        tail = self._tails[run_index]
        return performance_improvement(
            margin, recovery_cost, tail.rate(margin), self._parameters
        )

    def per_run_optimal_margins(
        self,
        recovery_cost: float,
        margins: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Each run's individually optimal margin for one recovery cost.

        Sec. III-B: "each benchmark can have a unique optimal voltage
        margin.  However, we found that the range of optimal margins is
        small across all executions" — which is what justifies the
        one-design-fits-all static margin.  This method quantifies that
        spread for the simulated population.
        """
        if margins is None:
            margins = self.margin_grid()
        improvements = self._improvement_matrix(margins, recovery_cost)
        return np.asarray(margins, dtype=float)[np.argmax(improvements, axis=0)]

    def one_design_fits_all_gap(self, recovery_cost: float) -> float:
        """Mean improvement lost by using the single static optimal margin
        instead of each run's own optimum.  The paper argues this gap is
        negligible; returns the absolute improvement difference."""
        improvements = self._improvement_matrix(
            self.margin_grid(), recovery_cost
        )
        static = float(improvements.mean(axis=-1).max())
        individual = float(improvements.max(axis=0).mean())
        return individual - static

    def passing_runs(
        self,
        recovery_cost: float,
        margin: float,
        expected_improvement: float,
        tolerance: float = 0.0,
    ) -> List[int]:
        """Indices of runs meeting the expected improvement at a margin."""
        improvements = self._improvement_matrix(
            np.array([margin]), recovery_cost
        )[0]
        meets = improvements >= expected_improvement - tolerance
        return np.flatnonzero(meets).tolist()
