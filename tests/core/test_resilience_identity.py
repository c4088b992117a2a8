"""Bit-identity of the array droop-rate rule and margin sweeps.

``DroopTailModel.rates`` evaluates every margin in one array expression,
and ``ResilientDesignModel`` sweeps one (margin x run) improvement
matrix.  ``reference_resilience`` keeps the original per-element rule
and nested-loop sweeps; every output here must equal it exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.resilience import (
    RECOVERY_COSTS,
    ResilienceParameters,
    ResilientDesignModel,
    performance_improvement,
)
from repro.errors import CalibrationError, ConfigurationError
from repro.measurement.droops import DroopStatistics
from repro.measurement.tail import MIN_EMPIRICAL_EVENTS, DroopTailModel
from tests.core.reference_resilience import (
    ReferenceDesignModel,
    ReferenceTailModel,
    reference_improvement,
)


def identical(got, want) -> bool:
    """Exact equality; a degenerate fit's NaN must match a NaN."""
    return np.array_equal(got, want, equal_nan=True)


def synthetic_statistics(
    seed: int,
    n_events: int,
    threshold: float = 0.01,
    beta: float = 0.008,
    n_cycles: int = 1_000_000,
    quantum: float = 0.0,
) -> DroopStatistics:
    """Exponential-tailed excursion depths; ``quantum`` > 0 makes ties."""
    rng = np.random.default_rng(seed)
    depths = threshold + rng.exponential(beta, size=n_events)
    if quantum:
        depths = np.ceil(depths / quantum) * quantum
    return DroopStatistics(
        depths=depths,
        durations=np.full(n_events, 10, dtype=int),
        n_cycles=n_cycles,
        threshold=threshold,
    )


@st.composite
def droop_statistics(draw):
    return synthetic_statistics(
        seed=draw(st.integers(0, 2**32 - 1)),
        # Fewer than 10 excursions takes the fallback fit; around 20
        # straddles the empirical/extrapolated crossover.
        n_events=draw(st.one_of(
            st.integers(0, 25), st.integers(26, 2000)
        )),
        threshold=draw(st.floats(0.005, 0.03)),
        beta=draw(st.floats(0.001, 0.03)),
        n_cycles=draw(st.integers(10_000, 10_000_000)),
        quantum=draw(st.sampled_from([0.0, 0.001, 0.005])),
    )


def probe_margins(stats: DroopStatistics) -> np.ndarray:
    """Margins where the rule changes branch, plus a coarse sweep."""
    deepest_first = np.sort(stats.depths)[::-1]
    crossover = list(
        deepest_first[MIN_EMPIRICAL_EVENTS - 1:MIN_EMPIRICAL_EVENTS + 1]
    )
    edges = [
        stats.threshold,                    # at the detection threshold
        np.nextafter(stats.threshold, 0.0),  # just below it
        stats.threshold / 2,                # well below it
    ]
    return np.concatenate([
        edges,
        crossover,                          # 19 / 20 deeper events
        stats.depths[:64],                  # equal to recorded depths
        np.linspace(0.001, 0.2, 41),
    ])


# A tie-heavy population can empty the fit's tail region; the degenerate
# (NaN) fit is part of the rule being pinned, its warnings are not.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class TestRateRule:
    @settings(max_examples=60, deadline=None)
    @given(
        stats=droop_statistics(),
        extra=st.lists(st.floats(1e-6, 0.3), max_size=16),
    )
    def test_rates_match_rate_and_reference(self, stats, extra):
        model = DroopTailModel(stats)
        reference = ReferenceTailModel(stats)
        margins = np.concatenate([probe_margins(stats), extra])
        rates = model.rates(margins)
        assert rates.shape == margins.shape
        one_at_a_time = np.array([model.rate(float(m)) for m in margins])
        per_element = np.array([reference.rate(float(m)) for m in margins])
        assert identical(rates, one_at_a_time)
        assert identical(rates, per_element)

    def test_margin_equal_to_a_depth_is_not_an_event(self):
        # The count is strict (depth > margin): the depth sitting exactly
        # at the margin is not one of the 20 events deeper than it.
        depths = np.concatenate([[0.03], np.linspace(0.04, 0.08, 20)])
        stats = DroopStatistics(
            depths=depths, durations=np.ones(21, dtype=int),
            n_cycles=1000, threshold=0.01,
        )
        model = DroopTailModel(stats)
        assert model.rate(0.03) == 20 / 1000  # simlint: disable=HYG001 (exact count)
        assert model.rate(0.03) == ReferenceTailModel(stats).rate(0.03)  # simlint: disable=HYG001 (bit-identity is the property)

    def test_preserves_shape(self):
        model = DroopTailModel(synthetic_statistics(0, 500))
        grid = np.linspace(0.02, 0.14, 12).reshape(3, 4)
        assert np.array_equal(
            model.rates(grid), model.rates(grid.ravel()).reshape(3, 4)
        )

    @pytest.mark.parametrize("bad", [0.0, -0.01])
    def test_non_positive_margin_rejected(self, bad):
        model = DroopTailModel(synthetic_statistics(1, 300))
        with pytest.raises(CalibrationError):
            model.rate(bad)
        with pytest.raises(CalibrationError):
            model.rates(np.array([0.05, bad, 0.1]))


class TestArrayFormulas:
    def test_frequency_gain_elementwise(self):
        params = ResilienceParameters()
        margins = np.linspace(0.02, 0.14, 9)
        assert np.array_equal(
            params.frequency_gain(margins),
            [params.frequency_gain(float(m)) for m in margins],
        )
        with pytest.raises(ConfigurationError):
            params.frequency_gain(np.array([0.05, 0.2]))
        with pytest.raises(ConfigurationError):
            params.frequency_gain(np.array([0.0, 0.05]))

    def test_improvement_elementwise(self):
        params = ResilienceParameters()
        margins = np.linspace(0.02, 0.14, 7)[:, None]
        rates = np.array([[0.0, 1e-6, 3e-4]])
        grid = performance_improvement(margins, 1000, rates, params)
        assert grid.shape == (7, 3)
        for i, m in enumerate(margins[:, 0]):
            for j, rate in enumerate(rates[0]):
                assert grid[i, j] == reference_improvement(  # simlint: disable=HYG001 (bit-identity is the property)
                    float(m), 1000, float(rate), params
                )
        with pytest.raises(ConfigurationError):
            performance_improvement(margins, 1000, -rates, params)
        with pytest.raises(ConfigurationError):
            performance_improvement(margins, np.array([10, -1]), 0.0, params)


def models(stats_list):
    return (
        ResilientDesignModel([DroopTailModel(s) for s in stats_list]),
        ReferenceDesignModel([ReferenceTailModel(s) for s in stats_list]),
    )


def assert_sweeps_equal(model, reference, cost):
    margins, mean = model.margin_sweep(cost)
    ref_margins, ref_mean = reference.margin_sweep(cost)
    assert identical(margins, ref_margins)
    assert identical(mean, ref_mean)

    optimum = model.optimal_margin(cost)
    assert identical(
        (optimum.margin, optimum.improvement), reference.optimal_margin(cost)
    )
    assert identical(
        model.per_run_optimal_margins(cost),
        reference.per_run_optimal_margins(cost),
    )
    assert identical(
        model.one_design_fits_all_gap(cost),
        reference.one_design_fits_all_gap(cost),
    )
    for margin in (0.02, 0.05, optimum.margin, 0.14):
        assert identical(
            model.mean_emergency_rate(margin),
            reference.mean_emergency_rate(margin),
        )
        expected = reference.mean_improvement(margin, cost)
        assert identical(model.mean_improvement(margin, cost), expected)
        for tolerance in (0.0, 0.01):
            assert model.passing_runs(cost, margin, expected, tolerance) == (
                reference.passing_runs(cost, margin, expected, tolerance)
            )


class TestSweepsMatchReference:
    @settings(max_examples=25, deadline=None)
    @given(
        stats_list=st.lists(droop_statistics(), min_size=1, max_size=12),
        cost=st.one_of(
            st.sampled_from(RECOVERY_COSTS), st.floats(0.0, 1e6)
        ),
    )
    def test_sweeps(self, stats_list, cost):
        model, reference = models(stats_list)
        assert_sweeps_equal(model, reference, cost)

    @settings(max_examples=10, deadline=None)
    @given(stats_list=st.lists(droop_statistics(), min_size=1, max_size=10))
    def test_heatmap(self, stats_list):
        model, reference = models(stats_list)
        margins, costs, grid = model.heatmap(RECOVERY_COSTS)
        ref_margins, ref_costs, ref_grid = reference.heatmap(RECOVERY_COSTS)
        assert identical(margins, ref_margins)
        assert identical(costs, ref_costs)
        assert identical(grid, ref_grid)

    def test_population_past_the_pairwise_block(self):
        # numpy sums blocks of 128 pairwise: a population larger than
        # that pins the contiguous-axis mean against np.mean(list).
        stats_list = [
            synthetic_statistics(seed, 50 + 7 * seed, beta=0.002 + 1e-4 * seed)
            for seed in range(150)
        ]
        model, reference = models(stats_list)
        assert_sweeps_equal(model, reference, 1000)
        margins = model.margin_grid(12)
        assert np.array_equal(
            model.heatmap(RECOVERY_COSTS, margins)[2],
            reference.heatmap(RECOVERY_COSTS, margins)[2],
        )
