"""Bit-identity battery for the throttle loops and ext-throttle's solves.

The production loops run on Python floats; ``reference_throttle`` keeps
the original numpy-scalar loops.  Both perform the same IEEE-754 double
operations in the same order, so every output must match exactly --
``array_equal`` on the arrays and ``==`` on the deferred work, not a
tolerance.  ext-throttle's batched feed-forward solves are pinned
against the closed-loop co-simulation with a throttle that never arms.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predictor import (
    EmergencyPredictor,
    ThrottleParameters,
    VoltageGuidedThrottle,
)
from repro.experiments import ext_throttle
from repro.pdn.platform import CLOCK_PERIOD_S, DEFAULT_PARAMETERS
from repro.uarch.chip import Chip
from tests.core.reference_throttle import (
    reference_guided_run,
    reference_throttle,
)

#: The reference costs ~14 us per cycle on a 2-vCPU x86-64 host; keep
#: the streams short.
MAX_CYCLES = 2000

#: A throttle that can never arm: a pure feed-forward co-simulation.
PASSTHROUGH = dict(arm_margin=0.5, slew_per_cycle=1.0, hold_cycles=1)

CHIP = Chip("Proc3", with_ripple=False, slack_coupling=0.0)


def bursty_activity(seed: int, n: int, depth: float) -> np.ndarray:
    """Piecewise-constant bursts plus jitter: deep drops and refills."""
    rng = np.random.default_rng(seed)
    levels = rng.uniform(1.0 - depth, 1.0, size=n // 50 + 1)
    lengths = rng.integers(5, 400, size=levels.size)
    activity = np.repeat(levels, lengths)[:n]
    if activity.size < n:
        activity = np.pad(activity, (0, n - activity.size), mode="edge")
    return np.clip(activity + rng.normal(0.0, 0.02, n), 0.0, 1.3)


def assert_guided_equal(got, want):
    assert np.array_equal(got.activity, want.activity)
    assert np.array_equal(got.voltage, want.voltage)
    assert np.array_equal(got.engaged, want.engaged)
    assert got.deferred_work == want.deferred_work  # simlint: disable=HYG001 (bit-identity is the property)


def assert_open_equal(got, want):
    assert np.array_equal(got.activity, want.activity)
    assert np.array_equal(got.engaged, want.engaged)
    assert got.deferred_work == want.deferred_work  # simlint: disable=HYG001 (bit-identity is the property)


#: (seed, cycles, burst depth); deep enough bursts to arm most throttles.
streams = st.tuples(
    st.integers(0, 2**32 - 1),
    st.integers(1, MAX_CYCLES),
    st.floats(0.3, 1.0),
)


class TestGuidedThrottleIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        stream=streams,
        other_amps=st.floats(2.0, 14.0),
        with_ripple=st.booleans(),
        arm_margin=st.floats(0.004, 0.03),
        relief_depth=st.floats(0.01, 0.95),
        slew_per_cycle=st.floats(1e-4, 0.05),
        hold_cycles=st.integers(1, 300),
    )
    def test_matches_reference(
        self, stream, other_amps, with_ripple,
        arm_margin, relief_depth, slew_per_cycle, hold_cycles,
    ):
        seed, n, depth = stream
        activity = bursty_activity(seed, n, depth)
        other = np.full(n, other_amps)
        ripple = (
            DEFAULT_PARAMETERS.vrm.ripple(
                n, CLOCK_PERIOD_S, CHIP.nominal_voltage, seed=seed
            )
            if with_ripple else None
        )
        knobs = dict(
            arm_margin=arm_margin, relief_depth=relief_depth,
            slew_per_cycle=slew_per_cycle, hold_cycles=hold_cycles,
        )
        got = VoltageGuidedThrottle(CHIP, **knobs).run(
            activity, other, ripple=ripple
        )
        want = reference_guided_run(
            CHIP, activity, other, ripple, **knobs,
            params=CHIP.core_parameters,
        )
        assert_guided_equal(got, want)

    @settings(max_examples=15, deadline=None)
    @given(stream=streams, with_ripple=st.booleans())
    def test_passthrough_matches_reference(self, stream, with_ripple):
        seed, n, depth = stream
        activity = bursty_activity(seed, n, depth)
        other = np.full(n, 6.0)
        ripple = (
            DEFAULT_PARAMETERS.vrm.ripple(
                n, CLOCK_PERIOD_S, CHIP.nominal_voltage, seed=seed
            )
            if with_ripple else None
        )
        got = VoltageGuidedThrottle(CHIP, **PASSTHROUGH).run(
            activity, other, ripple=ripple
        )
        want = reference_guided_run(
            CHIP, activity, other, ripple, **PASSTHROUGH
        )
        assert_guided_equal(got, want)
        assert not got.engaged.any()

    def test_armed_stream_matches_reference(self):
        """A stream deep enough to arm: the throttle branch is covered."""
        activity = np.full(MAX_CYCLES, 1.0)
        activity[600:1100] = 0.1
        other = np.full(MAX_CYCLES, 8.0)
        knobs = dict(arm_margin=0.012, slew_per_cycle=0.002, hold_cycles=150)
        got = VoltageGuidedThrottle(CHIP, **knobs).run(activity, other)
        want = reference_guided_run(CHIP, activity, other, **knobs)
        assert got.engaged.any()
        assert_guided_equal(got, want)


class TestEmergencyPredictorIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        stream=streams,
        arm_drop=st.floats(0.05, 0.6),
        drop_window=st.integers(1, 400),
        slew_per_cycle=st.floats(1e-3, 0.05),
        hold_cycles=st.integers(1, 3000),
    )
    def test_matches_reference(
        self, stream, arm_drop, drop_window, slew_per_cycle, hold_cycles
    ):
        seed, n, depth = stream
        activity = bursty_activity(seed, n, depth)
        params = ThrottleParameters(
            arm_drop=arm_drop, drop_window=drop_window,
            slew_per_cycle=slew_per_cycle, hold_cycles=hold_cycles,
        )
        got = EmergencyPredictor(params).throttle(activity)
        assert_open_equal(got, reference_throttle(activity, params))

    @settings(max_examples=15, deadline=None)
    @given(stream=streams)
    def test_open_loop_setting_matches_reference(self, stream):
        seed, n, depth = stream
        activity = bursty_activity(seed, n, depth)
        got = EmergencyPredictor(ext_throttle.OPEN_LOOP).throttle(activity)
        want = reference_throttle(activity, ext_throttle.OPEN_LOOP)
        assert_open_equal(got, want)


@pytest.mark.parametrize("name", ext_throttle.BENCHMARKS)
def test_batched_passthrough_matches_guided_run(name):
    """ext-throttle's quick streams: the batched raw and open-loop
    voltages equal the never-arming co-simulation bit for bit."""
    chip = Chip("Proc3", with_ripple=True, slack_coupling=0.0)
    passthrough = VoltageGuidedThrottle(chip, **PASSTHROUGH)
    open_loop = EmergencyPredictor(ext_throttle.OPEN_LOOP)
    for rep in range(2):
        activity, other, ripple = ext_throttle.sample_stream(
            chip, name, rep, 20_000
        )
        ramped = open_loop.throttle(activity).activity
        raw, opened = ext_throttle.feed_forward_voltages(
            chip, [activity, ramped], other, rep
        )
        assert np.array_equal(
            raw, passthrough.run(activity, other, ripple=ripple).voltage
        )
        assert np.array_equal(
            opened, passthrough.run(ramped, other, ripple=ripple).voltage
        )
