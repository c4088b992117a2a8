"""Test-only reference: the per-cycle throttle loops on numpy scalars.

These are the original implementations of
:meth:`repro.core.predictor.VoltageGuidedThrottle.run` and
:meth:`repro.core.predictor.EmergencyPredictor.throttle`, kept verbatim
(indexing numpy arrays every cycle, unpacking one SOS row per section)
so the production loops on Python floats can be pinned bit-identical to
them.  The only edit is where the core calibration comes from: the
reference takes it as an argument.  The reference costs ~14 us per
cycle on a 2-vCPU x86-64 host, so property tests keep their streams
short.
"""

from __future__ import annotations

import numpy as np

from repro.core.predictor import (
    GuidedThrottleOutcome,
    ThrottleOutcome,
    ThrottleParameters,
)
from repro.uarch.core import CoreParameters


def reference_guided_run(
    chip,
    activity: np.ndarray,
    other_current: np.ndarray,
    ripple: np.ndarray | None = None,
    *,
    arm_margin: float = 0.019,
    relief_depth: float = 0.30,
    slew_per_cycle: float = 0.004,
    hold_cycles: int = 30,
    params: CoreParameters | None = None,
) -> GuidedThrottleOutcome:
    """The closed-loop co-simulation, one numpy scalar at a time."""
    activity = np.asarray(activity, dtype=float)
    other_current = np.asarray(other_current, dtype=float)
    n = activity.size
    if ripple is None:
        ripple = np.zeros(n)
    arm_margin = float(arm_margin)
    relief = float(relief_depth)
    slew = float(slew_per_cycle)
    hold = int(hold_cycles)

    simulator = chip.simulator
    sos, zi_unit = simulator.discrete_sections()
    nominal = simulator.network.nominal_voltage
    params = params or CoreParameters()
    alpha = 1.0 - np.exp(-1.0 / params.gating_tau_cycles)
    w_fast = params.fast_fraction

    out = activity.copy()
    engaged = np.zeros(n, dtype=bool)
    voltage = np.empty(n)
    deferred = 0.0

    slow_state = activity[0]
    current0 = params.leakage_amps + params.dynamic_max_amps * activity[0]
    total0 = current0 + other_current[0]
    state = zi_unit * total0
    armed_until = -1
    arm_level = -arm_margin * nominal

    for t in range(n):
        if t > 0:
            armed = t <= armed_until
            recovering = out[t - 1] < activity[t - 1] - 1e-12
            target = (
                activity[t] * (1.0 - relief) if armed else activity[t]
            )
            if (armed or recovering) and target > out[t - 1] + slew:
                target = out[t - 1] + slew
            if target < activity[t]:
                engaged[t] = armed
                deferred += activity[t] - target
            out[t] = target
        slow_state = (1 - alpha) * slow_state + alpha * out[t]
        effective = w_fast * out[t] + (1 - w_fast) * slow_state
        current = params.leakage_amps + params.dynamic_max_amps * effective
        x = current + other_current[t]
        for s in range(sos.shape[0]):
            b0, b1, b2, _, a1, a2 = sos[s]
            y = b0 * x + state[s, 0]
            state[s, 0] = b1 * x - a1 * y + state[s, 1]
            state[s, 1] = b2 * x - a2 * y
            x = y
        v = nominal + x + ripple[t]
        voltage[t] = v
        if v - nominal < arm_level:
            armed_until = t + hold
    return GuidedThrottleOutcome(
        activity=out,
        voltage=voltage,
        engaged=engaged,
        deferred_work=deferred,
    )


def reference_throttle(
    activity: np.ndarray, p: ThrottleParameters
) -> ThrottleOutcome:
    """The open-loop predictor + ramp limiter, one numpy scalar at a time."""
    activity = np.asarray(activity, dtype=float)
    out = activity.copy()
    engaged = np.zeros(activity.size, dtype=bool)
    armed_until = -1
    ramping = False
    ramp_target = np.inf
    deferred_total = 0.0
    for t in range(1, activity.size):
        lookback = max(0, t - p.drop_window)
        if activity[lookback] - activity[t] >= p.arm_drop:
            if (t <= armed_until or ramping) and np.isfinite(ramp_target):
                ramp_target = max(ramp_target, activity[lookback])
            else:
                ramp_target = activity[lookback]
            armed_until = t + p.hold_cycles
        active = ramping or t <= armed_until
        if active and out[t - 1] < ramp_target:
            cap = out[t - 1] + p.slew_per_cycle
            if activity[t] > cap:
                ramping = True
                engaged[t] = True
                deferred_total += activity[t] - cap
                out[t] = cap
        if out[t - 1] >= ramp_target:
            ramping = False
            armed_until = -1
            ramp_target = np.inf
    return ThrottleOutcome(
        activity=np.clip(out, 0.0, None),
        engaged=engaged,
        deferred_work=deferred_total,
    )
