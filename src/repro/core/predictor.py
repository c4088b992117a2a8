"""Voltage-emergency prediction and current-ramp throttling.

The paper's recovery-cost axis includes a 100-cycle scheme built on
*emergency prediction* (Reddi et al., HPCA'09: signatures of program and
microarchitectural activity predict impending emergencies), and its
related work covers *a-priori current ramping* (Powell et al.): both
exploit the fact that the dangerous dI/dt — the refill surge after a deep
stall — is visible a few cycles before the droop it causes.

Two actuation styles are implemented on the simulated activity stream:

* :class:`EmergencyPredictor` — **open-loop ramping**: watches per-cycle
  activity causally, arms after a deep fast drop (the droop precursor),
  and slew-limits the refill ramp.  Blind to the supply state, it must
  smooth *every* edge, which is expensive when the workload's burst
  cadence sits at the package resonance.
* :class:`VoltageGuidedThrottle` — **closed-loop guided throttling**:
  co-simulates the PDN cycle by cycle and sheds issue rate only while the
  sensed voltage is inside an arming band above the operating margin —
  the selective behaviour real prediction schemes need.

Deferred work is counted in both cases, giving the throughput cost; the
``ext_throttle`` experiment quantifies the trade (droop events avoided
versus IPC lost) and shows the closed-loop variant dominating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ThrottleParameters:
    """Tuning of the predictor + ramp limiter.

    Parameters
    ----------
    arm_drop:
        Activity drop (absolute, within ``drop_window`` cycles) that arms
        the predictor — deep fast drops precede dangerous refills.
    drop_window:
        How many cycles back the drop detector compares against.
    slew_per_cycle:
        Maximum allowed activity increase per cycle while armed.
    hold_cycles:
        How long the limiter stays armed after the precursor.
    """

    arm_drop: float = 0.25
    drop_window: int = 8
    slew_per_cycle: float = 0.02
    hold_cycles: int = 64

    def __post_init__(self) -> None:
        if not 0 < self.arm_drop <= 1:
            raise ConfigurationError("arm_drop must be in (0, 1]")
        if self.drop_window < 1:
            raise ConfigurationError("drop_window must be >= 1")
        if self.slew_per_cycle <= 0:
            raise ConfigurationError("slew_per_cycle must be positive")
        if self.hold_cycles < 1:
            raise ConfigurationError("hold_cycles must be >= 1")


@dataclass(frozen=True)
class ThrottleOutcome:
    """Result of throttling one activity stream."""

    activity: np.ndarray
    engaged: np.ndarray
    deferred_work: float

    @property
    def engaged_fraction(self) -> float:
        return float(self.engaged.mean())

    def throughput_loss_fraction(self, original: np.ndarray) -> float:
        """Issue slots lost relative to the unthrottled stream."""
        total = float(np.minimum(original, 1.0).sum())
        if total <= 0:
            return 0.0
        throttled = float(np.minimum(self.activity, 1.0).sum())
        return max(0.0, (total - throttled) / total)


@dataclass(frozen=True)
class GuidedThrottleOutcome:
    """Result of a closed-loop (voltage-guided) throttling run."""

    activity: np.ndarray
    voltage: np.ndarray
    engaged: np.ndarray
    deferred_work: float

    @property
    def engaged_fraction(self) -> float:
        return float(self.engaged.mean())

    def throughput_loss_fraction(self, original: np.ndarray) -> float:
        total = float(np.minimum(original, 1.0).sum())
        if total <= 0:
            return 0.0
        throttled = float(np.minimum(self.activity, 1.0).sum())
        return max(0.0, (total - throttled) / total)


class VoltageGuidedThrottle:
    """Closed-loop emergency prevention: throttle only when voltage is low.

    Open-loop activity smoothing must slow *every* refill edge, which is
    ruinously expensive when the workload's natural burst cadence sits at
    the package resonance.  The closed-loop variant co-simulates the PDN
    cycle by cycle and engages the issue throttle only while the sensed
    voltage is inside an arming band just above the operating margin — the
    selective version of the paper's cited prediction schemes (a voltage
    near the margin with current still rising *is* the signature of an
    imminent emergency).

    Parameters
    ----------
    chip:
        The chip whose PDN and core calibration are co-simulated (core 0
        is the throttled core).
    arm_margin:
        Deviation (fraction of nominal, positive) at which the throttle
        arms; must be shallower than the operating margin being protected.
    relief_depth:
        Fraction of the issue rate shed while armed — the actuation must
        actively *reduce* current, because by the time the voltage is low
        the dangerous ramp (the slow gating component) is already under
        way and merely capping further rises cannot stop it.
    slew_per_cycle:
        Maximum activity increase per cycle while recovering from a
        throttled level (prevents the throttle's own release edge from
        ringing the supply).
    hold_cycles:
        Minimum cycles the throttle stays armed once triggered.
    """

    def __init__(
        self,
        chip,
        arm_margin: float = 0.019,
        relief_depth: float = 0.30,
        slew_per_cycle: float = 0.004,
        hold_cycles: int = 30,
    ) -> None:
        if arm_margin <= 0:
            raise ConfigurationError("arm_margin must be positive")
        if not 0 < relief_depth < 1:
            raise ConfigurationError("relief_depth must be in (0, 1)")
        if slew_per_cycle <= 0:
            raise ConfigurationError("slew_per_cycle must be positive")
        if hold_cycles < 1:
            raise ConfigurationError("hold_cycles must be >= 1")
        self._chip = chip
        self._arm_margin = float(arm_margin)
        self._relief = float(relief_depth)
        self._slew = float(slew_per_cycle)
        self._hold = int(hold_cycles)

    def run(
        self,
        activity: np.ndarray,
        other_current: np.ndarray,
        ripple: np.ndarray | None = None,
    ) -> GuidedThrottleOutcome:
        """Co-simulate one core's activity against the PDN with feedback.

        ``other_current`` carries everything else on the rail (sibling
        core + uncore); ``ripple`` optionally adds the VRM sawtooth so the
        trigger sees realistic waveforms.

        The feedback makes this a per-cycle loop.  It runs on Python
        floats: every expression keeps the operation order of the
        vectorized current model and of ``sosfilt``'s direct form II
        transposed step, so a throttle that never arms reproduces
        ``chip.simulator.simulate`` of ``Core.current_from_activity``
        bit for bit.
        """
        activity = np.asarray(activity, dtype=float)
        other_current = np.asarray(other_current, dtype=float)
        if activity.shape != other_current.shape or activity.ndim != 1:
            raise ConfigurationError(
                "activity and other_current must be equal-length 1-D arrays"
            )
        n = activity.size
        if n == 0:
            raise ConfigurationError("activity must be non-empty")
        ripple = np.zeros(n) if ripple is None else np.asarray(ripple, dtype=float)
        if ripple.shape != activity.shape:
            raise ConfigurationError(
                f"ripple must have one sample per cycle ({n}), "
                f"got shape {ripple.shape}"
            )

        simulator = self._chip.simulator
        sos, zi_unit = simulator.discrete_sections()
        nominal = simulator.network.nominal_voltage
        params = self._chip.core_parameters
        # np.exp, not math.exp: the batched current model rounds this way.
        alpha = float(1.0 - np.exp(-1.0 / params.gating_tau_cycles))
        w_fast = params.fast_fraction
        leakage = params.leakage_amps
        dynamic = params.dynamic_max_amps
        sections = [
            (b0, b1, b2, a1, a2)
            for b0, b1, b2, _, a1, a2 in sos.tolist()
        ]
        relief = self._relief
        slew = self._slew
        hold = self._hold

        requested = activity.tolist()
        other = other_current.tolist()
        ripple_in = ripple.tolist()
        out = list(requested)
        engaged = [False] * n
        voltage = [0.0] * n
        deferred = 0.0

        slow_state = requested[0]
        current0 = leakage + dynamic * requested[0]
        total0 = current0 + other[0]
        state = (zi_unit * total0).tolist()
        armed_until = -1
        arm_level = -self._arm_margin * nominal

        for t in range(n):
            level = requested[t]
            if t > 0:
                armed = t <= armed_until
                previous = out[t - 1]
                recovering = previous < requested[t - 1] - 1e-12
                target = level * (1.0 - relief) if armed else level
                if (armed or recovering) and target > previous + slew:
                    # Both the throttle and its release ramp gently; a
                    # sharp release edge would ring the supply itself.
                    target = previous + slew
                if target < level:
                    engaged[t] = armed
                    deferred += level - target
                out[t] = target
            # Core current from (possibly throttled) activity.
            issued = out[t]
            slow_state = (1 - alpha) * slow_state + alpha * issued
            effective = w_fast * issued + (1 - w_fast) * slow_state
            current = leakage + dynamic * effective
            x = current + other[t]
            # One step of the SOS filter (direct form II transposed).
            for (b0, b1, b2, a1, a2), z in zip(sections, state):
                y = b0 * x + z[0]
                z[0] = b1 * x - a1 * y + z[1]
                z[1] = b2 * x - a2 * y
                x = y
            v = nominal + x + ripple_in[t]
            voltage[t] = v
            if v - nominal < arm_level:
                armed_until = t + hold
        return GuidedThrottleOutcome(
            activity=np.array(out),
            voltage=np.array(voltage),
            engaged=np.array(engaged, dtype=bool),
            deferred_work=deferred,
        )


class EmergencyPredictor:
    """Causal droop-precursor detector with a ramp-limiting actuator."""

    def __init__(self, parameters: ThrottleParameters | None = None) -> None:
        self._params = parameters or ThrottleParameters()

    @property
    def parameters(self) -> ThrottleParameters:
        return self._params

    def throttle(self, activity: np.ndarray) -> ThrottleOutcome:
        """Apply prediction + ramp limiting to a per-cycle activity stream.

        The pass is strictly causal: the decision at cycle ``t`` uses only
        cycles ``<= t``.  While armed, activity may not rise faster than
        the slew cap; clipped issue slots are *dropped* (counted as
        deferred work / throughput loss), never re-issued later — a
        re-issue backlog would recreate the very current peaks the
        throttle exists to remove.
        """
        activity = np.asarray(activity, dtype=float)
        if activity.ndim != 1 or activity.size == 0:
            raise ConfigurationError("activity must be a non-empty 1-D array")
        p = self._params
        drop_window = p.drop_window
        arm_drop = p.arm_drop
        slew = p.slew_per_cycle
        hold = p.hold_cycles
        # Python floats, not numpy scalars: the same IEEE-754 operations
        # at a fraction of the per-cycle cost.
        requested = activity.tolist()
        out = list(requested)
        engaged = [False] * len(requested)
        armed_until = -1  # deadline for the refill to *begin*
        ramping = False
        ramp_target = math.inf
        deferred_total = 0.0
        for t in range(1, len(requested)):
            lookback = max(0, t - drop_window)
            level = requested[t]
            if requested[lookback] - level >= arm_drop:
                # A deep drop: the next refill edge is the dangerous one.
                # Remember the pre-drop level; while already armed keep the
                # highest target seen (the lookback window slides into the
                # stall itself as it lengthens).
                if (t <= armed_until or ramping) and math.isfinite(ramp_target):
                    ramp_target = max(ramp_target, requested[lookback])
                else:
                    ramp_target = requested[lookback]
                armed_until = t + hold
            active = ramping or t <= armed_until
            previous = out[t - 1]
            if active and previous < ramp_target:
                cap = previous + slew
                if level > cap:
                    # The refill began: once clipping, stay engaged until
                    # the ramp completes, however long the stall lasted.
                    ramping = True
                    engaged[t] = True
                    deferred_total += level - cap
                    out[t] = cap
            if previous >= ramp_target:
                ramping = False
                armed_until = -1
                ramp_target = math.inf
        return ThrottleOutcome(
            activity=np.clip(np.array(out), 0.0, None),
            engaged=np.array(engaged, dtype=bool),
            deferred_work=deferred_total,
        )
