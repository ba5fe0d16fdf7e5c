"""Dual updates: the float projection, projected ascent and the
replacement-form PID controller."""

import math

import numpy as np
import pytest

from apdual.duals import (
    PidGains,
    PidState,
    pid_dual_step,
    project_nonneg,
)


def array_pid_step(state, gains, j_c, limits):
    """The PID update on (m,) arrays, applied independently per constraint:
    the reference that the float controller must equal bit for bit at
    m = 1.  state is (integral, prev_cost); returns (lambda, new state)."""
    integral, prev_cost = state
    j_c = np.atleast_1d(np.asarray(j_c, dtype=float))
    err = j_c - limits
    integral = np.maximum(integral + err, 0.0)
    if prev_cost is None:
        deriv = np.zeros_like(err)
    else:
        deriv = j_c - prev_cost
    lam = np.maximum(gains.k_p * err + gains.k_i * integral + gains.k_d * deriv, 0.0)
    return lam, (integral, j_c.copy())


def same_bits(a, b) -> bool:
    """Equal as float64 bytes: signed zeros differ, a NaN equals its bits."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestProjection:
    def test_clamps_negatives_only(self):
        assert [project_nonneg(x) for x in (-1.0, 0.0, 2.5)] == [0.0, 0.0, 2.5]

    def test_non_expansive(self):
        rng = np.random.default_rng(0)
        for x, y in rng.normal(size=(50, 2)).tolist():
            assert abs(project_nonneg(x) - project_nonneg(y)) <= abs(x - y)

    @pytest.mark.parametrize(
        "x", [-0.0, 0.0, math.nan, -math.inf, math.inf, -5e-324, 5e-324, -2.5, 2.5]
    )
    def test_equals_numpy_maximum(self, x):
        # np.maximum gives +0.0 for -0.0, where Python's max(x, 0.0) keeps
        # the -0.0, and NaN for NaN.
        want = np.maximum(np.array([x]), 0.0)[0]
        got = project_nonneg(x)
        assert type(got) is float and same_bits(got, want)


def dual_ascent_step(lam, zeta, g):
    """Reference projected dual ascent, lambda <- [lambda + zeta g]_+."""
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    return project_nonneg(lam + zeta * g)


class TestDualAscent:
    def test_step_arithmetic(self):
        assert dual_ascent_step(1.0, 0.5, 2.0) == pytest.approx(2.0)

    def test_projection_applied(self):
        assert dual_ascent_step(0.1, 1.0, -5.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            dual_ascent_step(1.0, 0.0, 1.0)


class TestPidController:
    def test_worked_example(self):
        # gains (0.05, 0.0005, 0.1), J_C = 20, d = 10, zero state:
        # I = 10, deriv = 0 -> lambda = 0.05*10 + 0.0005*10 = 0.505
        gains = PidGains(0.05, 0.0005, 0.1)
        lam, state = pid_dual_step(PidState(), gains, 20.0, 10.0)
        assert lam == pytest.approx(0.505, abs=1e-15)
        assert state == PidState(10.0, 20.0)

    def test_derivative_zero_on_first_call_only(self):
        gains = PidGains(0.0, 0.0, 1.0)  # derivative-only controller
        state = PidState()
        lam, state = pid_dual_step(state, gains, 15.0, 10.0)
        assert lam == 0.0  # no previous cost yet
        lam, state = pid_dual_step(state, gains, 18.0, 10.0)
        assert lam == pytest.approx(3.0)

    def test_integral_projected_before_use(self):
        # a long feasible stretch cannot push the integral negative
        gains = PidGains(0.0, 1.0, 0.0)
        state = PidState()
        for _ in range(5):
            lam, state = pid_dual_step(state, gains, 0.0, 10.0)
        assert state.integral == 0.0
        # one violation then: multiplier reflects just that violation
        lam, state = pid_dual_step(state, gains, 13.0, 10.0)
        assert lam == pytest.approx(3.0)

    def test_replacement_semantics_allows_instant_drop(self):
        # replacement form: lambda falls as soon as the signal clears, it
        # does not ratchet like a pure ascent rule
        gains = PidGains(0.5, 0.0, 0.0)
        state = PidState()
        lam, state = pid_dual_step(state, gains, 14.0, 10.0)
        assert lam == pytest.approx(2.0)
        lam, state = pid_dual_step(state, gains, 6.0, 10.0)
        assert lam == 0.0

    def test_reduces_to_projected_integral_control(self):
        # K_P = K_D = 0: lambda_k = [K_I I_k]_+ must match dual ascent with
        # zeta = K_I run on the same violation series, step for step
        rng = np.random.default_rng(1)
        k_i = 0.07
        gains = PidGains(0.0, k_i, 0.0)
        costs = rng.normal(loc=2.0, scale=3.0, size=100)

        state = PidState()
        ascent = 0.0
        for j_c in costs.tolist():
            lam, state = pid_dual_step(state, gains, j_c, 2.0)
            ascent = dual_ascent_step(ascent, k_i, j_c - 2.0)
            assert abs(lam - ascent) <= 1e-12

    @pytest.mark.parametrize(
        "gains",
        [
            PidGains(),
            PidGains(0.0, 0.0005, 0.1),
            PidGains(0.05, 0.0, 0.1),
            PidGains(0.05, 0.0005, 0.0),
            PidGains(0.0, 0.0, 0.0),
            PidGains(0.0, 0.07, 0.0),
        ],
        ids=["default", "kp0", "ki0", "kd0", "all0", "integral-only"],
    )
    def test_float_form_equals_array_reference(self, gains):
        # Long random sequences around the limit, with stretches exactly at
        # it and far below it, where err, the integral and the terms take
        # signed zeros; lambda and the integral must match bit for bit.
        rng = np.random.default_rng(7)
        limit = 10.0
        costs = limit + rng.normal(scale=4.0, size=3000)
        costs[rng.random(3000) < 0.2] = limit
        costs[rng.random(3000) < 0.2] = 0.0
        costs[1000:1200] = limit  # a run of zero errors
        costs[1500:1700] = 1.0  # a long feasible stretch: integral at 0
        limits = np.array([limit])
        state, ref_state = PidState(), (np.zeros(1), None)
        zero_steps = 0
        for j_c in costs.tolist():
            lam, state = pid_dual_step(state, gains, j_c, limit)
            ref_lam, ref_state = array_pid_step(ref_state, gains, j_c, limits)
            assert type(lam) is float and same_bits(lam, ref_lam[0])
            assert same_bits(state.integral, ref_state[0][0])
            assert state.prev_cost == j_c
            zero_steps += lam == 0.0
        assert zero_steps > 0

    def test_gains_nonnegative(self):
        with pytest.raises(ValueError):
            PidGains(k_p=-0.1)
