"""Dual updates: projected ascent and the replacement-form PID controller."""

import numpy as np
import pytest

from apdual.duals import (
    PidGains,
    PidState,
    pid_dual_step,
    project_nonneg,
)
from apdual.lagrangian import ConstraintSpec, Multiplier


def spec1(d=10.0):
    return ConstraintSpec(np.array([d]))


class TestProjection:
    def test_clamps_negatives_only(self):
        np.testing.assert_array_equal(
            project_nonneg(np.array([-1.0, 0.0, 2.5])), [0.0, 0.0, 2.5]
        )

    def test_non_expansive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.normal(size=2), rng.normal(size=2)
            assert np.linalg.norm(project_nonneg(x) - project_nonneg(y)) <= (
                np.linalg.norm(x - y) + 1e-15
            )


def dual_ascent_step(lm, zeta, g):
    """Reference projected dual ascent, lambda <- [lambda + zeta g]_+."""
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if g.shape != lm.values.shape:
        raise ValueError("constraint value and multiplier dimensions disagree")
    return Multiplier(project_nonneg(lm.values + zeta * g))


class TestDualAscent:
    def test_step_arithmetic(self):
        lm = dual_ascent_step(Multiplier([1.0]), 0.5, np.array([2.0]))
        assert lm.values[0] == pytest.approx(2.0)

    def test_projection_applied(self):
        lm = dual_ascent_step(Multiplier([0.1]), 1.0, np.array([-5.0]))
        assert lm.values[0] == 0.0

    def test_componentwise(self):
        lm = dual_ascent_step(
            Multiplier([1.0, 0.0]), 0.1, np.array([-20.0, 3.0])
        )
        np.testing.assert_allclose(lm.values, [0.0, 0.3])

    def test_validation(self):
        with pytest.raises(ValueError):
            dual_ascent_step(Multiplier([1.0]), 0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            dual_ascent_step(Multiplier([1.0]), 0.1, np.array([1.0, 2.0]))


class TestPidController:
    def test_worked_example(self):
        # gains (0.05, 0.0005, 0.1), J_C = 20, d = 10, zero state:
        # I = 10, deriv = 0 -> lambda = 0.05*10 + 0.0005*10 = 0.505
        gains = PidGains(0.05, 0.0005, 0.1)
        lm, state = pid_dual_step(
            PidState.zeros(1), gains, np.array([20.0]), spec1(10.0)
        )
        assert lm.values[0] == pytest.approx(0.505, abs=1e-15)
        assert state.integral[0] == pytest.approx(10.0)
        np.testing.assert_array_equal(state.prev_cost, [20.0])

    def test_derivative_zero_on_first_call_only(self):
        gains = PidGains(0.0, 0.0, 1.0)  # derivative-only controller
        state = PidState.zeros(1)
        lm, state = pid_dual_step(state, gains, np.array([15.0]), spec1())
        assert lm.values[0] == 0.0  # no previous cost yet
        lm, state = pid_dual_step(state, gains, np.array([18.0]), spec1())
        assert lm.values[0] == pytest.approx(3.0)

    def test_integral_projected_before_use(self):
        # a long feasible stretch cannot push the integral negative
        gains = PidGains(0.0, 1.0, 0.0)
        state = PidState.zeros(1)
        for _ in range(5):
            lm, state = pid_dual_step(state, gains, np.array([0.0]), spec1(10.0))
        assert state.integral[0] == 0.0
        # one violation then: multiplier reflects just that violation
        lm, state = pid_dual_step(state, gains, np.array([13.0]), spec1(10.0))
        assert lm.values[0] == pytest.approx(3.0)

    def test_replacement_semantics_allows_instant_drop(self):
        # replacement form: lambda falls as soon as the signal clears, it
        # does not ratchet like a pure ascent rule
        gains = PidGains(0.5, 0.0, 0.0)
        state = PidState.zeros(1)
        lm, state = pid_dual_step(state, gains, np.array([14.0]), spec1(10.0))
        assert lm.values[0] == pytest.approx(2.0)
        lm, state = pid_dual_step(state, gains, np.array([6.0]), spec1(10.0))
        assert lm.values[0] == 0.0

    def test_reduces_to_projected_integral_control(self):
        # K_P = K_D = 0: lambda_k = [K_I I_k]_+ must match dual ascent with
        # zeta = K_I run on the same violation series, step for step
        rng = np.random.default_rng(1)
        k_i = 0.07
        gains = PidGains(0.0, k_i, 0.0)
        spec = spec1(2.0)
        costs = rng.normal(loc=2.0, scale=3.0, size=100)

        state = PidState.zeros(1)
        ascent = Multiplier([0.0])
        for j_c in costs:
            lm, state = pid_dual_step(state, gains, np.array([j_c]), spec)
            ascent = dual_ascent_step(ascent, k_i, np.array([j_c - 2.0]))
            assert abs(lm.values[0] - ascent.values[0]) <= 1e-12

    def test_multi_constraint_componentwise(self):
        gains = PidGains(0.1, 0.0, 0.0)
        spec = ConstraintSpec(np.array([1.0, 2.0]))
        lm, state = pid_dual_step(
            PidState.zeros(2), gains, np.array([3.0, 0.0]), spec
        )
        np.testing.assert_allclose(lm.values, [0.2, 0.0])
        np.testing.assert_allclose(state.integral, [2.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pid_dual_step(
                PidState.zeros(1), PidGains(), np.array([1.0, 2.0]), spec1()
            )

    def test_gains_nonnegative(self):
        with pytest.raises(ValueError):
            PidGains(k_p=-0.1)
