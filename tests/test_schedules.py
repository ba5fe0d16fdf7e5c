"""Learning-rate rules: worked constants, monotonicity, and dominance."""

import pickle

import numpy as np
import pytest

from apdual.schedules import LrSchedule, SmoothnessConstants


def exact_rate(kind, c, x):
    return LrSchedule(f"{kind}-exact", constants=c).rate(float(x))


class TestLipschitz:
    def test_linear_growth(self):
        # invlin-exact is 1 / (2 L(lambda)), so L(lambda) = 1 / (2 eta)
        c = SmoothnessConstants(l_r=2.0, l_c=3.0, mu=1.0)
        assert 1.0 / (2.0 * exact_rate("invlin", c, 0.0)) == 2.0
        assert 1.0 / (2.0 * exact_rate("invlin", c, 2.0)) == 2.0 + 2.0 * 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothnessConstants(l_r=-1.0, l_c=1.0, mu=0.5)
        with pytest.raises(ValueError):
            SmoothnessConstants(l_r=1.0, l_c=1.0, mu=0.0)
        with pytest.raises(ValueError):
            # strong convexity cannot exceed smoothness
            SmoothnessConstants(l_r=1.0, l_c=1.0, mu=2.0)


class TestExactRules:
    def test_worked_values(self):
        c = SmoothnessConstants(l_r=1.0, l_c=1.0, mu=1.0)
        # at lambda = 1: L = 2 -> invlin 1/4, invqua 1/8
        assert exact_rate("invlin", c, 1.0) == pytest.approx(0.25, abs=1e-15)
        assert exact_rate("invqua", c, 1.0) == pytest.approx(0.125, abs=1e-15)

    def test_invqua_never_exceeds_invlin(self):
        # mu <= L(lambda) implies mu / (2 L^2) <= 1 / (2 L)
        c = SmoothnessConstants(l_r=2.0, l_c=0.7, mu=1.3)
        for x in np.linspace(0.0, 50.0, 100):
            assert exact_rate("invqua", c, x) <= exact_rate("invlin", c, x)

    def test_ratio_vanishes_for_large_lambda(self):
        c = SmoothnessConstants(l_r=1.0, l_c=1.0, mu=1.0)
        ratio = exact_rate("invqua", c, 1e6) / exact_rate("invlin", c, 1e6)
        assert ratio < 1e-5

    def test_unknown_variant(self):
        c = SmoothnessConstants(l_r=1.0, l_c=1.0, mu=1.0)
        with pytest.raises(ValueError):
            exact_rate("cubic", c, 0.0)


class TestPracticalRules:
    def test_worked_constants_invlin(self):
        sched = LrSchedule("invlin-practical", h1=0.001, h2=3.0)
        assert sched.rate(0.0) == pytest.approx(1.0 / 3000.0, abs=1e-12)
        assert sched.rate(7.0) == pytest.approx(1e-4, abs=1e-12)

    def test_worked_constants_invqua(self):
        sched = LrSchedule("invqua-practical", h1=0.015, h2=6.0)
        assert sched.rate(0.0) == pytest.approx(0.015 / 36.0, abs=1e-12)

    def test_strictly_decreasing_on_grid(self):
        for sched in (
            LrSchedule("invlin-practical", h1=0.001, h2=3.0),
            LrSchedule("invqua-practical", h1=0.015, h2=6.0),
        ):
            rates = [sched.rate(float(x)) for x in np.linspace(0.0, 20.0, 100)]
            diffs = np.diff(rates)
            assert np.all(diffs < 0.0)

    def test_constant_passthrough(self):
        sched = LrSchedule("constant", eta=2.5e-4)
        assert sched.rate(123.0) == 2.5e-4


class TestScheduleDispatch:
    def test_rate_dispatch(self):
        c = SmoothnessConstants(l_r=1.0, l_c=1.0, mu=1.0)
        assert LrSchedule("constant", eta=0.1).rate(5.0) == 0.1
        assert LrSchedule("invlin-exact", constants=c).rate(1.0) == 0.25
        assert LrSchedule("invqua-exact", constants=c).rate(1.0) == 0.125
        practical = LrSchedule("invlin-practical", h1=0.001, h2=3.0)
        assert practical.rate(7.0) == pytest.approx(1e-4)

    def test_rate_equals_each_closed_form(self):
        c = SmoothnessConstants(l_r=1.3, l_c=0.7, mu=0.4)
        h1, h2 = 0.015, 6.0
        forms = {
            "invlin-exact": lambda lam: 1.0 / (2.0 * (1.3 + lam * 0.7)),
            "invqua-exact": lambda lam: 0.4 / (2.0 * (1.3 + lam * 0.7) ** 2),
            "invlin-practical": lambda lam: h1 / (lam + h2),
            "invqua-practical": lambda lam: h1 / (lam + h2) ** 2,
        }
        for variant, form in forms.items():
            sched = LrSchedule(variant, constants=c, h1=h1, h2=h2)
            for x in np.linspace(0.0, 20.0, 41):
                assert sched.rate(float(x)) == form(float(x))

    def test_exact_without_constants_raises_at_rate(self):
        sched = LrSchedule("invlin-exact")  # constructible; resolved later
        with pytest.raises(ValueError, match="SmoothnessConstants"):
            sched.rate(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule("constant")
        with pytest.raises(ValueError):
            LrSchedule("constant", eta=0.0)
        with pytest.raises(ValueError):
            LrSchedule("invlin-practical", h1=0.001)  # missing H2
        with pytest.raises(ValueError):
            LrSchedule("invlin-practical", h1=0.0, h2=3.0)
        with pytest.raises(ValueError):
            LrSchedule("warmup")


C = SmoothnessConstants(l_r=1.3, l_c=0.7, mu=0.4)
PICKLED = {
    "constant": LrSchedule("constant", eta=2.5e-4),
    "invlin-exact": LrSchedule("invlin-exact", constants=C),
    "invqua-exact": LrSchedule("invqua-exact", constants=C),
    "invlin-exact-unresolved": LrSchedule("invlin-exact"),
    "invqua-exact-unresolved": LrSchedule("invqua-exact"),
    "invlin-practical": LrSchedule("invlin-practical", h1=0.003, h2=3.0),
    "invqua-practical": LrSchedule("invqua-practical", h1=0.015, h2=6.0),
}


@pytest.mark.parametrize("name", PICKLED)
def test_pickle_round_trip(name):
    # a schedule goes to each worker process of a workers > 1 run; its
    # rate, a closure, is rebuilt from the fields
    sched = PICKLED[name]
    copy = pickle.loads(pickle.dumps(sched))
    assert copy == sched
    if sched.constants is None and sched.variant.endswith("-exact"):
        with pytest.raises(ValueError, match="SmoothnessConstants"):
            copy.rate(0.0)
        return
    for lam in (0.0, 0.25, 1.0, 3.7, 1e3):
        assert np.float64(copy.rate(lam)).tobytes() == np.float64(sched.rate(lam)).tobytes()
