"""Radius-schedule tests: rule arithmetic and regime validation."""

import math

import pytest

from qfest.bandwidth import REGIMES, EpsilonSchedule


class TestRuleValues:
    def test_thm1ii_unit_exponent(self):
        # alpha = 1/4, d = 1 makes the exponent exactly -1
        sched = EpsilonSchedule("thm1ii", d=1, alpha=0.25, c=1.0)
        assert sched.epsilon_at(100) == pytest.approx(0.01, rel=1e-12)

    def test_thm1iii_log_over_n(self):
        sched = EpsilonSchedule("thm1iii", d=1, alpha=1.0, c=1.0)
        assert sched.epsilon_at(100) == pytest.approx(math.log(100.0) / 100.0, rel=1e-12)

    def test_thm2ii_half_exponent(self):
        sched = EpsilonSchedule("thm2ii", d=1, alpha=0.5, c=2.0)
        assert sched.epsilon_at(256) == pytest.approx(0.125, rel=1e-12)

    def test_thm2iii_log_over_sqrt(self):
        sched = EpsilonSchedule("thm2iii", d=1, alpha=0.8, c=1.5)
        assert sched.epsilon_at(400) == pytest.approx(1.5 * math.log(400.0) / 20.0, rel=1e-12)

    def test_rejects_small_n(self):
        sched = EpsilonSchedule("thm1iii", d=1, alpha=1.0)
        for bad in (1, 0, -3, 2.5):
            with pytest.raises(ValueError):
                sched.epsilon_at(bad)


class TestRegimeValidation:
    def test_all_regimes_constructible(self):
        EpsilonSchedule("thm1ii", d=1, alpha=0.25)
        EpsilonSchedule("thm1iii", d=1, alpha=1.0)
        EpsilonSchedule("thm2ii", d=2, alpha=1.0)
        EpsilonSchedule("thm2iii", d=1, alpha=0.75)
        assert set(REGIMES) == {"thm1ii", "thm1iii", "thm2ii", "thm2iii"}

    def test_thm1ii_alpha_ceiling(self):
        with pytest.raises(ValueError):
            EpsilonSchedule("thm1ii", d=1, alpha=0.5)

    def test_thm1iii_alpha_floor(self):
        with pytest.raises(ValueError):
            EpsilonSchedule("thm1iii", d=3, alpha=0.5)

    def test_thm2ii_alpha_ceiling(self):
        with pytest.raises(ValueError):
            EpsilonSchedule("thm2ii", d=1, alpha=0.75)

    def test_thm2iii_needs_dimension_one(self):
        with pytest.raises(ValueError):
            EpsilonSchedule("thm2iii", d=2, alpha=0.9)
        with pytest.raises(ValueError):
            EpsilonSchedule("thm2iii", d=1, alpha=0.5)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            EpsilonSchedule("thm9", d=1, alpha=1.0)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match=r"^dimension must be a positive integer, got 0$"):
            EpsilonSchedule("thm1iii", d=0)

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            EpsilonSchedule("thm1iii", d=1, alpha=1.0, c=0.0)
        with pytest.raises(ValueError):
            EpsilonSchedule("thm1iii", d=1, alpha=1.5)


class TestScheduleProperties:
    @pytest.mark.parametrize("regime,d,alpha,start", [
        ("thm1ii", 1, 0.25, 3),
        ("thm1iii", 1, 1.0, 3),
        # log(n) * n**(-1/k) peaks at n = e**k, so the log regimes with
        # root index k >= 2 only decay monotonically beyond ceil(e**k)
        ("thm1iii", 2, 1.0, 8),
        ("thm2ii", 3, 1.0, 3),
        ("thm2iii", 1, 0.9, 8),
    ])
    def test_strictly_decreasing(self, regime, d, alpha, start):
        sched = EpsilonSchedule(regime, d=d, alpha=alpha, c=1.3)
        ns = [start, start + 1] + [10, 20, 50, 173, 1000, 31623, 10**6]
        ns = sorted(set(n for n in ns if n >= start))
        values = [sched.epsilon_at(n) for n in ns]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_regular_regime_growth_conditions(self):
        # n * eps(n)**d grows like (c log n)**d, so both n * eps**d and
        # n**2 * eps**d diverge along the grid by construction
        sched = EpsilonSchedule("thm1iii", d=1, alpha=1.0, c=0.7)
        ns = [10, 100, 1000, 10**4, 10**5, 10**6]
        n_eps = [n * sched.epsilon_at(n) for n in ns]
        assert all(a < b for a, b in zip(n_eps, n_eps[1:]))

    def test_mse_exponents(self):
        assert EpsilonSchedule("thm1ii", d=1, alpha=0.25).mse_exponent() == pytest.approx(-1.0)
        assert EpsilonSchedule("thm1iii", d=1, alpha=1.0).mse_exponent() == -1.0
        assert EpsilonSchedule("thm2ii", d=1, alpha=0.5).mse_exponent() == pytest.approx(-1.0)
        assert EpsilonSchedule("thm2ii", d=2, alpha=0.5).mse_exponent() == pytest.approx(-2.0 / 3.0)
        assert EpsilonSchedule("thm2iii", d=1, alpha=0.9).mse_exponent() == -1.0
