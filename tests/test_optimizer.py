import math

import numpy as np
import pytest

from smalldev.errors import NoFiniteValueError
from smalldev.optimizer import OptimizerConfig, minimize


def chernoff_objective(theta, big_l=1.0, mu=5.0, eps=0.5):
    return theta * eps + (math.exp(-theta * big_l) - 1.0) / big_l * mu


def rational_objective(theta, eps=0.1):
    return theta * eps + math.log(1.0 / (1.0 + theta))


class TestMinimize:
    def test_quadratic(self):
        res = minimize(lambda t: (t - 3.0) ** 2 + 1.0)
        assert res.theta_star == pytest.approx(3.0, abs=1e-6)
        assert res.f_star == pytest.approx(1.0, abs=1e-6)
        assert not res.at_boundary

    def test_chernoff_objective_recovers_closed_form(self):
        # stationary point of theta*eps + mu*(exp(-theta L)-1)/L is
        # theta = log(mu/eps)/L
        res = minimize(chernoff_objective)
        theta_exact = math.log(10.0)
        f_exact = chernoff_objective(theta_exact)
        assert res.theta_star == pytest.approx(theta_exact, rel=1e-6)
        assert res.f_star == pytest.approx(f_exact, rel=1e-6)
        assert res.f_star == pytest.approx(-3.3487, abs=1e-4)

    def test_rational_objective_stationary_point(self):
        # d/dtheta [theta*eps - log(1+theta)] = eps - 1/(1+theta) = 0
        # at theta = 1/eps - 1 = 9
        res = minimize(rational_objective)
        assert res.theta_star == pytest.approx(9.0, rel=1e-6)
        assert res.f_star == pytest.approx(0.9 + math.log(0.1), rel=1e-6)

    @pytest.mark.parametrize(
        "f",
        [
            lambda t: (t - 3.0) ** 2 + 1.0,
            chernoff_objective,
            rational_objective,
            lambda t: t * 0.2 + 3.0 * math.log(1.0 / (1.0 + t)),
        ],
        ids=["quadratic", "chernoff", "rational", "heavier"],
    )
    def test_fstar_below_random_probes(self, f):
        cfg = OptimizerConfig()
        res = minimize(f, cfg)
        rng = np.random.default_rng(99)
        probes = np.exp(
            rng.uniform(math.log(cfg.theta_min), math.log(cfg.theta_max), 1000)
        )
        slack = 1e-9 * max(1.0, abs(res.f_star))
        assert all(res.f_star <= f(t) + slack for t in probes)

    def test_deterministic(self):
        a = minimize(chernoff_objective)
        b = minimize(chernoff_objective)
        assert a == b

    def test_boundary_flags(self):
        increasing = minimize(lambda t: t)
        assert increasing.at_boundary
        assert increasing.theta_star <= 2e-6
        decreasing = minimize(lambda t: -math.log(t))
        assert decreasing.at_boundary
        assert decreasing.theta_star >= 0.9e6

    def test_refinement_stays_in_bracketing_cell(self):
        cfg = OptimizerConfig(coarse_points=50)
        grid = cfg.coarse_grid()
        res = minimize(chernoff_objective, cfg)
        vals = [chernoff_objective(t) for t in grid]
        i = int(np.argmin(vals))
        assert grid[max(i - 1, 0)] <= res.theta_star <= grid[min(i + 1, len(grid) - 1)]
        assert res.f_star <= vals[i]

    def test_chernoff_refinement_call_budget(self):
        # 200 coarse points plus the Brent refinement; golden section
        # needed 37 refinement calls here (237 in all).
        calls = []
        res = minimize(lambda t: calls.append(t) or chernoff_objective(t))
        assert len(calls) <= 220
        assert res.theta_star == pytest.approx(math.log(10.0), rel=1e-6)

    @pytest.mark.parametrize(
        "f",
        [
            chernoff_objective,
            rational_objective,
            lambda t: abs(math.log(t) - 1.0),
            lambda t: math.cos(5.0 * math.log(t)) + 1e-3 * math.log(t) ** 2,
        ],
        ids=["chernoff", "rational", "kink", "multimodal"],
    )
    def test_fstar_never_above_coarse_minimum(self, f):
        cfg = OptimizerConfig()
        res = minimize(f, cfg)
        assert res.f_star <= min(f(t) for t in cfg.coarse_grid())

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_converges_with_infinite_side_inside_bracket_cell(self, side):
        # The objective is +inf within 0.33% of its minimum at 3, well
        # inside the bracketing cell, so refinement steps land there.
        cfg = OptimizerConfig()
        grid = cfg.coarse_grid()
        i = int(np.searchsorted(grid, 3.0))
        assert grid[i - 1] < 2.99 < 3.0 < 3.01 < grid[i]
        inf_side = (lambda t: t < 2.99) if side == "below" else (lambda t: t > 3.01)
        calls = []

        def f(t):
            calls.append(t)
            return math.inf if inf_side(t) else (t - 3.0) ** 2

        res = minimize(f, cfg)
        assert any(inf_side(t) for t in calls[len(grid):])
        assert res.theta_star == pytest.approx(3.0, rel=1e-6)
        assert res.f_star == pytest.approx(0.0, abs=1e-12)

    def test_max_refine_iters_caps_evaluations(self):
        calls = []
        cfg = OptimizerConfig(max_refine_iters=3)
        res = minimize(lambda t: calls.append(t) or chernoff_objective(t), cfg)
        assert len(calls) == 203
        assert res.f_star <= min(chernoff_objective(t) for t in cfg.coarse_grid())

    def test_nonfinite_treated_as_infinite(self):
        def partial(t):
            return math.nan if t < 1.0 else (t - 3.0) ** 2

        res = minimize(partial)
        assert res.theta_star == pytest.approx(3.0, abs=1e-5)

    def test_everywhere_nonfinite_raises(self):
        with pytest.raises(NoFiniteValueError):
            minimize(lambda t: math.inf)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(theta_min=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(theta_min=1.0, theta_max=0.5)
        with pytest.raises(ValueError):
            OptimizerConfig(coarse_points=2)

    def test_grid_endpoints(self):
        cfg = OptimizerConfig(theta_min=1e-3, theta_max=1e3, coarse_points=7)
        grid = cfg.coarse_grid()
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e3)
        assert len(grid) == 7
