import math

import numpy as np
import pytest

from robust_shannon import (
    BwBall,
    ChannelMatrix,
    CompoundCapacityRequest,
    CompoundRdfRequest,
    SolverNoConverge,
    SpdMatrix,
    brute_force_compound,
    bw_distance,
    compound_capacity,
    compound_capacity_scalar,
    compound_rdf,
    compound_rdf_scalar,
    gaussian_capacity,
    gaussian_rdf,
    random_psd_in_ball,
    sweep_compound,
)
from robust_shannon import compound

HALF_LOG4 = 0.6931471805599453
HALF_LOG_225 = 0.4054651081081644
HALF_LOG1P_075 = 0.27980789396771133


def random_spd(rng, d, floor=0.1):
    g = rng.standard_normal((d, d))
    return SpdMatrix(g @ g.T + floor * np.eye(d))


def scalar_request(sigma0, r, budget, kind="rdf"):
    center = SpdMatrix.from_diag([sigma0**2])
    if kind == "rdf":
        return CompoundRdfRequest(BwBall(center, r), budget)
    return CompoundCapacityRequest(BwBall(center, r), ChannelMatrix(np.eye(1)), budget)


class TestScalarClosedForms:
    def test_rdf_values(self):
        assert compound_rdf_scalar(1.0, 0.0, 1.0) == 0.0
        assert compound_rdf_scalar(1.0, 1.0, 1.0) == pytest.approx(HALF_LOG4, abs=1e-15)
        assert compound_rdf_scalar(1.0, 0.5, 2.25) == 0.0  # log+ boundary

    def test_capacity_values(self):
        assert compound_capacity_scalar(1.0, 0.0, 3.0) == pytest.approx(HALF_LOG4, abs=1e-15)
        assert compound_capacity_scalar(1.0, 1.0, 3.0) == pytest.approx(HALF_LOG1P_075, abs=1e-15)
        assert compound_capacity_scalar(1.0, 2.0, 0.0) == 0.0

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            compound_rdf_scalar(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            compound_rdf_scalar(1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            compound_rdf_scalar(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            compound_capacity_scalar(1.0, 0.5, -1.0)


class TestCompoundRdf:
    def test_zero_radius_reduces_to_classical(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            cov = random_spd(rng, int(rng.integers(1, 6)))
            distortion = float(rng.uniform(0.1, 1.2) * cov.trace)
            result = compound_rdf(CompoundRdfRequest(BwBall(cov, 0.0), distortion))
            assert result.value_nats == gaussian_rdf(cov, distortion)
            assert result.worst_case_cov is cov
            assert result.diagnostics.converged

    def test_scalar_solver_matches_closed_form(self):
        for sigma0 in (0.5, 1.0, 2.0):
            for r in (0.0, 0.4, 1.1, 2.0):
                for distortion in (0.01, 0.5, 1.0, 4.0):
                    result = compound_rdf(scalar_request(sigma0, r, distortion))
                    expected = compound_rdf_scalar(sigma0, r, distortion)
                    assert result.value_nats == pytest.approx(expected, abs=1e-6)

    def test_diag_center_matches_brute_force(self):
        center = SpdMatrix.from_diag([1.0, 4.0])
        result = compound_rdf(CompoundRdfRequest(BwBall(center, 0.5), 1.0))
        reference = brute_force_compound("rdf", center, 0.5, 1.0, 1e-3)
        assert result.value_nats == pytest.approx(reference, abs=1e-3)
        assert result.value_nats > gaussian_rdf(center, 1.0) + 0.1

    def test_worst_case_feasible_and_reproduces_value(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            ball = BwBall(random_spd(rng, d), float(rng.uniform(0.0, 1.0)))
            distortion = float(rng.uniform(0.1, 1.0) * ball.center.trace)
            result = compound_rdf(CompoundRdfRequest(ball, distortion))
            assert bw_distance(ball.center, result.worst_case_cov) <= ball.radius + 1e-8
            reeval = gaussian_rdf(result.worst_case_cov, distortion)
            assert reeval == pytest.approx(result.value_nats, abs=1e-8)

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            cov = random_spd(rng, int(rng.integers(1, 4)))
            distortion = float(rng.uniform(0.1, 0.8) * cov.trace)
            values = [
                compound_rdf(CompoundRdfRequest(BwBall(cov, r), distortion)).value_nats
                for r in (0.0, 0.3, 0.7, 1.2)
            ]
            assert all(values[i + 1] >= values[i] - 1e-8 for i in range(3))

    def test_degenerate_budget_returns_max_trace_point(self):
        center = SpdMatrix.from_diag([1.0, 1.0])
        # budget above the inflated trace: rate is zero everywhere in the ball
        result = compound_rdf(CompoundRdfRequest(BwBall(center, 0.5), 10.0))
        assert result.value_nats == 0.0
        expected_trace = (math.sqrt(center.trace) + 0.5) ** 2
        assert result.worst_case_cov.trace == pytest.approx(expected_trace, rel=1e-9)

    def test_dominance_over_sampler(self):
        rng = np.random.default_rng(33)
        ball = BwBall(random_spd(rng, 2), 0.6)
        distortion = 0.5 * ball.center.trace
        value = compound_rdf(CompoundRdfRequest(ball, distortion)).value_nats
        for seed in range(300):
            draw = random_psd_in_ball(ball, seed)
            assert gaussian_rdf(draw, distortion) <= value + 1e-6


class TestCompoundCapacity:
    def test_zero_radius_reduces_to_classical(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            cov = random_spd(rng, d)
            h = rng.standard_normal((d, d))
            power = float(rng.uniform(0.0, 4.0))
            request = CompoundCapacityRequest(BwBall(cov, 0.0), ChannelMatrix(h), power)
            result = compound_capacity(request)
            assert result.value_nats == gaussian_capacity(h, cov, power).rate_nats
            assert result.worst_case_cov is cov

    def test_scalar_solver_matches_closed_form(self):
        for sigma0 in (0.5, 1.0, 2.0):
            for r in (0.0, 0.4, 1.1, 2.0):
                for power in (0.0, 0.5, 3.0, 10.0):
                    result = compound_capacity(scalar_request(sigma0, r, power, "capacity"))
                    expected = compound_capacity_scalar(sigma0, r, power)
                    assert result.value_nats == pytest.approx(expected, abs=1e-6)

    def test_diag_center_matches_brute_force(self):
        center = SpdMatrix.from_diag([1.0, 4.0])
        request = CompoundCapacityRequest(BwBall(center, 0.5), ChannelMatrix(np.eye(2)), 2.0)
        result = compound_capacity(request)
        reference = brute_force_compound("capacity", center, 0.5, 2.0, 1e-3)
        assert result.value_nats == pytest.approx(reference, abs=1e-3)
        assert result.value_nats < gaussian_capacity(np.eye(2), center, 2.0).rate_nats - 0.05
        assert result.diagnostics.solver_path == "eigen-reduction"

    def test_identity_center_symmetric_channel_uses_reduction(self):
        rng = np.random.default_rng(35)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        h = q @ np.diag([2.0, 0.5]) @ q.T
        request = CompoundCapacityRequest(
            BwBall(SpdMatrix.identity(2), 0.4), ChannelMatrix(h), 1.5
        )
        result = compound_capacity(request)
        assert result.diagnostics.solver_path == "eigen-reduction"
        assert bw_distance(request.ball.center, result.worst_case_cov) <= 0.4 + 1e-8

    def test_general_channel_uses_projected_gradient(self):
        rng = np.random.default_rng(36)
        center = random_spd(rng, 2)
        h = rng.standard_normal((2, 2))
        request = CompoundCapacityRequest(BwBall(center, 0.5), ChannelMatrix(h), 2.0)
        result = compound_capacity(request)
        assert result.diagnostics.solver_path == "projected-gradient"
        assert result.value_nats < gaussian_capacity(h, center, 2.0).rate_nats + 1e-8
        assert bw_distance(center, result.worst_case_cov) <= 0.5 + 1e-8
        reeval = gaussian_capacity(h, result.worst_case_cov, 2.0).rate_nats
        assert reeval == pytest.approx(result.value_nats, abs=1e-8)

    def test_solver_paths_agree_on_commuting_instance(self):
        # identity channel commutes, so both routes must find the same optimum
        from robust_shannon.compound import _descend_from_best_start

        center = SpdMatrix.from_diag([1.0, 3.0])
        request = CompoundCapacityRequest(BwBall(center, 0.6), ChannelMatrix(np.eye(2)), 1.5)
        reduced = compound_capacity(request).value_nats
        noise, _ = _descend_from_best_start(BwBall(center, 0.6), np.eye(2), 1.5, 1e-10)
        pgd = gaussian_capacity(np.eye(2), noise, 1.5).rate_nats
        assert reduced == pytest.approx(pgd, abs=1e-6)

    def test_radius_monotonicity(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            cov = random_spd(rng, d)
            h = rng.standard_normal((d, d))
            power = float(rng.uniform(0.5, 3.0))
            values = [
                compound_capacity(
                    CompoundCapacityRequest(BwBall(cov, r), ChannelMatrix(h), power)
                ).value_nats
                for r in (0.0, 0.3, 0.7, 1.2)
            ]
            assert all(values[i + 1] <= values[i] + 1e-8 for i in range(3))

    def test_dominance_over_sampler(self):
        rng = np.random.default_rng(38)
        center = random_spd(rng, 2)
        h = rng.standard_normal((2, 2))
        ball = BwBall(center, 0.5)
        request = CompoundCapacityRequest(ball, ChannelMatrix(h), 2.0)
        value = compound_capacity(request).value_nats
        for seed in range(300):
            draw = random_psd_in_ball(ball, seed)
            assert gaussian_capacity(h, draw, 2.0).rate_nats >= value - 1e-6

    def test_zero_power(self):
        request = scalar_request(1.0, 0.7, 0.0, "capacity")
        result = compound_capacity(request)
        assert result.value_nats == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CompoundCapacityRequest(
                BwBall(SpdMatrix.identity(2), 0.1), ChannelMatrix(np.eye(3)), 1.0
            )


class TestSweep:
    def test_single_point_matches_single_shot(self):
        center = SpdMatrix.from_diag([1.0, 4.0])
        base = CompoundRdfRequest(BwBall(center, 0.5), 1.0)
        points = sweep_compound("rdf", base, [(0.5, 1.0)])
        single = compound_rdf(base)
        assert points[0].value_nats == single.value_nats
        assert points[0].worst_case_trace == single.worst_case_cov.trace

    def test_zero_radius_sweep_is_classical_curve(self):
        center = SpdMatrix.from_diag([2.0])
        budgets = [0.25, 0.5, 1.0, 2.0]
        points = sweep_compound(
            "rdf", CompoundRdfRequest(BwBall(center, 0.0), 1.0), [(0.0, b) for b in budgets]
        )
        for point, budget in zip(points, budgets):
            assert point.value_nats == gaussian_rdf(center, budget)

    def test_order_preserved(self):
        center = SpdMatrix.from_diag([1.0])
        grid = [(0.5, 1.0), (0.0, 1.0), (0.2, 0.3)]
        points = sweep_compound("rdf", CompoundRdfRequest(BwBall(center, 0.1), 1.0), grid)
        assert [(p.r, p.budget) for p in points] == grid

    def test_error_carries_grid_index(self):
        center = SpdMatrix.from_diag([1.0])
        base = CompoundRdfRequest(BwBall(center, 0.1), 1.0)
        with pytest.raises(ValueError, match="grid point 1"):
            sweep_compound("rdf", base, [(0.1, 1.0), (0.1, -2.0)])

    def test_no_convergence_keeps_diagnostics(self, monkeypatch):
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 2)
        base = CompoundRdfRequest(BwBall(SpdMatrix([[1.0, 0.3], [0.3, 4.0]]), 0.5), 1.0)
        with pytest.raises(SolverNoConverge, match="grid point 0") as info:
            sweep_compound("rdf", base, [(0.5, 1.0)], value_tol=0.0)
        assert info.value.diagnostics.iterations == 2
        assert not info.value.diagnostics.converged

    def test_rejects_empty_grid_and_bad_kind(self):
        base = CompoundRdfRequest(BwBall(SpdMatrix.identity(1), 0.1), 1.0)
        with pytest.raises(ValueError):
            sweep_compound("rdf", base, [])
        with pytest.raises(ValueError):
            sweep_compound("both", base, [(0.1, 1.0)])
