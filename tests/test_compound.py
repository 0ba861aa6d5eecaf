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
    rdf_from_spectrum,
    sweep_compound,
    symmetric_eig,
    transport_map,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("closed_form", [compound_rdf_scalar, compound_capacity_scalar])
    def test_non_finite_sigma0_or_radius_rejected(self, closed_form, bad):
        with pytest.raises(ValueError, match="finite"):
            closed_form(bad, 0.5, 1.0)
        with pytest.raises(ValueError, match="finite"):
            closed_form(1.0, bad, 1.0)


class TestCompoundRdf:
    def test_zero_radius_reduces_to_classical(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            cov = random_spd(rng, int(rng.integers(1, 6)))
            distortion = float(rng.uniform(0.1, 1.2) * cov.trace)
            result = compound_rdf(CompoundRdfRequest(BwBall(cov, 0.0), distortion))
            assert result.value_nats == gaussian_rdf(cov, distortion)
            assert result.worst_case_cov is cov

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

    @pytest.mark.parametrize(
        "eigenvalues, r, distortion, step",
        [([0.0, 1.0], 0.5, 0.5, 1e-3), ([0.0, 0.0, 1.0], 0.4, 0.3, 4e-3)],
    )
    def test_singular_center_matches_brute_force(self, eigenvalues, r, distortion, step):
        # the hard case: the s = 0 modes share the radius the other mode
        # leaves, each below the water level
        center = SpdMatrix.from_diag(eigenvalues)
        result = compound_rdf(CompoundRdfRequest(BwBall(center, r), distortion))
        reference = brute_force_compound("rdf", center, r, distortion, step)
        assert result.value_nats == pytest.approx(reference, abs=1e-3)
        assert result.value_nats >= reference - 1e-12
        assert bw_distance(center, result.worst_case_cov) <= r * (1.0 + 1e-9)
        lam = np.sort(np.linalg.eigvalsh(result.worst_case_cov.entries))
        level = result.inner_allocation.level
        assert np.all(lam[:-1] > 0.0) and np.all(lam[:-1] < level)

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

    @pytest.mark.parametrize("d", [2, 4])
    def test_general_channel_no_convergence_keeps_diagnostics(self, monkeypatch, d):
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 2)
        rng = np.random.default_rng(36)
        center = random_spd(rng, d)
        h = ChannelMatrix(rng.standard_normal((d, d)))
        with pytest.raises(SolverNoConverge, match="within 2 iterations") as info:
            compound_capacity(CompoundCapacityRequest(BwBall(center, 0.5), h, 2.0))
        assert info.value.diagnostics.iterations == 2
        assert info.value.diagnostics.solver_path == "projected-gradient"

    def test_solver_paths_agree_on_commuting_instance(self, monkeypatch):
        # identity channel commutes, so both routes must find the same optimum
        center = SpdMatrix.from_diag([1.0, 3.0])
        request = CompoundCapacityRequest(BwBall(center, 0.6), ChannelMatrix(np.eye(2)), 1.5)
        reduced = compound_capacity(request).value_nats
        monkeypatch.setattr(compound, "_commuting_channel_axes", lambda center, h: None)
        single_start = compound_capacity(request)
        assert single_start.diagnostics.solver_path == "projected-gradient"
        assert reduced == pytest.approx(single_start.value_nats, abs=1e-6)

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

    @pytest.mark.parametrize("h", [0.1, 0.2])
    def test_weak_scalar_channel_matches_closed_form(self, h):
        # a weak channel behind a wide ball: tiny gradients, closed-form answer
        request = CompoundCapacityRequest(
            BwBall(SpdMatrix.from_diag([1.0]), 3.0), ChannelMatrix([[h]]), 0.25
        )
        result = compound_capacity(request)
        expected = 0.5 * math.log1p(h * h * 0.25 / (1.0 + 3.0) ** 2)
        assert result.value_nats == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_commuting_channel_with_dead_mode(self, monkeypatch):
        # the dead axis keeps the center's noise: the radius all goes to the
        # live axes, so the value is that of the live sub-problem
        q = _rotation(np.random.default_rng(39), 3)
        center = SpdMatrix((q * [1.0, 4.0, 2.0]) @ q.T)
        h = ChannelMatrix((q * [1.0, 0.0, -1.5]) @ q.T)
        request = CompoundCapacityRequest(BwBall(center, 0.8), h, 3.0)
        result = compound_capacity(request)
        assert result.diagnostics.solver_path == "eigen-reduction"
        live = compound_capacity(
            CompoundCapacityRequest(
                BwBall(SpdMatrix.from_diag([1.0, 2.0]), 0.8), ChannelMatrix(np.diag([1.0, -1.5])), 3.0
            )
        )
        assert result.value_nats == pytest.approx(live.value_nats, rel=1e-12)
        dead_axis = q[:, 1]
        assert dead_axis @ result.worst_case_cov.entries @ dead_axis == pytest.approx(4.0, rel=1e-12)
        assert bw_distance(center, result.worst_case_cov) <= 0.8 * (1.0 + 1e-9)
        monkeypatch.setattr(compound, "_commuting_channel_axes", lambda center, h: None)
        assert compound_capacity(request).value_nats == pytest.approx(result.value_nats, abs=1e-6)

    @pytest.mark.parametrize(
        "center_vals, weights",
        [([1.0, 1.0, 4.0, 4.0], [2.0, 0.5, 2.0, 0.5]), ([1.0, 1.0, 2.0], [0.0, 1.0, 1.0])],
    )
    def test_commuting_channel_found_when_both_have_repeated_eigenvalues(
        self, center_vals, weights
    ):
        # neither matrix's own eigenbasis need diagonalize the other
        q = _rotation(np.random.default_rng(41), len(center_vals))
        center = SpdMatrix((q * center_vals) @ q.T)
        h = ChannelMatrix((q * weights) @ q.T)
        result = compound_capacity(CompoundCapacityRequest(BwBall(center, 0.5), h, 2.0))
        assert result.diagnostics.solver_path == "eigen-reduction"
        plain = compound_capacity(
            CompoundCapacityRequest(
                BwBall(SpdMatrix.from_diag(center_vals), 0.5), ChannelMatrix(np.diag(weights)), 2.0
            )
        )
        assert result.value_nats == pytest.approx(plain.value_nats, rel=1e-12)

    def test_commuting_channel_found_at_singular_center(self):
        # a rank-2 center whose null space the channel splits into a dead and
        # a live axis; projected gradient does not converge on this instance
        q = _rotation(np.random.default_rng(42), 4)
        center = SpdMatrix((q * [0.0, 0.0, 1.0, 1.0]) @ q.T)
        h = ChannelMatrix((q * [0.0, 1.0, 0.0, 2.0]) @ q.T)
        result = compound_capacity(CompoundCapacityRequest(BwBall(center, 0.5), h, 1.0))
        assert result.diagnostics.solver_path == "eigen-reduction"
        assert result.diagnostics.iterations <= 6
        assert result.value_nats == pytest.approx(1.043910490819, rel=1e-9)

    def test_commuting_channel_zero_power_returns_center(self):
        center = SpdMatrix.from_diag([1.0, 4.0, 2.0])
        h = ChannelMatrix(np.diag([1.0, 0.0, 2.0]))
        result = compound_capacity(CompoundCapacityRequest(BwBall(center, 0.8), h, 0.0))
        assert result.value_nats == 0.0
        assert np.allclose(result.worst_case_cov.entries, center.entries, rtol=0.0, atol=1e-15)
        assert result.diagnostics.certificate_gap == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CompoundCapacityRequest(
                BwBall(SpdMatrix.identity(2), 0.1), ChannelMatrix(np.eye(3)), 1.0
            )


class TestTransportCoordinates:
    def test_coordinates_of_a_ball_point(self):
        # Y = (S - I) * W built from the optimal map has the distance as its
        # Frobenius norm, and maps back to the same noise
        rng = np.random.default_rng(43)
        for d in (1, 2, 3, 5):
            center = random_spd(rng, d)
            coords = compound._TransportCoordinates(center, np.eye(d), 1.0)
            for _ in range(4):
                noise = random_psd_in_ball(BwBall(center, 1.5), int(rng.integers(2**31)))
                s = coords.basis.T @ transport_map(center, noise) @ coords.basis
                y = (s - np.eye(d)) * coords.weight
                assert np.linalg.norm(y) == pytest.approx(bw_distance(center, noise), rel=1e-9)
                back = coords.basis @ coords.noise(y).entries @ coords.basis.T
                assert np.allclose(back, noise.entries, rtol=0.0, atol=1e-10 * noise.trace)


class TestSweep:
    def test_single_point_matches_single_shot(self):
        center = SpdMatrix.from_diag([1.0, 4.0])
        points = sweep_compound("rdf", center, [(0.5, 1.0)])
        single = compound_rdf(CompoundRdfRequest(BwBall(center, 0.5), 1.0))
        assert points[0].value_nats == single.value_nats
        assert points[0].worst_case_trace == single.worst_case_cov.trace
        assert points[0].diagnostics == single.diagnostics

    def test_capacity_point_matches_single_shot(self):
        rng = np.random.default_rng(41)
        center = random_spd(rng, 2)
        h = ChannelMatrix(rng.standard_normal((2, 2)))
        points = sweep_compound("capacity", center, [(0.5, 2.0)], h)
        single = compound_capacity(CompoundCapacityRequest(BwBall(center, 0.5), h, 2.0))
        assert points[0].value_nats == single.value_nats
        assert points[0].diagnostics == single.diagnostics
        assert points[0].diagnostics.certificate_gap is not None

    def test_zero_radius_sweep_is_classical_curve(self):
        center = SpdMatrix.from_diag([2.0])
        budgets = [0.25, 0.5, 1.0, 2.0]
        points = sweep_compound("rdf", center, [(0.0, b) for b in budgets])
        for point, budget in zip(points, budgets):
            assert point.value_nats == gaussian_rdf(center, budget)

    def test_order_preserved(self):
        center = SpdMatrix.from_diag([1.0])
        grid = [(0.5, 1.0), (0.0, 1.0), (0.2, 0.3)]
        points = sweep_compound("rdf", center, grid)
        assert [(p.r, p.budget) for p in points] == grid

    def test_error_carries_grid_index(self):
        center = SpdMatrix.from_diag([1.0])
        with pytest.raises(ValueError, match="grid point 1"):
            sweep_compound("rdf", center, [(0.1, 1.0), (0.1, -2.0)])
        with pytest.raises(ValueError, match="grid point 0"):
            sweep_compound("capacity", center, [(0.1, math.nan), (0.1, 1.0)])

    def test_no_convergence_keeps_diagnostics(self, monkeypatch):
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 2)
        monkeypatch.setattr(compound, "VALUE_STAGNATION_TOL", 0.0)
        center = SpdMatrix([[1.0, 0.3], [0.3, 4.0]])
        with pytest.raises(SolverNoConverge, match="grid point 0") as info:
            sweep_compound("rdf", center, [(0.5, 1.0)])
        assert info.value.diagnostics.iterations == 2

    def test_batch_failure_names_lowest_failing_point(self, monkeypatch):
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 2)
        center = SpdMatrix([[1.0, 0.3], [0.3, 4.0]])
        grid = [(0.0, 1.0), (0.5, 2.0), (0.5, 1.0), (0.0, 2.0)]
        for kind in ("rdf", "capacity"):
            with pytest.raises(SolverNoConverge, match="grid point 1") as info:
                sweep_compound(kind, center, grid)
            assert info.value.diagnostics.iterations == 2

    def test_rejects_empty_grid_and_bad_kind(self):
        center = SpdMatrix.identity(1)
        with pytest.raises(ValueError):
            sweep_compound("rdf", center, [])
        with pytest.raises(ValueError):
            sweep_compound("both", center, [(0.1, 1.0)])

    def test_rdf_sweep_rejects_channel(self):
        center = SpdMatrix.identity(1)
        with pytest.raises(ValueError, match="no channel"):
            sweep_compound("rdf", center, [(0.1, 1.0)], ChannelMatrix(np.eye(1)))


class TestTinyRadius:
    """Radii whose square underflows leave the center's value, with a valid gap."""

    RADII = (1e-155, 1e-160, 1e-200)

    @staticmethod
    def _check(result, at_center):
        v = at_center.value_nats
        gap = result.diagnostics.certificate_gap
        assert abs(result.value_nats - v) <= 1e-12 * max(1.0, abs(v))
        assert -1e-12 <= gap <= 1e-8 * max(1.0, abs(v))

    def test_capacity(self):
        center, channel = SpdMatrix.identity(3), ChannelMatrix(np.eye(3))
        at_center = compound_capacity(CompoundCapacityRequest(BwBall(center, 0.0), channel, 2.0))
        for r in self.RADII:
            self._check(
                compound_capacity(CompoundCapacityRequest(BwBall(center, r), channel, 2.0)), at_center
            )

    def test_rdf(self):
        for center in (SpdMatrix.identity(3), SpdMatrix.from_diag([2.0, 1.0, 0.0])):
            at_center = compound_rdf(CompoundRdfRequest(BwBall(center, 0.0), 0.5))
            for r in self.RADII:
                self._check(compound_rdf(CompoundRdfRequest(BwBall(center, r), 0.5)), at_center)

    def test_sweep(self):
        center = SpdMatrix([[2.0, 0.3], [0.3, 1.0]])
        grid = [(r, 0.5) for r in (0.0,) + self.RADII]
        for kind in ("rdf", "capacity"):
            values = [p.value_nats for p in sweep_compound(kind, center, grid)]
            assert max(values) - min(values) <= 1e-12 * max(1.0, abs(values[0]))


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _benchmark_like(rng, d):
    """Noise center with spectrum in [0.5, 2], non-commuting channel, r = 0.2 sqrt(tr C), P = tr C."""
    q = _rotation(rng, d)
    center = SpdMatrix((q * np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))) @ q.T)
    h = (_rotation(rng, d) * np.exp(rng.uniform(math.log(0.5), math.log(1.5), d))) @ _rotation(rng, d).T
    return CompoundCapacityRequest(
        BwBall(center, 0.2 * math.sqrt(center.trace)), ChannelMatrix(h), center.trace
    )


class TestCertificate:
    def test_gap_at_center_bounds_suboptimality(self):
        rng = np.random.default_rng(51)
        for k in range(8):
            d = 2 + k % 3
            lam = np.exp(rng.uniform(-3.0, 1.0, d))
            if k % 4 == 1:
                lam[-1] = 0.0  # singular center, jittered by the solver
            q = _rotation(rng, d)
            center = SpdMatrix((q * lam) @ q.T)
            h = rng.standard_normal((d, d))
            if k % 4 == 2:
                h = h[:, :1] @ rng.standard_normal((1, d))  # rank one
            radius = float(rng.uniform(0.1, 1.0)) * math.sqrt(center.trace)
            power = float(rng.uniform(0.1, 5.0)) * center.trace
            request = CompoundCapacityRequest(BwBall(center, radius), ChannelMatrix(h), power)
            returned = compound_capacity(request).value_nats
            center_pd, _ = compound._ensure_positive_definite(center)
            at_center = gaussian_capacity(h, center_pd, power)
            gap = compound._frank_wolfe_gap(h, center_pd, center_pd, at_center.input_cov, radius)
            assert math.isfinite(gap)
            assert gap >= at_center.rate_nats - returned - 1e-12

    def test_rdf_gap_at_center_bounds_suboptimality(self):
        rng = np.random.default_rng(54)
        for k in range(12):
            d = 1 + k % 4
            lam = np.exp(rng.uniform(-3.0, 1.0, d))
            if k % 3 == 1 and d > 1:
                lam[-1] = 0.0  # singular center
            q = _rotation(rng, d)
            center = SpdMatrix((q * lam) @ q.T)
            radius = float(rng.uniform(0.1, 1.0)) * math.sqrt(center.trace)
            distortion = float(rng.uniform(0.05, 1.0)) * center.trace
            returned = compound_rdf(CompoundRdfRequest(BwBall(center, radius), distortion))
            vals, _ = symmetric_eig(center)
            at_center = rdf_from_spectrum(vals, distortion)
            gap = compound._rdf_gap(
                vals[None], np.array([at_center.level]), vals, np.array([radius]), np.array([distortion])
            )[0]
            assert math.isfinite(gap)
            assert gap >= returned.value_nats - at_center.rate_nats - 1e-12

    def test_dual_bounds_every_ball_point(self):
        rng = np.random.default_rng(52)
        for d in (1, 2, 3):
            center = random_spd(rng, d)
            ball = BwBall(center, 0.7)
            g = rng.standard_normal((d, d))
            a, q = np.linalg.eigh(g @ g.T)
            b = np.einsum("ij,ij->j", q, center.entries @ q)
            top = float(a.max())
            for gamma in (1.01 * top, 2.0 * top, top + 10.0):
                radius = np.array([ball.radius])
                bound = compound._support_dual(a[None], b, radius, np.array([gamma]))[0]
                assert bound >= compound._ball_support(a[None], b, radius)[0] - 1e-12
                for seed in range(100):
                    draw = random_psd_in_ball(ball, seed).entries
                    assert bound >= float(np.sum((q * a) @ q.T * draw)) - 1e-12

    def test_support_is_exact_in_closed_forms(self):
        # scalar ball around sigma^2: max a N = a (sigma + r)^2
        support = compound._ball_support(np.array([[3.0]]), np.array([4.0]), np.array([0.5]))[0]
        assert support == pytest.approx(3.0 * 2.5**2, rel=1e-12)
        # hard case, b = 0 on the top eigenvector: around diag(0, 1) with
        # r = 2, max 2 N11 + N22 is 10, at N = diag(3, 4)
        for b_top in (0.0, 1e-30, 1e-20):
            a, b = np.array([[2.0, 1.0]]), np.array([b_top, 1.0])
            support = compound._ball_support(a, b, np.array([2.0]))[0]
            assert support == pytest.approx(10.0, rel=1e-9)

    def test_gap_matches_scalar_closed_form(self):
        # d = 1: the linear minimizer over the ball is the largest noise
        # (sigma + r)^2, so the gap at N = sigma^2 is G (sigma^2 - (sigma + r)^2)
        sigma, r, h, power = 1.5, 0.4, 0.8, 2.0
        noise = SpdMatrix.from_diag([sigma**2])
        inner = gaussian_capacity(np.array([[h]]), noise, power)
        gap = compound._frank_wolfe_gap(np.array([[h]]), noise, noise, inner.input_cov, r)
        grad = 0.5 * (1.0 / (sigma**2 + h * h * power) - 1.0 / sigma**2)
        assert gap == pytest.approx(grad * (sigma**2 - (sigma + r) ** 2), rel=1e-12)

    def test_returned_gap_is_tight_on_benchmark_like_instances(self):
        rng = np.random.default_rng(53)
        for d in (4, 8, 16, 32):
            result = compound_capacity(_benchmark_like(rng, d))
            gap = result.diagnostics.certificate_gap
            assert result.diagnostics.solver_path == "projected-gradient"
            assert -1e-12 <= gap <= 1e-8 * max(1.0, abs(result.value_nats))

    def test_singular_center_hard_case_gap(self):
        # A's top direction is e1, where the jittered center diag(0, 1) has
        # almost no variance: the secular equation nearly loses its root
        center, jitter = compound._ensure_positive_definite(SpdMatrix.from_diag([0.0, 1.0]))
        assert jitter > 0.0
        noise = SpdMatrix.identity(2)
        c, s = math.cos(0.4), math.sin(0.4)
        h = np.diag([2.0, 0.5]) @ np.array([[c, -s], [s, c]])
        inner = gaussian_capacity(h, noise, 1.0)
        gap = compound._frank_wolfe_gap(h, center, noise, inner.input_cov, 1.5)
        assert math.isfinite(gap) and gap >= 0.0
        ball = BwBall(SpdMatrix.from_diag([0.0, 1.0]), 1.5)
        request = CompoundCapacityRequest(ball, ChannelMatrix(h), 1.0)
        result = compound_capacity(request)
        assert gap >= inner.rate_nats - result.value_nats - 1e-12
        assert result.diagnostics.jitter == jitter
        assert -1e-12 <= result.diagnostics.certificate_gap < 1e-6

    def test_reduction_paths_carry_tight_gap(self):
        center = SpdMatrix.from_diag([1.0, 4.0])
        request = CompoundCapacityRequest(BwBall(center, 0.5), ChannelMatrix(np.eye(2)), 2.0)
        rdf = compound_rdf(CompoundRdfRequest(BwBall(center, 0.5), 1.0))
        for result in (compound_capacity(request), rdf):
            gap = result.diagnostics.certificate_gap
            assert -1e-12 <= gap <= 1e-8 * max(1.0, abs(result.value_nats))
        assert rdf.diagnostics.jitter == 0.0
