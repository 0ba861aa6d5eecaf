import math
import warnings

import mpmath
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

    @pytest.mark.parametrize(
        "sigma0, r, budget",
        [
            (1e200, 0.0, 1.0),  # the square overflows
            (1e-200, 0.0, 1e-300),  # the square underflows to 0
            (1e-170, 0.0, 1e300),  # the capacity ratio overflows
            (1e308, 1e308, 1e-300),  # sigma0 + r overflows
            (1e154, 1e154, 1e-200),
            (3e154, 1e154, 1e300),
            (1e-160, 0.0, 1e-322),  # subnormal square and budget
            (1e-160, 3e-161, 5e-324),
            (1e-300, 1e-300, 1e-10),
            (2.0, 0.5, 1e-320),  # a subnormal capacity ratio
            (1.5e-154, 0.0, 2.5e-308),
        ],
    )
    def test_extreme_inputs_match_mpmath(self, sigma0, r, budget):
        # log space where the square leaves the normal range or the ratio
        # overflows, against 50-digit arithmetic; the logs cancel to a few
        # hundred ulps
        with mpmath.workdps(50):
            square = (mpmath.mpf(sigma0) + mpmath.mpf(r)) ** 2
            rdf = float(max(mpmath.mpf(0), mpmath.log(square / mpmath.mpf(budget)) / 2))
            capacity = float(mpmath.log1p(mpmath.mpf(budget) / square) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compound_rdf_scalar(sigma0, r, budget) == pytest.approx(rdf, rel=1e-12, abs=1e-320)
            assert compound_capacity_scalar(sigma0, r, budget) == pytest.approx(capacity, rel=1e-12, abs=1e-320)

    def test_finite_values_beyond_the_float_range_and_unchanged_bits_within_it(self):
        assert compound_rdf_scalar(1e200, 0.0, 1.0) == pytest.approx(460.517018599, abs=1e-9)
        assert compound_capacity_scalar(1e200, 0.0, 1.0) == 0.0  # 5.0e-401
        assert compound_rdf_scalar(1e-200, 0.0, 1e-300) == 0.0
        assert compound_capacity_scalar(1e-170, 0.0, 1e300) == pytest.approx(736.827229758, abs=1e-9)
        # no power where (sigma0 + r)^2 is not a normal float
        assert compound_capacity_scalar(1e200, 0.0, 0.0) == 0.0
        assert compound_capacity_scalar(1e-200, 0.0, 0.0) == 0.0
        rng = np.random.default_rng(8)
        for sigma0, r, budget in 10.0 ** rng.uniform(-60.0, 60.0, size=(2000, 3)):
            square = (sigma0 + r) ** 2
            assert compound_rdf_scalar(sigma0, r, budget) == max(0.0, 0.5 * math.log(square / budget))
            assert compound_capacity_scalar(sigma0, r, budget) == 0.5 * math.log1p(budget / square)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("closed_form", [compound_rdf_scalar, compound_capacity_scalar])
    def test_non_finite_sigma0_or_radius_rejected(self, closed_form, bad):
        with pytest.raises(ValueError, match="finite"):
            closed_form(bad, 0.5, 1.0)
        with pytest.raises(ValueError, match="radius must be a finite nonnegative real"):
            closed_form(1.0, bad, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BwBall(SpdMatrix.identity(2), None), "radius must be a finite nonnegative real"),
        (lambda: CompoundRdfRequest(BwBall(SpdMatrix.identity(2), 0.1), None),
         "distortion must be positive and finite, got None"),
        (lambda: CompoundCapacityRequest(BwBall(SpdMatrix.identity(2), 0.1), ChannelMatrix(np.eye(2)), [1.0]),
         "power must be nonnegative and finite, got [1.0]"),
        (lambda: compound_rdf_scalar(None, 0.5, 1.0), "sigma0 must be positive and finite, got None"),
        (lambda: compound_capacity_scalar(1.0, 0.5, "x"), "power must be nonnegative and finite, got x"),
    ],
    ids=["ball_radius", "rdf_distortion", "capacity_power", "scalar_sigma0", "scalar_power"],
)
def test_value_float_cannot_read_is_a_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message

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
        [
            ([0.0, 1.0], 0.5, 0.5, 1e-3),
            ([0.0, 0.0, 1.0], 0.4, 0.3, 4e-3),
            ([0.0, 0.0, 1.0], 0.4, 0.3, 1e-3),  # about 129M grid points, 161k lines
        ],
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

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_center_spreads_the_radius_evenly(self, d):
        # no radial direction: the worst case puts r^2/d on every mode
        center = SpdMatrix(np.zeros((d, d)))
        result = compound_rdf(CompoundRdfRequest(BwBall(center, 1.0), 0.3))
        assert result.value_nats == pytest.approx(0.5 * d * math.log(1.0 / 0.3), rel=1e-14)
        assert result.diagnostics.certificate_gap <= 1e-12 * d

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

    @pytest.mark.parametrize("distortion", [1e-308, 5e-324])
    def test_distortion_below_the_float_range_rejected_before_any_kkt_step(self, monkeypatch, distortion):
        # the level's bracket started at D/d, 0 or subnormal: the KKT steps
        # divided by a level of 0 or a vanishing partial until MAX_ITERATIONS
        monkeypatch.setattr(compound, "_kkt_newton", None)
        center = SpdMatrix.from_diag([2.0, 1.0, 0.5])
        with pytest.raises(ValueError, match=f"distortion {distortion} is too small for this center"):
            compound_rdf(CompoundRdfRequest(BwBall(center, 0.1), distortion))
        with pytest.raises(ValueError, match=f"grid point 1 \\(r=0.2, budget={distortion}\\)"):
            sweep_compound("rdf", center, [(0.1, 1.0), (0.2, distortion), (0.3, distortion)])

    def test_distortion_floor_is_taken_at_unit_scale(self):
        # 1e-310 around a center of scale 2^-1000 is solved as 1e-310 2^1000
        # around the unscaled one; 1e-10 around 2^1000 times it is too small
        def request(scale, distortion):
            center = SpdMatrix(np.ldexp(np.diag([2.0, 1.0, 0.5]), 2 * scale))
            return CompoundRdfRequest(BwBall(center, math.ldexp(0.1, scale)), distortion)

        small, unit = compound_rdf(request(-500, 1e-310)), compound_rdf(request(0, math.ldexp(1e-310, 1000)))
        assert small.value_nats == unit.value_nats and small.diagnostics == unit.diagnostics
        with pytest.raises(ValueError, match="distortion 1e-10 is too small for this center"):
            compound_rdf(request(500, 1e-10))

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
        gap = info.value.diagnostics.certificate_gap  # at the last iterate
        assert math.isfinite(gap) and gap >= -1e-12

    def test_general_channel_no_convergence_gap_is_a_float(self, monkeypatch):
        # as in every returned diagnostics, not the np.float64 of a radius read from an array
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 2)
        rng = np.random.default_rng(36)
        request = CompoundCapacityRequest(BwBall(random_spd(rng, 3), 0.5), ChannelMatrix(rng.standard_normal((3, 3))), 2.0)
        with pytest.raises(SolverNoConverge) as info:
            compound_capacity(request)
        assert info.value.diagnostics.solver_path == "projected-gradient"
        assert type(info.value.diagnostics.certificate_gap) is float

    def test_general_channel_worst_case_holds_no_eigenvectors(self):
        # the solve never reads the worst case's eigenvectors, so the result
        # does not hold them until asked
        rng = np.random.default_rng(38)
        center = random_spd(rng, 8)
        h = ChannelMatrix(rng.standard_normal((8, 8)))
        worst = compound_capacity(CompoundCapacityRequest(BwBall(center, 0.5), h, 2.0)).worst_case_cov
        assert "_eigvecs" not in vars(worst)
        vals, vecs = symmetric_eig(worst)
        assert np.allclose((vecs * vals) @ vecs.T, worst.entries, rtol=0.0, atol=1e-12 * worst.trace)

    @pytest.mark.parametrize("step", [1e-300, 1e100])
    def test_general_channel_survives_a_bad_barzilai_borwein_step(self, monkeypatch, step):
        # a step too short to move the iterate, or too long for the halvings
        # to bring back, is searched again from 1, not taken for convergence
        rng = np.random.default_rng(37)
        center = random_spd(rng, 4)
        h = ChannelMatrix(rng.standard_normal((4, 4)))
        request = CompoundCapacityRequest(BwBall(center, 2.0), h, 2.0)
        expected = compound_capacity(request)
        monkeypatch.setattr(compound, "_barzilai_borwein", lambda move, grad_change: step)
        result = compound_capacity(request)
        gap = result.diagnostics.certificate_gap
        assert gap <= compound.VALUE_STAGNATION_TOL * max(1.0, abs(result.value_nats))
        both = gap + expected.diagnostics.certificate_gap + 1e-12
        assert result.value_nats == pytest.approx(expected.value_nats, rel=0.0, abs=both)

    @pytest.mark.parametrize("certificate", [0.0, 1.0])
    def test_stuck_line_search_returns_only_a_certified_iterate(self, certificate):
        # a gradient pointing uphill leaves no Armijo step from any start, so
        # the search from 1 cannot move x0; the gap decides what that means
        def minimize():
            return compound._minimize(
                lambda x: (float(x.sum()), None),
                lambda x, inner: -np.ones_like(x),
                lambda inner, radius: certificate,
                np.zeros(2),
                1.0,
            )

        if certificate == 0.0:
            x, value, _, diagnostics = minimize()
            assert value == 0.0 and diagnostics.iterations == 1
        else:
            with pytest.raises(SolverNoConverge, match="cannot move") as info:
                minimize()
            assert info.value.diagnostics.certificate_gap == 1.0

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

    @pytest.mark.parametrize("r", [0.1, 1e-160])
    def test_subnormal_center_rejected_as_in_a_sweep(self, r):
        # the whitened gain 1/1e-310 overflows: rejected before any solve,
        # so without a RuntimeWarning, and with the message a sweep gives
        center, channel = SpdMatrix([[1e-310]]), ChannelMatrix(np.eye(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="whitened channel gain is not finite") as single:
                compound_capacity(CompoundCapacityRequest(BwBall(center, r), channel, 1.0))
            with pytest.raises(ValueError, match="grid point 0") as swept:
                sweep_compound("capacity", center, [(r, 1.0)], channel)
        assert str(swept.value).endswith(f": {single.value}")

    def test_jitter_is_applied_once(self, monkeypatch):
        # a jittered matrix comes back unchanged, so the start noise of a
        # general-channel solve carries exactly the jitter it reports
        center = SpdMatrix.from_diag([0.0, 1.0])
        jittered, jitter = compound._ensure_positive_definite(center)
        assert jitter > 0.0
        assert compound._ensure_positive_definite(jittered) == (jittered, 0.0)
        noises = []
        whiten = compound._gram_whitened_gains
        monkeypatch.setattr(
            compound, "_gram_whitened_gains", lambda h, noise: noises.append(noise) or whiten(h, noise)
        )
        c, s = math.cos(0.4), math.sin(0.4)
        h = ChannelMatrix(np.diag([2.0, 0.5]) @ np.array([[c, -s], [s, c]]))
        result = compound_capacity(CompoundCapacityRequest(BwBall(center, 0.5), h, 1.0))
        assert result.diagnostics.solver_path == "projected-gradient"
        assert result.diagnostics.jitter == jitter
        assert np.diag(noises[0]).min() == jitter  # the start, in the center's eigenbasis

    @pytest.mark.parametrize("scale", [1.0, 4.0])
    @pytest.mark.parametrize("channel", ["general", "commuting"])
    def test_no_convergence_carries_the_jitter(self, monkeypatch, scale, channel):
        # projected gradient and the KKT search both fail at one iteration and
        # report the jitter of the converged solve, in the units of the data
        h = np.array([[1.0, 0.3, 0.0], [0.2, 1.0, 0.5], [0.0, 0.4, 1.0]]) if channel == "general" else np.eye(3)
        center = SpdMatrix.from_diag(np.array([1.0, 2.0, 0.0]) * scale)
        request = CompoundCapacityRequest(BwBall(center, 0.5), ChannelMatrix(h), 1.0)
        converged = compound_capacity(request).diagnostics
        assert converged.jitter == 1e-12 * scale
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 1)
        with pytest.raises(SolverNoConverge) as info:
            compound_capacity(request)
        assert info.value.diagnostics.solver_path == converged.solver_path
        assert info.value.diagnostics.jitter == converged.jitter

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            CompoundCapacityRequest(
                BwBall(SpdMatrix.identity(2), 0.1), ChannelMatrix(np.eye(3)), 1.0
            )


def _full_axes_search(center, h):
    """``_commuting_channel_axes`` without its asymmetry pre-filter: the
    center's eigenbasis, then for a symmetric channel that of C + t H."""
    vecs = center._eigvecs
    mixed = vecs.T @ h @ vecs
    if compound._is_diagonal(mixed):
        return vecs, np.sqrt(center._eigvals), np.diag(mixed).copy()
    if float(np.abs(h - h.T).max()) <= 1e-10 * max(1.0, float(np.abs(h).max())):
        t = (math.sqrt(5.0) - 1.0) / 2.0 * np.linalg.norm(center.entries) / np.linalg.norm(h)
        _, vecs = compound._lapack.eigh(center.entries + t * compound._symmetrize(h))
        mixed_center, mixed = vecs.T @ center.entries @ vecs, vecs.T @ h @ vecs
        if compound._is_diagonal(mixed_center) and compound._is_diagonal(mixed):
            return vecs, np.sqrt(np.maximum(np.diag(mixed_center), 0.0)), np.diag(mixed).copy()
    return None


def _prefilter_bound(h):
    """The asymmetry above which ``_commuting_channel_axes`` returns None at once."""
    d = h.shape[0]
    return 4.0 * d * max(1.0, float(np.linalg.norm(h))) * (1e-10 + 2.0 * d * np.finfo(float).eps)


class TestCommutingAxes:
    @staticmethod
    def _assert_same_decision(center, h):
        found, full = compound._commuting_channel_axes(center, h), _full_axes_search(center, h)
        assert (found is None) == (full is None)
        if found is not None:
            for a, b in zip(found, full):
                assert np.array_equal(a, b)
        return found

    def test_prefilter_keeps_the_full_search_decision(self):
        # commuting, symmetric but not commuting, and asymmetric channels
        # (their center's eigenvectors, and where the center repeats its
        # eigenvalues those of C + t H)
        rng = np.random.default_rng(97)
        for k in range(30):
            d = 2 + k % 7
            q = _rotation(rng, d)
            center = SpdMatrix((q * rng.uniform(0.5, 2.0, d)) @ q.T)
            repeated = SpdMatrix((q * np.repeat(rng.uniform(0.5, 2.0, (d + 1) // 2), 2)[:d]) @ q.T)
            commuting = compound._symmetrize((q * rng.uniform(-2.0, 2.0, d)) @ q.T)
            w = _rotation(rng, d)
            symmetric = compound._symmetrize((w * rng.uniform(-2.0, 2.0, d)) @ w.T)
            general = rng.standard_normal((d, d))
            assert self._assert_same_decision(center, commuting) is not None
            assert self._assert_same_decision(repeated, commuting) is not None
            assert self._assert_same_decision(center, center.entries) is not None
            assert self._assert_same_decision(center, symmetric) is None
            assert self._assert_same_decision(center, general) is None

    @pytest.mark.parametrize("scale, found", [(0.5, True), (1.0, None), (1.5, False), (2.0, False)])
    def test_antisymmetric_part_at_the_diagonal_tolerance(self, scale, found):
        # V^T H V = D + e A with A antisymmetric, off its diagonal e: within
        # _is_diagonal's tolerance the axes are found, beyond it not (at 1.5
        # times it, also not for a tolerance twice as large), and the
        # pre-filter decides as the full search does either way
        rng = np.random.default_rng(101)
        for d in (2, 3, 5, 8):
            q = _rotation(rng, d)
            center = SpdMatrix((q * rng.uniform(0.5, 2.0, d)) @ q.T)
            weights = rng.uniform(1.5, 3.0, d)
            tolerance = 1e-10 * float(weights.max())
            a = np.zeros((d, d))
            a[0, 1], a[1, 0] = 1.0, -1.0
            h = center._eigvecs @ (np.diag(weights) + scale * tolerance * a) @ center._eigvecs.T
            assert float(np.abs(h - h.T).max()) < _prefilter_bound(h)  # the full search runs
            axes = self._assert_same_decision(center, h)
            if found is not None:
                assert (axes is not None) == found

    @pytest.mark.parametrize("margin, decided", [(1.001, True), (0.999, False)])
    def test_prefilter_decides_beyond_its_bound_alone(self, margin, decided):
        # above the bound the center's eigenvectors are never computed
        rng = np.random.default_rng(103)
        for d in (2, 4, 9):
            g = rng.standard_normal((d, d))
            h = g + g.T
            h[0, 1] += margin * _prefilter_bound(h)
            center = random_spd(rng, d)
            assert compound._commuting_channel_axes(center, h) is None
            assert ("_eigvecs" not in vars(center)) == decided
            assert _full_axes_search(center, h) is None


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
                s_of_y = coords.objective(y)[1][0]
                back = coords.basis @ coords.noise(s_of_y) @ coords.basis.T
                assert np.allclose(back, noise.entries, rtol=0.0, atol=1e-10 * noise.trace)

    def test_factored_gradient_is_the_difference_of_inverses(self):
        # G = -0.5 B^T diag(g p/(1 + g p)) B, B = U^T L^{-1}, is the Danskin
        # gradient 0.5 ((W + H Q H^T)^{-1} - W^{-1}) at the noise W of y
        rng = np.random.default_rng(61)
        for k in range(14):
            d = 2 + k % 7
            if k % 2:
                request = _benchmark_like(rng, d)
                center, h, power = request.ball.center, request.channel.entries, request.power
                radius = request.ball.radius
            else:
                center, h = random_spd(rng, d), rng.standard_normal((d, d))
                power = float(rng.uniform(0.1, 5.0)) * center.trace
                radius = float(rng.uniform(0.1, 1.0)) * math.sqrt(center.trace)
            coords = compound._TransportCoordinates(center, h, power)
            y = rng.standard_normal((d, d)) + np.eye(d)
            y = (y + y.T) * (float(rng.uniform()) * radius / np.linalg.norm(y + y.T))
            value, (_, noise, g, (_, per_mode, rate), point) = coords.objective(y)
            assert point is noise  # not jittered
            assert value == rate
            vt = compound._whitened_gains(coords.channel, noise)[1]
            reference = _inverse_difference(coords.channel, noise, (vt.T * per_mode) @ vt)
            assert np.linalg.norm(g - reference) <= 1e-10 * np.linalg.norm(reference)
            _assert_symmetric_nsd(g)

    def test_gram_route_evaluates_as_the_svd(self, monkeypatch):
        # the objective whitens by the Gram product's eigendecomposition; at
        # gains spread within its cut its value and gradient are the SVD's
        # to 1e-12 relative
        rng = np.random.default_rng(30)
        points = []
        for k in range(200):
            d = 2 + k % 31
            request = _benchmark_like(rng, d)
            h = (_rotation(rng, d) * np.exp(rng.uniform(0.0, math.log(10.0), d))) @ _rotation(rng, d).T
            coords = compound._TransportCoordinates(request.ball.center, h, request.power)
            y = rng.standard_normal((d, d))
            y = (y + y.T) * (float(rng.uniform()) * request.ball.radius / np.linalg.norm(y + y.T))
            value, inner = coords.objective(y)
            gains = compound._whitened_gains(coords.channel, inner[1])[0]
            assert gains[-1] >= 1e-3 * gains[0]
            points.append((coords, y, value, coords.gradient(y, inner)))
        def svd_route(h, noise):
            gains, _, u, chol = compound._whitened_gains(h, noise)
            return gains, u, chol

        monkeypatch.setattr(compound, "_gram_whitened_gains", svd_route)
        for coords, y, value, gradient in points:
            svd_value, inner = coords.objective(y)
            svd_gradient = coords.gradient(y, inner)
            assert abs(value - svd_value) <= 1e-12 * abs(svd_value)
            assert np.linalg.norm(gradient - svd_gradient) <= 1e-12 * np.linalg.norm(svd_gradient)

    def test_factored_gradient_at_a_jittered_singular_noise(self):
        # S = I - e1 e1^T leaves the noise a null eigenvalue; the objective
        # jitters it as _ensure_positive_definite does, and G stays a Gram
        # product there, where the two inverses would cancel
        c, s = math.cos(0.4), math.sin(0.4)
        h = np.diag([2.0, 0.5, 1.0]) @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        coords = compound._TransportCoordinates(SpdMatrix.from_diag([1.0, 2.0, 3.0]), h, 1.0)
        y = np.zeros((3, 3))
        y[0, 0] = -coords.weight[0, 0]
        s_map = np.eye(3) + y / coords.weight
        raw = coords.noise(s_map)
        assert np.linalg.eigvalsh(raw)[0] == 0.0
        jittered, jitter = compound._ensure_positive_definite(SpdMatrix(raw))
        _, (kept, noise, g, _, point) = coords.objective(y)
        assert jitter > 0.0 and np.array_equal(kept, s_map)
        assert np.array_equal(point, raw)  # the ball point, not jittered
        assert np.array_equal(noise, jittered.entries)
        assert np.all(np.isfinite(g)) and np.abs(g).max() > 1e10
        _assert_symmetric_nsd(g)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("margin", [1e-3, -1e-3])
    def test_jitter_test_at_the_threshold(self, d, margin):
        # at y = 0 the noise is diag(lam); with lam_min = t (1 + margin), t =
        # 0.5e-12 tr N / d, the Cholesky factor of N - t I exists exactly when
        # margin > 0, and otherwise N is jittered by 2 t, as
        # _ensure_positive_definite jitters it
        k = (1.0 + margin) * 0.5e-12 / d
        rest = np.arange(1.0, d)
        lam_min = k * rest.sum() / (1.0 - k)
        center = SpdMatrix.from_diag(np.concatenate([[lam_min], rest]))
        threshold = 0.5e-12 * center.trace / d
        assert lam_min == pytest.approx((1.0 + margin) * threshold, rel=1e-12)
        coords = compound._TransportCoordinates(center, np.eye(d), 1.0)
        noise = coords.objective(np.zeros((d, d)))[1][1]
        if margin > 0.0:
            assert np.array_equal(noise, np.diag(coords.lam))
        else:
            assert np.array_equal(noise, np.diag(coords.lam) + 2.0 * threshold * np.eye(d))

    def test_projection_keeps_the_bits_of_the_frobenius_norm(self):
        rng = np.random.default_rng(73)
        for d in range(1, 33):
            x = rng.standard_normal((d, d))
            x = x + x.T
            norm = float(np.linalg.norm(x))
            projected, projected_norm = compound._project_ball(x, 0.5 * norm)
            assert projected.tobytes() == (x * (0.5 * norm / norm)).tobytes()
            assert projected_norm == math.sqrt(float(np.vdot(projected, projected)))  # as a fresh norm reads it

    def test_coordinates_share_the_centers_cached_eigendecomposition(self, monkeypatch):
        # the coordinates read the center's read-only eigenvalues and
        # eigenvectors instead of copying them, and a solve leaves them as
        # they were
        request = _benchmark_like(np.random.default_rng(83), 6)
        center = request.ball.center
        vals, vecs = center._eigvals, center._eigvecs
        before = vals.copy(), vecs.copy()
        built, coordinates = [], compound._TransportCoordinates
        monkeypatch.setattr(compound, "_TransportCoordinates", lambda *args: built.append(coordinates(*args)) or built[-1])
        result = compound_capacity(request)
        assert result.diagnostics.solver_path == "projected-gradient" and len(built) == 1
        assert built[0].lam is vals and built[0].basis is vecs
        assert center._eigvals is vals and center._eigvecs is vecs
        assert np.array_equal(vals, before[0]) and np.array_equal(vecs, before[1])
        assert not vals.flags.writeable and not vecs.flags.writeable

    def test_general_solve_builds_no_matrix_per_iteration(self, monkeypatch):
        # an evaluation factors the noise once and inverts nothing, so the
        # SpdMatrix constructions of a solve do not grow with its iterations
        easy = _benchmark_like(np.random.default_rng(53), 4)
        hard = list(_pd_battery(2024))[19]
        built, post_init = [], SpdMatrix.__post_init__
        monkeypatch.setattr(SpdMatrix, "__post_init__", lambda m: built.append(m) or post_init(m))

        def inverse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "inv", inverse)
        counts = []
        for request in (easy, hard):
            built.clear()
            result = compound_capacity(request)
            assert result.diagnostics.solver_path == "projected-gradient"
            counts.append((len(built), result.diagnostics.iterations))
        (easy_built, easy_iterations), (hard_built, hard_iterations) = counts
        assert hard_iterations >= 10 * easy_iterations
        assert hard_built == easy_built


def _assert_symmetric_nsd(g):
    assert np.array_equal(g, g.T)
    assert np.linalg.eigvalsh(g)[-1] <= 1e-15 * np.abs(g).max()


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
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(compound, "VALUE_STAGNATION_TOL", 0.0)
        center = SpdMatrix([[1.0, 0.3], [0.3, 4.0]])
        with pytest.raises(SolverNoConverge, match="grid point 0") as info:
            sweep_compound("rdf", center, [(0.5, 1.0)])
        assert info.value.diagnostics.iterations == 1

    def test_batch_failure_names_lowest_failing_point(self, monkeypatch):
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 1)
        center = SpdMatrix([[1.0, 0.3], [0.3, 4.0]])
        grid = [(0.0, 1.0), (0.5, 2.0), (0.5, 1.0), (0.0, 2.0)]
        for kind in ("rdf", "capacity"):
            with pytest.raises(SolverNoConverge, match="grid point 1") as info:
                sweep_compound(kind, center, grid)
            assert info.value.diagnostics.iterations == 1

    def test_failing_general_channel_sweep_solves_each_row_once(self, monkeypatch):
        rng = np.random.default_rng(37)
        center = random_spd(rng, 3)
        h = ChannelMatrix(rng.standard_normal((3, 3)))
        grid = [(0.0, 2.0), (0.05, 2.0), (1.0, 2.0), (1.0, 2.0)]
        solved = compound_capacity(CompoundCapacityRequest(BwBall(center, 0.05), h, 2.0))
        cap = solved.diagnostics.iterations
        assert compound_capacity(CompoundCapacityRequest(BwBall(center, 1.0), h, 2.0)).diagnostics.iterations > cap
        monkeypatch.setattr(compound, "MAX_ITERATIONS", cap)
        calls = []
        minimize = compound._minimize

        def counted(*args):
            calls.append(args[-1])
            return minimize(*args)

        monkeypatch.setattr(compound, "_minimize", counted)
        with pytest.raises(SolverNoConverge, match=r"grid point 2 \(r=1.0, budget=2.0\)"):
            sweep_compound("capacity", center, grid, h)
        # row 0 is classical, row 3 is never reached; radii are at unit scale
        unit = 2.0 ** -(math.frexp(center.trace / center.dim)[1] // 2)
        assert calls == [0.05 * unit, 1.0 * unit]

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

    def test_grid_is_checked_without_balls_or_requests(self, monkeypatch):
        center = SpdMatrix([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
        general = ChannelMatrix([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, -0.4, 0.8]])
        sweeps = [("rdf", [(0.0, 0.5), (0.3, 1.0)], None), ("capacity", [(0.0, 1.0), (0.3, 2.0)], None),
                  ("capacity", [(0.0, 1.0), (0.3, 2.0)], general)]
        expected = [repr(sweep_compound(kind, center, grid, h)) for kind, grid, h in sweeps]

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep builds no ball and no request")

        for name in ("BwBall", "CompoundRdfRequest", "CompoundCapacityRequest"):
            monkeypatch.setattr(compound, name, refuse)
        assert [repr(sweep_compound(kind, center, grid, h)) for kind, grid, h in sweeps] == expected

    @pytest.mark.parametrize(
        "kind, center, grid, channel, max_iterations, error, message",
        [
            ("rdf", None, [(0.1, 1.0), (-1.0, 1.0)], None, None, ValueError,
             "grid point 1 (r=-1.0, budget=1.0): radius must be a finite nonnegative real"),
            ("capacity", None, [(math.nan, 1.0)], None, None, ValueError,
             "grid point 0 (r=nan, budget=1.0): radius must be a finite nonnegative real"),
            ("rdf", None, [(0.1, 1.0), (0.2, 0.5), (math.inf, 1.0)], None, None, ValueError,
             "grid point 2 (r=inf, budget=1.0): radius must be a finite nonnegative real"),
            ("rdf", None, [(0.1, 0.0)], None, None, ValueError,
             "grid point 0 (r=0.1, budget=0.0): distortion must be positive and finite, got 0.0"),
            ("rdf", None, [(0.1, 1.0), (0.1, math.nan)], None, None, ValueError,
             "grid point 1 (r=0.1, budget=nan): distortion must be positive and finite, got nan"),
            ("capacity", None, [(0.1, 1.0), (0.1, -1.0)], None, None, ValueError,
             "grid point 1 (r=0.1, budget=-1.0): power must be nonnegative and finite, got -1.0"),
            ("capacity", None, [(0.1, math.inf)], None, None, ValueError,
             "grid point 0 (r=0.1, budget=inf): power must be nonnegative and finite, got inf"),
            ("capacity", None, [(0.1, 1.0), (0.2, 1.0)], np.eye(2), None, ValueError,
             "grid point 0 (r=0.1, budget=1.0): channel and ball center dimensions do not match"),
            ("rdf", None, [(0.1, 1.0), (0.2, 1e-308), (0.3, 1e-308)], None, None, ValueError,
             "grid point 1 (r=0.2, budget=1e-308): distortion 1e-308 is too small for this center: at unit "
             "scale the water level, at least distortion / 3, would be below the normal float range"),
            ("capacity", [[1e-310]], [(0.1, 1.0), (0.2, 1.0)], None, None, ValueError,
             "grid point 0 (r=0.1, budget=1.0): whitened channel gain is not finite: noise too small for "
             "the channel"),
            ("capacity", None, [(0.0, 1.0), (0.5, 2.0), (0.5, 1.0)], None, 1, SolverNoConverge,
             "grid point 1 (r=0.5, budget=2.0): KKT search did not converge within 1 evaluations"),
            ("capacity", None, [(0.0, 1.0), (0.5, 2.0)], [[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, -0.4, 0.8]],
             1, SolverNoConverge, "grid point 1 (r=0.5, budget=2.0): value did not stagnate within 1 iterations"),
        ],
        ids=["negative_radius", "nan_radius", "infinite_radius", "zero_distortion", "nan_distortion",
             "negative_power", "infinite_power", "channel_size", "distortion_below_float_range",
             "subnormal_noise_center", "kkt_out_of_iterations", "projected_gradient_out_of_iterations"],
    )
    def test_one_defect_names_its_grid_point(
        self, monkeypatch, kind, center, grid, channel, max_iterations, error, message
    ):
        center = SpdMatrix(center or [[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
        if max_iterations is not None:
            monkeypatch.setattr(compound, "MAX_ITERATIONS", max_iterations)
        with pytest.raises(error) as info:
            sweep_compound(kind, center, grid, None if channel is None else ChannelMatrix(channel))
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("point", [(0.2,), (0.2, 1.0, 3.0)])
    def test_point_that_is_not_a_pair_names_its_grid_point(self, point):
        # the handler unpacked the point again and raised from inside itself
        with pytest.raises(ValueError, match=r"^grid point 1 \(\(0\.2,.*unpack"):
            sweep_compound("rdf", SpdMatrix.identity(2), [(0.1, 1.0), point])

    @pytest.mark.parametrize(
        "kind, grid, message",
        [
            ("rdf", [(0.1, 1.0), 0.5], "grid point 1 (0.5): cannot unpack non-iterable float object"),
            ("capacity", [None], "grid point 0 (None): cannot unpack non-iterable NoneType object"),
            ("rdf", [(None, 1.0)], "grid point 0 (r=None, budget=1.0): radius must be a finite nonnegative real"),
            ("rdf", [(0.1, 1.0), (0.1, None)],
             "grid point 1 (r=0.1, budget=None): distortion must be positive and finite, got None"),
            ("capacity", [(0.1, "1 W")], "grid point 0 (r=0.1, budget=1 W): power must be nonnegative and finite, got 1 W"),
            ("capacity", [(0.1, 1.0), ([0.2], 1.0)],
             "grid point 1 (r=[0.2], budget=1.0): radius must be a finite nonnegative real"),
            ("rdf", [(10**400, 1.0)], f"grid point 0 (r={10**400}, budget=1.0): radius must be a finite nonnegative real"),
        ],
        ids=["float_point", "none_point", "none_radius", "none_distortion", "text_power", "list_radius", "huge_int_radius"],
    )
    def test_malformed_point_names_its_grid_point(self, kind, grid, message):
        # a point float() cannot read, or that is not iterable, raised an unprefixed TypeError
        with pytest.raises(ValueError) as info:
            sweep_compound(kind, SpdMatrix.identity(2), grid)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_type_error_inside_the_solve_propagates_unchanged(self, monkeypatch):
        def broken(*args):
            raise TypeError("inside the solve")

        monkeypatch.setattr(compound, "_rdf_rows", broken)
        with pytest.raises(TypeError) as info:
            sweep_compound("rdf", SpdMatrix.identity(2), [(0.1, 1.0)])
        assert str(info.value) == "inside the solve"

    def test_points_equal_single_shot_and_traces_to_rounding(self):
        # on the eigen-reductions a point's trace is the sum of the worst-case
        # spectrum, the single shot's the trace of the assembled matrix
        rng = np.random.default_rng(29)
        for i in range(120):
            kind, d = ("rdf", "capacity")[i % 2], 2 + (i // 2) % 6
            q, upper = np.linalg.qr(rng.standard_normal((d, d)))
            q = q * np.sign(np.diag(upper))
            center = SpdMatrix((q * np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))) @ q.T)
            r, budget = 0.3 * math.sqrt(center.trace), float(rng.uniform(0.1, 1.0)) * center.trace
            (point,) = sweep_compound(kind, center, [(r, budget)])
            if kind == "rdf":
                single = compound_rdf(CompoundRdfRequest(BwBall(center, r), budget))
            else:
                single = compound_capacity(CompoundCapacityRequest(BwBall(center, r), ChannelMatrix(np.eye(d)), budget))
            assert point.value_nats == single.value_nats
            assert point.diagnostics == single.diagnostics
            trace = single.worst_case_cov.trace
            assert abs(point.worst_case_trace - trace) <= 2e-15 * trace


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

    def test_general_channel_at_positive_definite_centers(self):
        # radii whose cube underflows, in the Frank-Wolfe gap's support search
        rng = np.random.default_rng(0)
        for k in range(12):
            d = 2 + k % 3
            q = _rotation(rng, d)
            center = SpdMatrix((q * np.exp(rng.uniform(math.log(0.2), math.log(5.0), d))) @ q.T)
            channel, power = ChannelMatrix(rng.standard_normal((d, d))), 0.3 * center.trace
            at_center = compound_capacity(CompoundCapacityRequest(BwBall(center, 0.0), channel, power))
            for r in (1e-120, 1e-140):
                result = compound_capacity(CompoundCapacityRequest(BwBall(center, r), channel, power))
                assert result.diagnostics.solver_path == "projected-gradient"
                self._check(result, at_center)

    def test_sweep(self):
        center = SpdMatrix([[2.0, 0.3], [0.3, 1.0]])
        grid = [(r, 0.5) for r in (0.0,) + self.RADII]
        for kind in ("rdf", "capacity"):
            values = [p.value_nats for p in sweep_compound(kind, center, grid)]
            assert max(values) - min(values) <= 1e-12 * max(1.0, abs(values[0]))


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _frank_wolfe_gap(h, center, noise, input_cov, radius):
    """Frank-Wolfe duality gap of the capacity at ``noise``, in nats: the
    Danskin gradient there, 0.5 ((W + H Q H^T)^{-1} - W^{-1}) formed here as
    a difference of inverses, independently of the solver's factored one,
    taken into the center's eigenbasis and handed to
    ``compound._gradient_gap``."""
    noise, _ = compound._ensure_positive_definite(noise)
    g = _inverse_difference(h, noise.entries, input_cov.entries)
    lam, basis = symmetric_eig(center)
    return compound._gradient_gap(basis.T @ g @ basis, basis.T @ noise.entries @ basis, lam, radius)


def _inverse_difference(h, noise, input_cov):
    """0.5 ((W + H Q H^T)^{-1} - W^{-1}), from the symmetrized output
    covariance, symmetrized."""
    output_cov = noise + h @ input_cov @ h.T
    g = 0.5 * (np.linalg.inv(0.5 * (output_cov + output_cov.T)) - np.linalg.inv(noise))
    return 0.5 * (g + g.T)


def _pd_battery(seed):
    """The 30 requests of the positive definite battery at ``seed``: d = 2..4,
    radii up to 2 sqrt(tr C), powers over three decades."""
    rng = np.random.default_rng(seed)
    for i in range(30):
        d = 2 + i % 3
        g = rng.standard_normal((d, d))
        center = SpdMatrix(g @ g.T + 0.05 * np.eye(d))
        h = ChannelMatrix(rng.standard_normal((d, d)))
        radius = float(rng.uniform(0.05, 2.0)) * math.sqrt(center.trace)
        power = math.exp(rng.uniform(math.log(0.01), math.log(20.0))) * center.trace
        yield CompoundCapacityRequest(BwBall(center, radius), h, power)


def _singular_battery():
    """The 24 requests of the singular battery: ``default_rng(77)``, d =
    2..4, a rank d - 1 center C = G G^T with G of size d x (d - 1), a
    Gaussian channel, rank one (its first column times its first row) for
    odd i, and the radius and power drawn as in the PD battery."""
    rng = np.random.default_rng(77)
    for i in range(24):
        d = 2 + i % 3
        g = rng.standard_normal((d, d - 1))
        center = SpdMatrix(g @ g.T)
        h = rng.standard_normal((d, d))
        if i % 2:
            h = np.outer(h[:, 0], h[0, :])
        radius = float(rng.uniform(0.05, 2.0)) * math.sqrt(center.trace)
        power = math.exp(rng.uniform(math.log(0.01), math.log(20.0))) * center.trace
        yield CompoundCapacityRequest(BwBall(center, radius), ChannelMatrix(h), power)


def _benchmark_like(rng, d):
    """Noise center with spectrum in [0.5, 2], non-commuting channel, r = 0.2 sqrt(tr C), P = tr C."""
    q = _rotation(rng, d)
    center = SpdMatrix((q * np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))) @ q.T)
    h = (_rotation(rng, d) * np.exp(rng.uniform(math.log(0.5), math.log(1.5), d))) @ _rotation(rng, d).T
    return CompoundCapacityRequest(
        BwBall(center, 0.2 * math.sqrt(center.trace)), ChannelMatrix(h), center.trace
    )


def _step_count_cases():
    """Seeded general-channel requests: benchmark-like at d = 2..8, whose
    optimum lies on the sphere; balls of radius sqrt(tr C) at d = 2..4; and
    singular centers, jittered, at d = 3, 4."""
    rng = np.random.default_rng(3131)
    for d in range(2, 9):
        yield _benchmark_like(rng, d)
    for d in (2, 3, 4):
        g = rng.standard_normal((d, d))
        center = SpdMatrix(g @ g.T + 0.05 * np.eye(d))
        channel = ChannelMatrix(rng.standard_normal((d, d)))
        yield CompoundCapacityRequest(BwBall(center, math.sqrt(center.trace)), channel, center.trace)
    for d in (3, 4):
        g = rng.standard_normal((d, d - 1))
        yield CompoundCapacityRequest(BwBall(SpdMatrix(g @ g.T), 0.3), ChannelMatrix(rng.standard_normal((d, d))), 2.0)


class TestProjectedGradientSteps:
    def test_step_counts_are_pinned(self):
        # the iterations of seeded solves, exactly: a changed gradient, line
        # search, Barzilai-Borwein step or stopping rule moves them
        requests = list(_step_count_cases())
        results = [compound_capacity(request) for request in requests]
        assert [r.diagnostics.iterations for r in results] == [4, 6, 7, 6, 6, 10, 8, 7, 16, 21, 11, 13]
        assert {r.diagnostics.solver_path for r in results} == {"projected-gradient"}
        assert [r.diagnostics.jitter > 0.0 for r in results] == [False] * 10 + [True] * 2
        for request, result in zip(requests[:7], results):
            radius = request.ball.radius
            assert bw_distance(request.ball.center, result.worst_case_cov) == pytest.approx(radius, rel=1e-12)


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
            gap = _frank_wolfe_gap(h, center_pd, center_pd, at_center.input_cov, radius)
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
                assert bound >= compound._ball_support(a[None], b, radius, np.full(1, math.nan))[0] - 1e-12
                for seed in range(100):
                    draw = random_psd_in_ball(ball, seed).entries
                    assert bound >= float(np.sum((q * a) @ q.T * draw)) - 1e-12

    def test_support_is_exact_in_closed_forms(self):
        # scalar ball around sigma^2: max a N = a (sigma + r)^2
        support = compound._ball_support(np.array([[3.0]]), np.array([4.0]), np.array([0.5]), np.full(1, math.nan))[0]
        assert support == pytest.approx(3.0 * 2.5**2, rel=1e-12)
        # hard case, b = 0 on the top eigenvector: around diag(0, 1) with
        # r = 2, max 2 N11 + N22 is 10, at N = diag(3, 4)
        for b_top in (0.0, 1e-30, 1e-20):
            a, b = np.array([[2.0, 1.0]]), np.array([b_top, 1.0])
            support = compound._ball_support(a, b, np.array([2.0]), np.full(1, math.nan))[0]
            assert support == pytest.approx(10.0, rel=1e-9)

    def test_gap_matches_scalar_closed_form(self):
        # d = 1: the linear minimizer over the ball is the largest noise
        # (sigma + r)^2, so the gap at N = sigma^2 is G (sigma^2 - (sigma + r)^2)
        sigma, r, h, power = 1.5, 0.4, 0.8, 2.0
        noise = SpdMatrix.from_diag([sigma**2])
        inner = gaussian_capacity(np.array([[h]]), noise, power)
        gap = _frank_wolfe_gap(np.array([[h]]), noise, noise, inner.input_cov, r)
        grad = 0.5 * (1.0 / (sigma**2 + h * h * power) - 1.0 / sigma**2)
        assert gap == pytest.approx(grad * (sigma**2 - (sigma + r) ** 2), rel=1e-12)

    def test_returned_gap_is_tight_on_benchmark_like_instances(self):
        rng = np.random.default_rng(53)
        for d in (4, 8, 16, 32):
            result = compound_capacity(_benchmark_like(rng, d))
            gap = result.diagnostics.certificate_gap
            assert result.diagnostics.solver_path == "projected-gradient"
            assert -1e-12 <= gap <= 1e-8 * max(1.0, abs(result.value_nats))
            assert result.diagnostics.iterations <= 12

    def test_pd_battery_certified(self, monkeypatch):
        # off the benchmark's regime: d = 2..4, radii up to 2 sqrt(tr C),
        # powers over three decades; at most 2 of the 30 may exhaust the
        # iterations, and every value returned carries a tight gap
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 3000)
        rng = np.random.default_rng(2024)
        raised = 0
        for i in range(30):
            d = 2 + i % 3
            g = rng.standard_normal((d, d))
            center = SpdMatrix(g @ g.T + 0.05 * np.eye(d))
            h = ChannelMatrix(rng.standard_normal((d, d)))
            radius = float(rng.uniform(0.05, 2.0)) * math.sqrt(center.trace)
            power = math.exp(rng.uniform(math.log(0.01), math.log(20.0))) * center.trace
            try:
                result = compound_capacity(CompoundCapacityRequest(BwBall(center, radius), h, power))
            except SolverNoConverge:
                raised += 1
                continue
            assert result.diagnostics.certificate_gap <= 1e-8 * max(1.0, abs(result.value_nats))
        assert raised <= 2

    @pytest.mark.parametrize("seed", [2025, 2026, 2027])
    def test_pd_battery_certified_by_tangent_steps(self, monkeypatch, seed):
        # on the sphere with the gradient pointing out, the step runs along
        # it, so the rescale does not cap the move and every instance of
        # these batteries converges
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 3000)
        for request in _pd_battery(seed):
            result = compound_capacity(request)
            assert result.diagnostics.certificate_gap <= 1e-8 * max(1.0, abs(result.value_nats))

    def test_singular_battery_certified_or_raised_with_a_finite_gap(self):
        # a fast subset: instances 5, 7, 9, 11, 17 and 23 run all 10 000
        # iterations (20-35 s each) and raise, and 19 takes about 3 s; of the
        # other 17, instance 20 raises once its line search cannot move
        slow = {5, 7, 9, 11, 17, 19, 23}
        for i, request in enumerate(_singular_battery()):
            if i in slow:
                continue
            try:
                result = compound_capacity(request)
            except SolverNoConverge as exc:
                assert math.isfinite(exc.diagnostics.certificate_gap)
                assert exc.diagnostics.jitter > 0.0
                continue
            diagnostics = result.diagnostics
            assert diagnostics.solver_path == "projected-gradient" and diagnostics.jitter > 0.0
            assert diagnostics.certificate_gap <= 1e-10 * max(1.0, abs(result.value_nats))

    def test_rdf_gap_at_small_positive_rates(self):
        # D just below the largest trace in the ball leaves rates in (0,
        # 1e-3), and each row's gap is computed there, not left at 0.0
        rng = np.random.default_rng(55)
        computed = 0
        for k in range(12):
            d = 2 + k % 3
            center = random_spd(rng, d)
            vals, _ = symmetric_eig(center)
            radius = np.array([float(rng.uniform(0.1, 1.0)) * math.sqrt(center.trace)])
            top = (np.linalg.norm(np.sqrt(vals)) + radius[0]) ** 2
            distortion = np.array([top * (1.0 - 10.0 ** -float(rng.uniform(3.0, 8.0)))])
            result = compound_rdf(CompoundRdfRequest(BwBall(center, radius[0]), distortion[0]))
            assert 0.0 < result.value_nats < 1e-3
            lam, (level, _, _), _, _ = compound._rdf_rows(vals, radius, distortion)
            expected = compound._rdf_gap(lam, level, vals, radius, distortion)[0]
            assert result.diagnostics.certificate_gap == expected
            computed += expected != 0.0
        assert computed >= 6

    def test_singular_center_hard_case_gap(self):
        # A's top direction is e1, where the jittered center diag(0, 1) has
        # almost no variance: the secular equation nearly loses its root
        center, jitter = compound._ensure_positive_definite(SpdMatrix.from_diag([0.0, 1.0]))
        assert jitter > 0.0
        noise = SpdMatrix.identity(2)
        c, s = math.cos(0.4), math.sin(0.4)
        h = np.diag([2.0, 0.5]) @ np.array([[c, -s], [s, c]])
        inner = gaussian_capacity(h, noise, 1.0)
        gap = _frank_wolfe_gap(h, center, noise, inner.input_cov, 1.5)
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


def _ill_conditioned_kkt_battery(count):
    """Centers of d = 2..16 with spectra log-uniform in [1e-6, 1], each with
    12 rows: radii log-uniform in [1e-4, 3] ||s||, distortions in [1e-4, 1]
    ||s||^2 and powers in [1e-3, 10] ||s||^2."""
    rng = np.random.default_rng(3)
    for _ in range(count):
        d = int(rng.integers(2, 17))
        vals = np.sort(np.exp(rng.uniform(math.log(1e-6), 0.0, d)))[::-1]
        total = float(vals.sum())

        def draw(lo, hi):
            return np.exp(rng.uniform(math.log(lo), math.log(hi), 12))

        yield vals, math.sqrt(total) * draw(1e-4, 3.0), total * draw(1e-4, 1.0), total * draw(1e-3, 10.0)


class TestKktSteps:
    def test_ill_conditioned_battery_converges_with_tight_gaps(self):
        # every row converges, without a warning, to a certified optimum
        for vals, radius, distortion, power in _ill_conditioned_kkt_battery(100):
            s = np.sqrt(vals)
            _, (_, _, rate), _, gap = compound._rdf_rows(vals, radius, distortion)
            assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(rate)))
            _, (_, _, rate), _, gap = compound._capacity_rows(s, np.ones_like(s), radius, power)
            assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(rate)))

    @pytest.mark.parametrize("kind", ["rdf", "capacity"])
    def test_sweep_like_grids_take_few_evaluations(self, kind):
        # a wrong slope or start shows as extra KKT evaluations; at d = 1 the
        # start is the answer
        rng = np.random.default_rng(17)
        lo, hi = (0.05, 0.8) if kind == "rdf" else (0.1, 2.0)
        closed_form = compound_rdf_scalar if kind == "rdf" else compound_capacity_scalar
        for d in (1, 4, 16) * 4:
            q = _rotation(rng, d)
            center = SpdMatrix((q * np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))) @ q.T)
            total = center.trace
            grid = [
                (f * math.sqrt(total), float(b))
                for f in (0.1, 0.25, 0.5) for b in np.linspace(lo * total, hi * total, 8)
            ]
            for point in sweep_compound(kind, center, grid):
                assert point.diagnostics.solver_path == "eigen-reduction"
                assert point.diagnostics.iterations <= (2 if d == 1 else 10)
                if d == 1:
                    expected = closed_form(math.sqrt(total), point.r, point.budget)
                    assert point.value_nats == pytest.approx(expected, rel=1e-14, abs=0.0)


def _certified_batteries():
    """(kind, center spectrum, radii, budgets): sweep-like grids at d = 1, 4
    and 16 (spectra log-uniform in [0.5, 2], radii 0.1-0.5 sqrt(tr C),
    8-point budget grids), then the ill-conditioned KKT battery."""
    rng = np.random.default_rng(17)
    for d in (1, 4, 16) * 4:
        vals = np.sort(np.exp(rng.uniform(math.log(0.5), math.log(2.0), d)))[::-1]
        total = float(vals.sum())
        radius = np.repeat([0.1, 0.25, 0.5], 8) * math.sqrt(total)
        yield "rdf", vals, radius, np.tile(np.linspace(0.05 * total, 0.8 * total, 8), 3)
        yield "capacity", vals, radius, np.tile(np.linspace(0.1 * total, 2.0 * total, 8), 3)
    for vals, radius, distortion, power in _ill_conditioned_kkt_battery(40):
        yield "rdf", vals, radius, distortion
        yield "capacity", vals, radius, power


def _gaps_and_rates():
    gaps, rates = [], []
    for kind, vals, radius, budget in _certified_batteries():
        if kind == "rdf":
            _, (_, _, rate), _, gap = compound._rdf_rows(vals, radius, budget)
        else:
            s = np.sqrt(vals)
            _, (_, _, rate), _, gap = compound._capacity_rows(s, np.ones_like(s), radius, budget)
        gaps.append(gap)
        rates.append(rate)
    return np.concatenate(gaps), np.concatenate(rates)


class TestWarmSupport:
    """The eigen-reduction gaps start their support search at the dual
    gamma fitted to the returned point."""

    def test_two_secular_steps_reach_the_answer(self, monkeypatch):
        gaps, _ = _gaps_and_rates()
        monkeypatch.setattr(compound, "MAX_SECULAR_NEWTON", 2)
        capped, _ = _gaps_and_rates()
        assert capped.tobytes() == gaps.tobytes()

    def test_gaps_match_the_cold_start(self, monkeypatch):
        gaps, rates = _gaps_and_rates()
        support = compound._ball_support
        monkeypatch.setattr(
            compound, "_ball_support", lambda a, b, radius, start: support(a, b, radius, np.full(a.shape[0], math.nan))
        )
        cold, cold_rates = _gaps_and_rates()
        assert cold_rates.tobytes() == rates.tobytes()
        assert np.all(np.abs(gaps - cold) <= 1e-14 * np.maximum(1.0, np.abs(rates)))

    def test_any_start_gives_a_valid_bound(self):
        # right of the root the search stops at once, at a larger bound
        rng = np.random.default_rng(61)
        for d in (1, 3, 6):
            a = np.exp(rng.uniform(-2.0, 1.0, (5, d)))
            b, radius = np.exp(rng.uniform(-2.0, 1.0, d)), np.exp(rng.uniform(-2.0, 0.5, 5))
            cold = compound._ball_support(a, b, radius, np.full(5, math.nan))
            for factor in (0.0, 0.5, 1.0 + 1e-9, 2.0, 1e3):
                warm = compound._ball_support(a, b, radius, factor * a.max(axis=1))
                assert np.all(warm >= cold * (1.0 - 1e-13))
            # a NaN start is the cold start, as is one left of it
            left = compound._ball_support(a, b, radius, np.zeros(5))
            assert left.tobytes() == cold.tobytes()


def _support_rows():
    """Rows (a, b, radius) of the general-channel support search: a >= 0,
    as -G is positive semidefinite, with zeros among it, d = 1..32; each
    also in the hard case (b about 0 on the top eigenvector) and at a radius
    whose cube underflows."""
    rng = np.random.default_rng(71)
    for d in range(1, 33):
        a = np.exp(rng.uniform(-3.0, 1.0, d)) * (rng.uniform(size=d) < 0.8)
        a[rng.integers(d)] = math.exp(rng.uniform(-1.0, 1.0))
        b = np.exp(rng.uniform(-3.0, 1.0, d))
        radius = math.exp(rng.uniform(-3.0, 1.0))
        hard = b.copy()
        hard[np.argmax(a)] = 1e-30
        yield a, b, radius
        yield a, hard, radius
        yield a, b, 1e-110


class TestRowSupport:
    """The general-channel gap's support search, in Python floats from the
    cold start."""

    def test_equals_the_numpy_search_from_the_same_start(self):
        for a, b, radius in _support_rows():
            cold = compound._ball_support(a[None], b, np.array([radius]), np.full(1, math.nan))[0]
            got = compound._row_support(a.tolist(), b.tolist(), radius)
            assert got == pytest.approx(cold, rel=1e-15, abs=0.0)

    def test_negative_semidefinite_support_is_zero(self):
        for a in ([0.0], [-1.0, -0.5, 0.0], [-2.0, -1e-300]):
            assert compound._row_support(a, [1.0] * len(a), 0.5) == 0.0

    def test_general_channel_gaps_match_the_cold_numpy_search(self, monkeypatch):
        # on the PD batteries, against _ball_support from the cold start: the
        # same values, iterations and failures, and the same gaps to rounding
        monkeypatch.setattr(compound, "MAX_ITERATIONS", 3000)
        requests = [request for seed in (2024, 2025, 2026, 2027) for request in _pd_battery(seed)]
        rows = [_capacity_outcome(request) for request in requests]
        support = compound._ball_support
        monkeypatch.setattr(
            compound, "_row_support",
            lambda a, b, radius: float(support(np.array([a]), np.array(b), np.array([radius]), np.full(1, math.nan))[0]),
        )
        numpy = [_capacity_outcome(request) for request in requests]
        assert [row[:-1] for row in rows] == [row[:-1] for row in numpy]
        for (value, _, worst, gap), (*_, numpy_gap) in zip(rows, numpy):
            assert abs(gap - numpy_gap) <= 1e-15 * (1.0 if worst is None else max(1.0, abs(value)))

    def test_general_channel_certificates_take_few_secular_passes(self, monkeypatch):
        # a pass evaluates f and its slope once: here the search takes 4 or 5
        # passes (4.55 on average) from the cold start, so a wrong start or
        # slope shows
        passes, search, secular = [], compound._row_support, compound._secular_pass

        def counted_search(a, b, radius):
            passes.append(0)
            return search(a, b, radius)

        def counted_pass(a, root, gamma):
            passes[-1] += 1
            return secular(a, root, gamma)

        monkeypatch.setattr(compound, "_row_support", counted_search)
        monkeypatch.setattr(compound, "_secular_pass", counted_pass)
        rng = np.random.default_rng(53)
        for d in (4, 8, 16, 32) * 5:
            compound_capacity(_benchmark_like(rng, d))
        assert max(passes) <= 5 and sum(passes) <= 4.6 * len(passes)


def _capacity_outcome(request):
    """(value, iterations, worst-case bytes, gap) of a compound capacity, or
    (the failure's message, its iterations, None, its gap)."""
    try:
        result = compound_capacity(request)
    except SolverNoConverge as exc:
        return str(exc), exc.diagnostics.iterations, None, exc.diagnostics.certificate_gap
    diagnostics = result.diagnostics
    worst = result.worst_case_cov.entries.tobytes()
    return result.value_nats, diagnostics.iterations, worst, diagnostics.certificate_gap
