"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances and runtime caps are fixed here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from robust_shannon import (
    BwBall,
    ChannelMatrix,
    CompoundCapacityRequest,
    CompoundRdfRequest,
    GaussianLaw,
    SpdMatrix,
    brute_force_compound,
    check_gelbrich,
    compound_capacity,
    compound_capacity_scalar,
    compound_rdf,
    compound_rdf_scalar,
    gaussian_capacity,
    gaussian_mi,
    gaussian_rdf,
    gaussian_w2,
    random_psd_in_ball,
    rdf_realization,
    reverse_waterfill,
)
from robust_shannon.cli import main as cli_main

SIGMA0_GRID = (0.5, 1.0, 2.0)
RADIUS_GRID = tuple(round(0.1 * k, 1) for k in range(21))  # 0.0 .. 2.0
DISTORTION_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 4.0)
POWER_GRID = (0.0, 0.5, 1.0, 3.0, 10.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {number} - {description}")
        raise
    print(f"PASS: criterion {number} - {description}")


def random_spd(rng, d, floor=0.1):
    g = rng.standard_normal((d, d))
    return SpdMatrix(g @ g.T + floor * np.eye(d))


def test_criterion_1_scalar_compound_rdf():
    with criterion(1, "scalar compound RDF grid (solver 1e-6, closed form 1e-12, <10s)"):
        start = time.perf_counter()
        for sigma0 in SIGMA0_GRID:
            for r in RADIUS_GRID:
                for distortion in DISTORTION_GRID:
                    expected = max(0.0, 0.5 * math.log((sigma0 + r) ** 2 / distortion))
                    closed = compound_rdf_scalar(sigma0, r, distortion)
                    assert abs(closed - expected) <= 1e-12
                    request = CompoundRdfRequest(
                        BwBall(SpdMatrix.from_diag([sigma0**2]), r), distortion
                    )
                    solved = compound_rdf(request).value_nats
                    assert abs(solved - expected) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_2_scalar_compound_capacity():
    with criterion(2, "scalar compound capacity grid (solver 1e-6, closed form 1e-12, <10s)"):
        start = time.perf_counter()
        for sigma0 in SIGMA0_GRID:
            for r in RADIUS_GRID:
                for power in POWER_GRID:
                    expected = 0.5 * math.log1p(power / (sigma0 + r) ** 2)
                    closed = compound_capacity_scalar(sigma0, r, power)
                    assert abs(closed - expected) <= 1e-12
                    request = CompoundCapacityRequest(
                        BwBall(SpdMatrix.from_diag([sigma0**2]), r),
                        ChannelMatrix(np.eye(1)),
                        power,
                    )
                    solved = compound_capacity(request).value_nats
                    assert abs(solved - expected) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_3_radius_zero_reduction():
    with criterion(3, "radius-zero reduction to the classical limits (1e-8)"):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            cov = random_spd(rng, d)
            distortion = float(rng.uniform(0.05, 1.3) * cov.trace)
            power = float(rng.uniform(0.0, 5.0))
            h = rng.standard_normal((d, d))
            rdf = compound_rdf(CompoundRdfRequest(BwBall(cov, 0.0), distortion))
            assert abs(rdf.value_nats - gaussian_rdf(cov, distortion)) <= 1e-8
            cap = compound_capacity(
                CompoundCapacityRequest(BwBall(cov, 0.0), ChannelMatrix(h), power)
            )
            assert abs(cap.value_nats - gaussian_capacity(h, cov, power).rate_nats) <= 1e-8


def test_criterion_4_capacity_curve_family():
    with criterion(4, "capacity curve family: monotone in B and r, matches inflated "
                      "Shannon capacity (1e-9, <5s)"):
        start = time.perf_counter()
        radii = (0.0, 0.5, 1.0, 2.0)
        budgets = np.linspace(0.0, 10.0, 101)
        center = SpdMatrix.from_diag([1.0])
        curves = {}
        for r in radii:
            values = []
            for power in budgets:
                request = CompoundCapacityRequest(
                    BwBall(center, r), ChannelMatrix(np.eye(1)), float(power)
                )
                value = compound_capacity(request).value_nats
                reference = 0.5 * math.log1p(power / (1.0 + r) ** 2)
                assert abs(value - reference) <= 1e-9
                values.append(value)
            curves[r] = values
            assert all(values[i + 1] > values[i] for i in range(100)), "not strictly increasing in B"
        for i, power in enumerate(budgets):
            if power == 0.0:
                continue
            column = [curves[r][i] for r in radii]
            assert all(column[j + 1] < column[j] for j in range(3)), "not strictly decreasing in r"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


def test_criterion_5_dominance_oracle():
    with criterion(5, "dominance oracle: 10 instances x 1000 in-ball draws (1e-6, <60s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(42)
        for instance in range(10):
            d = int(rng.integers(2, 4))
            center = random_spd(rng, d, floor=0.3)
            r = float(rng.uniform(0.1, 0.8))
            distortion = float(rng.uniform(0.1, 0.8) * center.trace)
            power = float(rng.uniform(0.5, 4.0))
            h = rng.standard_normal((d, d))
            ball = BwBall(center, r)
            rdf_value = compound_rdf(CompoundRdfRequest(ball, distortion)).value_nats
            cap_value = compound_capacity(
                CompoundCapacityRequest(ball, ChannelMatrix(h), power)
            ).value_nats
            for k in range(1000):
                draw = random_psd_in_ball(ball, 77_000 + instance * 1000 + k)
                assert gaussian_rdf(draw, distortion) <= rdf_value + 1e-6
                assert gaussian_capacity(h, draw, power).rate_nats >= cap_value - 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_6_brute_force_equivalence():
    with criterion(6, "solver vs exhaustive grid on diagonal 2x2 centers (1e-3, <120s)"):
        start = time.perf_counter()
        instances = (
            (SpdMatrix.from_diag([1.0, 4.0]), 0.5, 1.0, 2.0),
            (SpdMatrix.from_diag([2.0, 1.0]), 0.3, 0.8, 1.0),
            (SpdMatrix.from_diag([1.0, 2.5]), 0.7, 1.5, 3.0),
        )
        for center, r, distortion, power in instances:
            rdf_value = compound_rdf(CompoundRdfRequest(BwBall(center, r), distortion)).value_nats
            rdf_grid = brute_force_compound("rdf", center, r, distortion, 1e-3)
            assert abs(rdf_value - rdf_grid) <= 1e-3
            cap_value = compound_capacity(
                CompoundCapacityRequest(BwBall(center, r), ChannelMatrix(np.eye(2)), power)
            ).value_nats
            cap_grid = brute_force_compound("capacity", center, r, power, 1e-3)
            assert abs(cap_value - cap_grid) <= 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"


def test_criterion_7_gelbrich_verification():
    with criterion(7, "empirical W2 vs Gaussian closed form: median within 15%, "
                      "every run above 0.85x (<60s)"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for pair in range(10):
            d = int(rng.integers(1, 5))
            laws = []
            for _ in range(2):
                g = rng.standard_normal((d, d))
                cov = SpdMatrix(g @ g.T + 0.2 * np.eye(d))
                laws.append(GaussianLaw(rng.standard_normal(d), cov))
            p, q = laws
            closed = gaussian_w2(p, q)
            ratios = []
            for seed in range(20):
                report = check_gelbrich(p, q, 512, 500 + pair * 100 + seed)
                assert report.lower_bound_ok
                assert report.empirical >= closed * 0.85
                ratios.append(report.empirical / closed)
            ratios.sort()
            median = 0.5 * (ratios[9] + ratios[10])
            assert abs(median - 1.0) <= 0.15
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_8_realization_check():
    with criterion(8, "test channel meets the budget and reproduces the rate (1e-9)"):
        rng = np.random.default_rng(888)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            cov = random_spd(rng, d)
            distortion = float(rng.uniform(0.05, 1.3) * cov.trace)
            channel = rdf_realization(cov, distortion)
            gap = channel.gain - np.eye(d)
            achieved = float(np.trace(gap @ cov.entries @ gap.T) + channel.noise_cov.trace)
            assert achieved <= distortion + 1e-9
            mi = gaussian_mi(channel.gain, cov, channel.noise_cov)
            assert abs(mi - gaussian_rdf(cov, distortion)) <= 1e-9


def test_criterion_9_waterfill_conservation():
    with criterion(9, "allocations sum to the budget (relative 1e-9)"):
        rng = np.random.default_rng(999)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            cov = random_spd(rng, d)
            distortion = float(rng.uniform(0.05, 1.5) * cov.trace)
            alloc = reverse_waterfill(cov, distortion)
            target = min(distortion, cov.trace)
            assert abs(alloc.per_mode.sum() - target) <= 1e-9 * max(1.0, target)
            noise = random_spd(rng, d)
            h = rng.standard_normal((d, d))
            power = float(rng.uniform(0.1, 5.0))
            cap = gaussian_capacity(h, noise, power)
            assert abs(cap.allocation.per_mode.sum() - power) <= 1e-9 * max(1.0, power)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    with criterion(10, "CLI re-runs are byte-identical for fixed flags and seed"):
        import json

        cov_path = tmp_path / "cov.json"
        cov_path.write_text(json.dumps({"dim": 2, "rows": [[2.0, 0.3], [0.3, 1.0]]}))
        commands = (
            ["compound-rdf", "--sigma0-scalar", "1", "--radius", "1", "--distortion", "1"],
            ["compound-capacity", "--center", str(cov_path), "--radius", "0.4",
             "--power", "2", "--format", "json"],
            ["sweep", "--kind", "capacity", "--sigma0-scalar", "1",
             "--radii", "0,0.5,1,2", "--power", "0:10:11"],
            ["verify", "--suite", "gelbrich", "--seed", "7"],
            ["verify", "--suite", "dominance", "--seed", "2"],
        )
        for argv in commands:
            code1 = cli_main(list(argv))
            first = capsys.readouterr().out
            code2 = cli_main(list(argv))
            second = capsys.readouterr().out
            assert code1 == code2 == 0, f"{argv} exited {code1}/{code2}"
            assert first == second, f"{argv} output differs between runs"
