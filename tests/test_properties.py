"""Property tests of the compound solvers: general-channel capacity (single
start, certified) and the two eigenvalue-space reductions (the RDF, and
capacity with a channel that commutes with the center); sweeps against
single-shot solves, the classical limits at r = 0, and the CLI's units."""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_shannon import (
    BwBall,
    ChannelMatrix,
    CompoundCapacityRequest,
    CompoundRdfRequest,
    SpdMatrix,
    bw_distance,
    compound_capacity,
    compound_rdf,
    gaussian_capacity,
    gaussian_rdf,
    sweep_compound,
)
from robust_shannon.cli import main


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@st.composite
def general_channel_instances(draw):
    """(center, channel, radius fraction of sqrt(tr C), power fraction of tr C) at d = 2, 3."""
    d = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = _rotation(rng, d)
    center = (q * np.exp(rng.uniform(math.log(0.2), math.log(5.0), d))) @ q.T
    channel = rng.standard_normal((d, d))
    radius = draw(st.floats(0.05, 1.0))
    power = draw(st.floats(0.1, 5.0))
    return center, channel, radius, power, rng


def _solve(center, channel, radius_fraction, power_fraction):
    total = float(np.trace(center))
    request = CompoundCapacityRequest(
        BwBall(SpdMatrix(center), radius_fraction * math.sqrt(total)),
        ChannelMatrix(channel),
        power_fraction * total,
    )
    result = compound_capacity(request)
    assert result.diagnostics.solver_path == "projected-gradient"
    return result


@settings(max_examples=25)
@given(general_channel_instances())
def test_rotation_equivariance(instance):
    center, channel, radius, power, rng = instance
    q = _rotation(rng, center.shape[0])
    plain = _solve(center, channel, radius, power)
    rotated = _solve(q @ center @ q.T, q @ channel @ q.T, radius, power)
    # both values lie within their certificate gaps above the common optimum
    slack = max(plain.diagnostics.certificate_gap, rotated.diagnostics.certificate_gap)
    assert abs(rotated.value_nats - plain.value_nats) <= slack + 1e-10 * max(1.0, plain.value_nats)
    expected = q @ plain.worst_case_cov.entries @ q.T
    assert np.allclose(rotated.worst_case_cov.entries, expected, rtol=0.0, atol=1e-6 * np.trace(expected))


@settings(max_examples=25)
@given(general_channel_instances(), st.floats(0.05, 1.0))
def test_monotone_in_radius(instance, other_radius):
    center, channel, radius, power, _ = instance
    small, large = sorted((radius, other_radius))
    inner = _solve(center, channel, small, power)
    outer = _solve(center, channel, large, power)
    # C*(large) <= C*(small) <= inner value, and outer lies within its gap of C*(large)
    assert outer.value_nats <= inner.value_nats + outer.diagnostics.certificate_gap + 1e-12


@st.composite
def rdf_instances(draw):
    """(center, radius fraction of sqrt(tr C), distortion fraction of tr C) at d = 1..4."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = _rotation(rng, d)
    center = (q * np.exp(rng.uniform(math.log(0.2), math.log(5.0), d))) @ q.T
    radius = draw(st.floats(0.05, 1.0))
    distortion = draw(st.floats(0.05, 1.2))
    return center, radius, distortion, rng


def _solve_rdf(center, radius_fraction, distortion_fraction, scale=1.0):
    """compound_rdf on (a^2 C, a r, a^2 D) with a = ``scale``."""
    total = float(np.trace(center))
    request = CompoundRdfRequest(
        BwBall(SpdMatrix(scale**2 * center), scale * radius_fraction * math.sqrt(total)),
        scale**2 * distortion_fraction * total,
    )
    return compound_rdf(request)


@settings(max_examples=25)
@given(rdf_instances())
def test_rdf_rotation_equivariance(instance):
    center, radius, distortion, rng = instance
    q = _rotation(rng, center.shape[0])
    plain = _solve_rdf(center, radius, distortion).value_nats
    rotated = _solve_rdf(q @ center @ q.T, radius, distortion).value_nats
    assert abs(rotated - plain) <= 1e-12 * max(1.0, plain)


@settings(max_examples=25)
@given(rdf_instances(), st.floats(0.1, 10.0))
def test_rdf_scale_invariance(instance, scale):
    center, radius, distortion, _ = instance
    plain = _solve_rdf(center, radius, distortion).value_nats
    scaled = _solve_rdf(center, radius, distortion, scale).value_nats
    assert abs(scaled - plain) <= 1e-7 * max(1.0, plain)


@settings(max_examples=25)
@given(rdf_instances())
def test_rdf_worst_case_in_ball(instance):
    center, radius, distortion, _ = instance
    result = _solve_rdf(center, radius, distortion)
    r = radius * math.sqrt(float(np.trace(center)))
    assert bw_distance(result.worst_case_cov, SpdMatrix(center)) <= r * (1.0 + 1e-9)


@settings(max_examples=25)
@given(rdf_instances(), st.floats(0.05, 1.0), st.floats(0.05, 1.2))
def test_rdf_monotone_in_radius_and_distortion(instance, other_radius, other_distortion):
    center, radius, distortion, _ = instance
    small, large = sorted((radius, other_radius))
    inner = _solve_rdf(center, small, distortion)
    outer = _solve_rdf(center, large, distortion)
    # R*(small r) <= R*(large r), and outer lies within its gap below R*(large r)
    slack = 1e-12 * max(1.0, inner.value_nats)
    assert inner.value_nats <= outer.value_nats + outer.diagnostics.certificate_gap + slack
    low, high = sorted((distortion, other_distortion))
    tight = _solve_rdf(center, radius, low)
    loose = _solve_rdf(center, radius, high)
    slack = 1e-12 * max(1.0, tight.value_nats)
    assert loose.value_nats <= tight.value_nats + tight.diagnostics.certificate_gap + slack


@st.composite
def commuting_instances(draw):
    """(center, symmetric channel sharing its eigenbasis, radius fraction of
    sqrt(tr C), power fraction of tr C) at d = 1..4, some channel weights 0."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = _rotation(rng, d)
    center = (q * np.exp(rng.uniform(math.log(0.2), math.log(5.0), d))) @ q.T
    weights = rng.uniform(-2.0, 2.0, d)
    if d > 1 and draw(st.booleans()):
        weights[rng.integers(d)] = 0.0  # a dead mode
    channel = (q * weights) @ q.T
    radius = draw(st.floats(0.05, 1.0))
    power = draw(st.floats(0.0, 5.0))
    return center, channel, radius, power, rng


def _solve_commuting(center, channel, radius_fraction, power_fraction):
    total = float(np.trace(center))
    request = CompoundCapacityRequest(
        BwBall(SpdMatrix(center), radius_fraction * math.sqrt(total)),
        ChannelMatrix(channel),
        power_fraction * total,
    )
    result = compound_capacity(request)
    assert result.diagnostics.solver_path == "eigen-reduction"
    return result


@settings(max_examples=25)
@given(commuting_instances())
def test_commuting_capacity_rotation_equivariance(instance):
    center, channel, radius, power, rng = instance
    q = _rotation(rng, center.shape[0])
    plain = _solve_commuting(center, channel, radius, power)
    rotated = _solve_commuting(q @ center @ q.T, q @ channel @ q.T, radius, power)
    slack = max(plain.diagnostics.certificate_gap, rotated.diagnostics.certificate_gap)
    assert abs(rotated.value_nats - plain.value_nats) <= slack + 1e-12 * max(1.0, plain.value_nats)


@settings(max_examples=25)
@given(commuting_instances(), st.floats(0.05, 1.0), st.floats(0.0, 5.0))
def test_commuting_capacity_monotone_in_radius_and_power(instance, other_radius, other_power):
    center, channel, radius, power, _ = instance
    small, large = sorted((radius, other_radius))
    inner = _solve_commuting(center, channel, small, power)
    outer = _solve_commuting(center, channel, large, power)
    # C*(large r) <= C*(small r) <= inner, and outer lies within its gap above C*(large r)
    slack = 1e-12 * max(1.0, inner.value_nats)
    assert outer.value_nats <= inner.value_nats + outer.diagnostics.certificate_gap + slack
    low, high = sorted((power, other_power))
    weak = _solve_commuting(center, channel, radius, low)
    strong = _solve_commuting(center, channel, radius, high)
    slack = 1e-12 * max(1.0, strong.value_nats)
    assert weak.value_nats <= strong.value_nats + weak.diagnostics.certificate_gap + slack


@settings(max_examples=25)
@given(commuting_instances())
def test_commuting_capacity_worst_case_in_ball(instance):
    center, channel, radius, power, _ = instance
    result = _solve_commuting(center, channel, radius, power)
    r = radius * math.sqrt(float(np.trace(center)))
    assert bw_distance(result.worst_case_cov, SpdMatrix(center)) <= r * (1.0 + 1e-9)


@st.composite
def sweep_instances(draw):
    """(kind, center, channel or None, grid) at d = 1..5: singular centers,
    commuting channels with dead modes, r = 0 rows, zero-rate RDF budgets,
    power 0 and a duplicated point."""
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = _rotation(rng, d)
    lam = np.exp(rng.uniform(math.log(0.2), math.log(5.0), d))
    if d > 1 and draw(st.booleans()):
        lam[rng.choice(d, size=int(rng.integers(1, d)), replace=False)] = 0.0
    center = SpdMatrix((q * lam) @ q.T)
    kind = draw(st.sampled_from(["rdf", "capacity"]))
    channel = None
    if kind == "capacity" and draw(st.booleans()):
        weights = rng.uniform(-2.0, 2.0, d)
        if d > 1 and draw(st.booleans()):
            weights[rng.integers(d)] = 0.0  # a dead mode
        channel = ChannelMatrix((q * weights) @ q.T)
    fractions = st.sampled_from([0.0, 0.05, 0.5, 2.0]) | st.floats(0.0, 2.0)
    radii = draw(st.lists(fractions, min_size=1, max_size=3))
    if kind == "rdf":  # 10 tr C exceeds every trace in a ball of radius 2 sqrt(tr C)
        budget = st.sampled_from([0.01, 0.3, 10.0]) | st.floats(0.01, 3.0)
    else:
        budget = st.sampled_from([0.0, 0.3, 5.0]) | st.floats(0.0, 5.0)
    budgets = draw(st.lists(budget, min_size=1, max_size=3))
    total = center.trace
    grid = [(r * math.sqrt(total), b * total) for r in radii for b in budgets]
    return kind, center, channel, grid + grid[:1]


def _single(kind, center, channel, r, budget):
    if kind == "rdf":
        return compound_rdf(CompoundRdfRequest(BwBall(center, r), budget))
    channel = channel or ChannelMatrix(np.eye(center.dim))
    return compound_capacity(CompoundCapacityRequest(BwBall(center, r), channel, budget))


@settings(max_examples=40)
@given(sweep_instances())
def test_sweep_rows_equal_single_shot(instance):
    kind, center, channel, grid = instance
    points = sweep_compound(kind, center, grid, channel)
    assert [(p.r, p.budget) for p in points] == grid
    for point, (r, budget) in zip(points, grid):
        single = _single(kind, center, channel, r, budget)
        value, trace = single.value_nats, single.worst_case_cov.trace
        assert abs(point.value_nats - value) <= 1e-12 * max(1.0, abs(value))
        assert abs(point.worst_case_trace - trace) <= 1e-12 * max(1.0, abs(trace))
        assert point.diagnostics.iterations == single.diagnostics.iterations
        assert point.diagnostics.solver_path == single.diagnostics.solver_path


@settings(max_examples=25)
@given(sweep_instances(), st.booleans())
def test_zero_radius_is_classical(instance, general_channel):
    kind, center, channel, grid = instance
    if kind == "capacity" and general_channel:
        rng = np.random.default_rng(center.dim)
        channel = ChannelMatrix(rng.standard_normal((center.dim, center.dim)))
    budgets = [budget for _, budget in grid]
    points = sweep_compound(kind, center, [(0.0, budget) for budget in budgets], channel)
    for point, budget in zip(points, budgets):
        result = _single(kind, center, channel, 0.0, budget)
        for diagnostics in (point.diagnostics, result.diagnostics):
            assert (diagnostics.solver_path, diagnostics.iterations) == ("classical", 0)
            assert diagnostics.certificate_gap == 0.0
        single = result.value_nats
        if kind == "rdf":
            expected = gaussian_rdf(center, budget)
        else:
            expected = gaussian_capacity(channel or np.eye(center.dim), center, budget).rate_nats
        assert single == expected
        assert abs(point.value_nats - expected) <= 1e-12 * max(1.0, abs(expected))


def _cli_rows(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=25)
@given(
    st.sampled_from(["rdf", "capacity"]),
    st.floats(0.1, 5.0),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
    st.floats(0.01, 5.0),
    st.sampled_from(["csv", "json"]),
)
def test_cli_bits_are_nats_over_ln2(kind, sigma0, radii, budget, fmt):
    flag = "--distortion" if kind == "rdf" else "--power"
    argv = [
        "sweep", "--kind", kind, "--sigma0-scalar", repr(sigma0),
        "--radii", ",".join(repr(r) for r in radii), flag, repr(budget),
        "--units", "bits", "--format", fmt,
    ]
    text = _cli_rows(argv)
    if fmt == "json":
        pairs = [(row["value_nats"], row["value_bits"]) for row in json.loads(text)]
    else:
        lines = text.strip().split("\n")
        assert lines[0] == "r,budget,value_nats,value_bits,worst_case_trace"
        pairs = [tuple(float(x) for x in line.split(",")[2:4]) for line in lines[1:]]
    assert len(pairs) == len(radii)
    for nats, bits in pairs:
        assert bits == nats / math.log(2)
