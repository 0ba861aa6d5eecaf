"""The KKT driver ``_kkt_newton`` of the eigen-reductions, on batteries of
sweep-like and dense grids, rank-deficient, ill-conditioned and repeated
spectra, commuting channels, rows that run out of evaluations, budgets
below the float range and scripted special values.

Every ``_kkt_newton`` call of the batteries is counted and checked: a
returned batch has one u row and a step count in [1, MAX_ITERATIONS] per
row, and a failure is a SolverNoConverge after MAX_ITERATIONS evaluations
whose ``_row`` is a row of the batch. Warnings are errors (pyproject), so a
warning in the driver's bookkeeping fails too. The batteries that solve
check every row's certificate gap.
"""

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
    compound_capacity,
    compound_rdf,
    sweep_compound,
)
from robust_shannon import compound


@pytest.fixture
def counted(monkeypatch):
    """Checks every ``_kkt_newton`` call; counts the calls, the rows and the
    calls that raised."""
    counts = {"calls": 0, "rows": 0, "raised": 0}
    newton = compound._kkt_newton

    def checked(kkt, level, *args):
        n = level.size
        counts["calls"] += 1
        counts["rows"] += n
        try:
            u, steps = newton(kkt, level, *args)
        except SolverNoConverge as exc:
            assert str(exc) == f"KKT search did not converge within {compound.MAX_ITERATIONS} evaluations"
            assert 0 <= exc._row < n
            assert exc.diagnostics.iterations == compound.MAX_ITERATIONS
            assert exc.diagnostics.solver_path == "eigen-reduction"
            assert math.isnan(exc.diagnostics.jitter) and exc.diagnostics.certificate_gap is None
            counts["raised"] += 1
            raise
        assert u.shape[0] == n and steps.shape == (n,)
        assert np.all((1 <= steps) & (steps <= compound.MAX_ITERATIONS))
        return u, steps

    monkeypatch.setattr(compound, "_kkt_newton", checked)
    return counts


def _assert_certified(gaps, values):
    """Every row's certificate gap is finite and at most 1e-10 max(1, |value|)."""
    gaps, values = np.asarray(gaps), np.asarray(values)
    assert np.all(np.isfinite(gaps))
    assert np.all(gaps <= 1e-10 * np.maximum(1.0, np.abs(values)))


def _assert_sweep_certified(points):
    _assert_certified([p.diagnostics.certificate_gap for p in points], [p.value_nats for p in points])


def _rotation(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _sweep_grid(total, kind):
    lo, hi = (0.05, 0.8) if kind == "rdf" else (0.1, 2.0)
    return [
        (f * math.sqrt(total), float(b))
        for f in (0.0, 0.1, 0.25, 0.5) for b in np.linspace(lo * total, hi * total, 8)
    ]


def _rows(vals, rng, count=12):
    """Radii log-uniform in [1e-4, 3] ||s||, distortions in [1e-4, 1] ||s||^2
    and powers in [1e-3, 10] ||s||^2."""
    total = float(np.sum(vals))

    def draw(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), count))

    return math.sqrt(total) * draw(1e-4, 3.0), total * draw(1e-4, 1.0), total * draw(1e-3, 10.0)


@pytest.mark.parametrize("kind", ["rdf", "capacity"])
def test_sweep_like_grids(counted, kind):
    rng = np.random.default_rng(2121)
    for d in (1, 4, 16) * 3:
        q = _rotation(rng, d)
        center = SpdMatrix((q * np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))) @ q.T)
        _assert_sweep_certified(sweep_compound(kind, center, _sweep_grid(center.trace, kind)))
    assert counted["calls"] == 9 and counted["rows"] == 9 * 24


def _dense_grid(total, kind):
    lo, hi = (0.05, 0.8) if kind == "rdf" else (0.1, 2.0)
    return [
        (f * math.sqrt(total), float(b))
        for f in np.linspace(0.02, 0.5, 12) for b in np.linspace(lo * total, hi * total, 10)
    ]


def _single_shot(kind, center, r, budget):
    ball = BwBall(center, r)
    if kind == "rdf":
        return compound_rdf(CompoundRdfRequest(ball, budget))
    return compound_capacity(CompoundCapacityRequest(ball, ChannelMatrix(np.eye(center.dim)), budget))


@pytest.mark.parametrize("kind", ["rdf", "capacity"])
def test_dense_radius_sweeps(counted, kind):
    # 120 rows in one batch; each row is the bits of its one-row batch
    rng = np.random.default_rng(4747)
    sweeps = []
    for d in (1, 4, 16):
        q = _rotation(rng, d)
        center = SpdMatrix((q * np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))) @ q.T)
        sweeps.append((center, sweep_compound(kind, center, _dense_grid(center.trace, kind))))
    assert counted["calls"] == 3 and counted["rows"] == 3 * 120
    for center, points in sweeps:
        _assert_sweep_certified(points)
        for point in points:
            single = _single_shot(kind, center, point.r, point.budget)
            assert np.array([single.value_nats]).tobytes() == np.array([point.value_nats]).tobytes()
            assert repr(single.diagnostics) == repr(point.diagnostics)


@pytest.mark.parametrize("kind", ["rdf", "capacity"])
def test_rank_deficient_rotated_centers(counted, kind):
    # the RDF's hard case: modes with s = 0 share the radius at omega = 0
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        g = rng.standard_normal((d, int(rng.integers(1, d))))
        center = SpdMatrix(g @ g.T)
        total = center.trace
        grid = [(f * math.sqrt(total), b * total) for f in (0.01, 0.1, 0.5) for b in (0.01, 0.1, 0.5)]
        _assert_sweep_certified(sweep_compound(kind, center, grid))
    assert counted["calls"] == 40


def test_ill_conditioned_and_repeated_spectra(counted):
    rng = np.random.default_rng(3)
    spectra = [np.sort(np.exp(rng.uniform(math.log(1e-6), 0.0, int(rng.integers(2, 17)))))[::-1] for _ in range(30)]
    spectra += [np.array([2.0, 2.0, 2.0, 1.0, 1.0, 0.5]), np.array([1.0] * 5), np.array([3.0, 1e-9, 1e-9, 0.0, 0.0])]
    for vals in spectra:
        radius, distortion, power = _rows(vals, rng)
        s = np.sqrt(vals)
        _, (_, _, rate), _, gap = compound._rdf_rows(vals, radius, distortion)
        _assert_certified(gap, rate)
        _, (_, _, rate), _, gap = compound._capacity_rows(s[s > 0.0], np.ones(int((s > 0.0).sum())), radius, power)
        _assert_certified(gap, rate)
    assert counted["calls"] == 2 * len(spectra)


def test_commuting_channels(counted):
    # squared channel weights other than one, dead modes among them
    rng = np.random.default_rng(11)
    for i in range(30):
        d = 2 + i % 6
        s = np.exp(rng.uniform(math.log(0.1), math.log(3.0), d))
        w = np.exp(rng.uniform(math.log(0.05), math.log(20.0), d))
        w[: i % 3] = 0.0
        radius, _, power = _rows(s * s, rng)
        _, (_, _, rate), _, gap = compound._capacity_rows(s, w, radius, power)
        _assert_certified(gap, rate)
    assert counted["calls"] == 30


def test_rows_that_run_out_of_evaluations(counted, monkeypatch):
    monkeypatch.setattr(compound, "MAX_ITERATIONS", 2)
    rng = np.random.default_rng(23)
    failed = 0
    for d in (2, 4, 16, 3, 8):
        q = _rotation(rng, d)
        center = SpdMatrix((q * np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))) @ q.T)
        for kind in ("rdf", "capacity"):
            try:
                sweep_compound(kind, center, _sweep_grid(center.trace, kind))
            except SolverNoConverge as exc:
                assert str(exc).startswith(f"grid point {exc._row}")
                failed += 1
    assert failed == counted["raised"] == 10


def test_budgets_below_the_float_range(counted, monkeypatch):
    # real evaluations that reach the steps' divisions by zero: a level of 0
    # at a distortion of 5e-324, a c_mult of 0 at 1e-308 (from about the
    # 980th evaluation on)
    monkeypatch.setattr(compound, "MAX_ITERATIONS", 1000)
    for distortion in (5e-324, 1e-308):
        with np.errstate(all="ignore"):
            try:
                compound._rdf_rows(np.array([2.0, 1.0, 0.5]), np.array([0.1, 0.5]), np.full(2, distortion))
            except SolverNoConverge:
                pass
    assert counted["calls"] == 2


class _Scripted:
    """A KKT whose evaluations are drawn, per row, from a generator seeded by
    the bits of that row's (level, multiplier): zeros of both signs, NaNs
    and infinities among them, so that every division by zero, NaN bracket
    and signed zero that the formulas allow shows up. Now and then a row
    reads both residuals 0, where it stops."""

    SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, -1e300)

    def __init__(self, sign):
        self.sign = sign

    def evaluate(self, level, mult):
        rows = []
        for bits in np.stack([level, mult], axis=1).view(np.uint64).tolist():
            rng = np.random.default_rng(bits)
            draws = rng.standard_normal(8) * np.exp(rng.uniform(-3.0, 3.0, 8))
            special = rng.random(8) < 0.08
            draws[special] = rng.choice(self.SPECIAL, int(special.sum()))
            if rng.random() < 0.5:
                draws[0] = mult[len(rows)]  # keep the multiplier as given
            if rng.random() < 0.03:
                draws[1:3] = 0.0  # at the root, so that some rows stop
            rows.append(draws)
        m, b, c, b_level, b_mult, c_level, c_mult, u = np.array(rows).T
        return m, b, c, (b_level, b_mult, c_level, c_mult), u[:, None]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_special_values_follow_numpy(counted, monkeypatch, sign):
    # each call returns step counts in [1, MAX_ITERATIONS] or raises
    # SolverNoConverge naming a row of the batch (``counted``): a division
    # by zero takes numpy's value, so no ZeroDivisionError escapes, and the
    # steps in Python floats warn nowhere
    monkeypatch.setattr(compound, "MAX_ITERATIONS", 40)
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        lo = np.exp(rng.uniform(-2.0, 0.0, n)) * rng.choice([1.0, 0.0, -0.0], n, p=[0.8, 0.1, 0.1])
        hi = lo + np.exp(rng.uniform(-1.0, 2.0, n))
        level = np.where(rng.random(n) < 0.2, lo, lo + rng.random(n) * (hi - lo))
        mult = np.where(rng.random(n) < 0.3, math.nan, rng.standard_normal(n))
        try:
            compound._kkt_newton(_Scripted(sign), level, mult, lo, hi)
        except SolverNoConverge:
            pass
    assert 0 < counted["raised"] < counted["calls"] == 60


@pytest.mark.parametrize("a", [1.5, -1.5, 0.0, -0.0, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("b", [0.0, -0.0, 2.0, math.inf, math.nan])
def test_divide_is_numpy_division(a, b):
    with np.errstate(all="ignore"):
        expected = np.float64(a) / np.float64(b)
    assert np.array([compound._divide(a, b)]).tobytes() == np.array([expected]).tobytes()
