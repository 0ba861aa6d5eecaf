"""The KKT driver steps a small batch's rows one by one in Python floats
(``_float_steps``) and a large batch in lock step in numpy arrays
(``_array_steps``); this pins the two to each other, bit for bit.

Every ``_kkt_newton`` call of the batteries below runs both on the same
arguments and compares u, the evaluation counts, and on failure the
message, the diagnostics and ``_row``. Warnings are errors (pyproject), so a
warning in either one's bookkeeping fails the comparison too.
"""

import math

import numpy as np
import pytest

from robust_shannon import SolverNoConverge, SpdMatrix, sweep_compound
from robust_shannon import compound


def _outcome(steps, kkt, args):
    try:
        return steps(kkt, *(a.copy() for a in args))
    except SolverNoConverge as exc:
        return exc


@pytest.fixture
def compared(monkeypatch):
    """Runs both step kernels on every ``_kkt_newton`` call; counts the
    calls, the rows and the calls that raised."""
    counts = {"calls": 0, "rows": 0, "raised": 0}

    def both(kkt, *args):
        got, expected = _outcome(compound._float_steps, kkt, args), _outcome(compound._array_steps, kkt, args)
        counts["calls"] += 1
        counts["rows"] += args[0].size
        if isinstance(expected, SolverNoConverge):
            assert isinstance(got, SolverNoConverge)
            assert str(got) == str(expected)
            assert got._row == expected._row
            assert repr(got.diagnostics) == repr(expected.diagnostics)
            counts["raised"] += 1
            raise got
        assert not isinstance(got, SolverNoConverge), str(got)
        (u, steps), (u_ref, steps_ref) = got, expected
        assert u.tobytes() == u_ref.tobytes()
        assert steps.dtype == steps_ref.dtype and steps.tolist() == steps_ref.tolist()
        return got

    monkeypatch.setattr(compound, "_kkt_newton", both)
    return counts


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
def test_sweep_like_grids(compared, kind):
    rng = np.random.default_rng(2121)
    for d in (1, 4, 16) * 3:
        q = _rotation(rng, d)
        center = SpdMatrix((q * np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))) @ q.T)
        sweep_compound(kind, center, _sweep_grid(center.trace, kind))
    assert compared["calls"] == 9 and compared["rows"] == 9 * 24


def _dense_grid(total, kind):
    lo, hi = (0.05, 0.8) if kind == "rdf" else (0.1, 2.0)
    return [
        (f * math.sqrt(total), float(b))
        for f in np.linspace(0.02, 0.5, 12) for b in np.linspace(lo * total, hi * total, 10)
    ]


@pytest.mark.parametrize("kind", ["rdf", "capacity"])
def test_dense_radius_sweeps(compared, kind):
    # 120 rows a sweep, more than _FLOAT_ROWS
    rng = np.random.default_rng(4747)
    for d in (1, 4, 16):
        q = _rotation(rng, d)
        center = SpdMatrix((q * np.exp(rng.uniform(math.log(0.5), math.log(2.0), d))) @ q.T)
        sweep_compound(kind, center, _dense_grid(center.trace, kind))
    assert compared["calls"] == 3 and compared["rows"] == 3 * 120


def test_batch_size_picks_the_steps(monkeypatch):
    taken = []
    for name in ("_float_steps", "_array_steps"):
        steps = getattr(compound, name)
        monkeypatch.setattr(compound, name, lambda *args, name=name, steps=steps: taken.append(name) or steps(*args))
    center = SpdMatrix(np.diag([2.0, 1.0, 0.5, 0.25]))
    for grid in (_sweep_grid(center.trace, "rdf"), _dense_grid(center.trace, "rdf")):
        sweep_compound("rdf", center, grid)
    assert taken == ["_float_steps", "_array_steps"]
    assert 24 <= compound._FLOAT_ROWS < 120


@pytest.mark.parametrize("kind", ["rdf", "capacity"])
def test_rank_deficient_rotated_centers(compared, kind):
    # the RDF's hard case: modes with s = 0 share the radius at omega = 0
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        g = rng.standard_normal((d, int(rng.integers(1, d))))
        center = SpdMatrix(g @ g.T)
        total = center.trace
        grid = [(f * math.sqrt(total), b * total) for f in (0.01, 0.1, 0.5) for b in (0.01, 0.1, 0.5)]
        sweep_compound(kind, center, grid)
    assert compared["calls"] == 40


def test_ill_conditioned_and_repeated_spectra(compared):
    rng = np.random.default_rng(3)
    spectra = [np.sort(np.exp(rng.uniform(math.log(1e-6), 0.0, int(rng.integers(2, 17)))))[::-1] for _ in range(30)]
    spectra += [np.array([2.0, 2.0, 2.0, 1.0, 1.0, 0.5]), np.array([1.0] * 5), np.array([3.0, 1e-9, 1e-9, 0.0, 0.0])]
    for vals in spectra:
        radius, distortion, power = _rows(vals, rng)
        s = np.sqrt(vals)
        compound._rdf_rows(vals, radius, distortion)
        compound._capacity_rows(s[s > 0.0], np.ones(int((s > 0.0).sum())), radius, power)
    assert compared["calls"] == 2 * len(spectra)


def test_commuting_channels(compared):
    # squared channel weights other than one, dead modes among them
    rng = np.random.default_rng(11)
    for i in range(30):
        d = 2 + i % 6
        s = np.exp(rng.uniform(math.log(0.1), math.log(3.0), d))
        w = np.exp(rng.uniform(math.log(0.05), math.log(20.0), d))
        w[: i % 3] = 0.0
        radius, _, power = _rows(s * s, rng)
        compound._capacity_rows(s, w, radius, power)
    assert compared["calls"] == 30


def test_rows_that_run_out_of_evaluations(compared, monkeypatch):
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
    assert failed == compared["raised"] == 10


def test_budgets_below_the_float_range(compared, monkeypatch):
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
    assert compared["calls"] == 2


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
def test_special_values_follow_numpy(compared, monkeypatch, sign):
    # numpy warns where it divides by zero or compares NaNs; the values are
    # what is compared here, so its warnings are silenced
    monkeypatch.setattr(compound, "MAX_ITERATIONS", 40)
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        lo = np.exp(rng.uniform(-2.0, 0.0, n)) * rng.choice([1.0, 0.0, -0.0], n, p=[0.8, 0.1, 0.1])
        hi = lo + np.exp(rng.uniform(-1.0, 2.0, n))
        level = np.where(rng.random(n) < 0.2, lo, lo + rng.random(n) * (hi - lo))
        mult = np.where(rng.random(n) < 0.3, math.nan, rng.standard_normal(n))
        with np.errstate(all="ignore"):
            try:
                compound._kkt_newton(_Scripted(sign), level, mult, lo, hi)
            except SolverNoConverge:
                pass
    assert 0 < compared["raised"] < compared["calls"] == 60


@pytest.mark.parametrize("a", [1.5, -1.5, 0.0, -0.0, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("b", [0.0, -0.0, 2.0, math.inf, math.nan])
def test_divide_is_numpy_division(a, b):
    with np.errstate(all="ignore"):
        expected = np.float64(a) / np.float64(b)
    assert np.array([compound._divide(a, b)]).tobytes() == np.array([expected]).tobytes()
