import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import robust_shannon
from robust_shannon import (
    BwBall,
    ChannelMatrix,
    CompoundCapacityRequest,
    CompoundRdfRequest,
    SpdMatrix,
    compound,
    compound_capacity,
    compound_capacity_scalar,
    compound_rdf,
    compound_rdf_scalar,
    gaussian_capacity,
    gaussian_rdf,
    sweep_compound,
)
from robust_shannon.cli import emit, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, rows):
    rows = np.asarray(rows, dtype=float)
    path.write_text(json.dumps({"dim": rows.shape[0], "rows": rows.tolist()}))
    return str(path)


def test_scalar_compound_rdf(capsys):
    code, out, err = run_cli(
        capsys, "compound-rdf", "--sigma0-scalar", "1", "--radius", "1", "--distortion", "1"
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "r,budget,value_nats,worst_case_trace"
    fields = row.split(",")
    assert float(fields[2]) == pytest.approx(0.6931471805599453, abs=1e-12)


def test_cli_matches_library_bit_for_bit(capsys):
    code, out, _ = run_cli(
        capsys, "compound-rdf", "--sigma0-scalar", "2", "--radius", "0.5", "--distortion", "1.5"
    )
    assert code == 0
    value_field = out.strip().split("\n")[1].split(",")[2]
    library = compound_rdf(
        CompoundRdfRequest(BwBall(SpdMatrix.from_diag([4.0]), 0.5), 1.5)
    ).value_nats
    assert value_field == format(library, ".17g")


def test_rerun_is_byte_identical(capsys):
    argv = ["sweep", "--kind", "capacity", "--sigma0-scalar", "1",
            "--radii", "0,0.5,1", "--power", "0:4:9", "--seed", "3"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_shape_and_sorting(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "capacity", "--sigma0-scalar", "1",
        "--radii", "1,0.5,0", "--power", "0:10:5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 3 * 5
    keys = [(float(l.split(",")[0]), float(l.split(",")[1])) for l in lines[1:]]
    assert keys == sorted(keys)


def test_sweep_matches_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "capacity", "--sigma0-scalar", "1",
        "--radii", "0,2", "--power", "0:10:3",
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        r, power, value, _ = (float(x) for x in line.split(","))
        assert value == pytest.approx(0.5 * math.log1p(power / (1 + r) ** 2), abs=1e-9)


def test_json_output_has_diagnostics(capsys):
    code, out, _ = run_cli(
        capsys, "compound-capacity", "--sigma0-scalar", "1", "--radius", "0.5",
        "--power", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    entry = payload[0]
    assert entry["diagnostics"]["solver_path"] == "eigen-reduction"
    assert entry["value_nats"] == pytest.approx(0.5 * math.log1p(2 / 2.25), abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ("compound-rdf", "--sigma0-scalar", "1", "--radius", "0.5", "--distortion", "0.3"),
        ("compound-capacity", "--sigma0-scalar", "1", "--radius", "0.5", "--power", "2"),
        ("sweep", "--kind", "capacity", "--sigma0-scalar", "1", "--radii", "0,1", "--power", "2"),
        ("capacity", "--sigma0-scalar", "1", "--power", "2"),
    ],
)
def test_json_diagnostics_keys(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    for entry in json.loads(out):
        assert list(entry["diagnostics"]) == ["iterations", "solver_path", "jitter", "certificate_gap"]


def test_bits_units_column(capsys):
    code, out, _ = run_cli(
        capsys, "rdf", "--sigma0-scalar", "2", "--distortion", "1", "--units", "bits"
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "r,budget,value_nats,value_bits,worst_case_trace"
    fields = row.split(",")
    assert float(fields[3]) == pytest.approx(float(fields[2]) / math.log(2), rel=1e-15)
    assert float(fields[3]) == pytest.approx(1.0, abs=1e-12)  # (1/2) log2(4/1) = 1 bit


def test_matrix_file_roundtrip(tmp_path, capsys):
    path = write_matrix(tmp_path / "cov.json", [[1.0, 0.0], [0.0, 4.0]])
    code, out, _ = run_cli(capsys, "rdf", "--center", path, "--distortion", "2")
    assert code == 0
    value = float(out.strip().split("\n")[1].split(",")[2])
    assert value == pytest.approx(0.6931471805599453, abs=1e-12)


def test_asymmetric_matrix_rejected(tmp_path, capsys):
    path = write_matrix(tmp_path / "bad.json", [[1.0, 0.5], [0.0, 1.0]])
    code, _, err = run_cli(capsys, "rdf", "--center", path, "--distortion", "1")
    assert code == 2
    assert "asymmetry" in err


def test_mild_asymmetry_averaged(tmp_path, capsys):
    path = write_matrix(tmp_path / "mild.json", [[1.0, 1e-8], [0.0, 1.0]])
    code, _, _ = run_cli(capsys, "rdf", "--center", path, "--distortion", "0.5")
    assert code == 0


def test_channel_file(tmp_path, capsys):
    noise = write_matrix(tmp_path / "noise.json", [[1.0, 0.0], [0.0, 1.0]])
    channel = write_matrix(tmp_path / "h.json", [[2.0, 0.0], [0.0, 0.0]])
    code, out, _ = run_cli(
        capsys, "capacity", "--center", noise, "--channel", channel, "--power", "1"
    )
    assert code == 0
    value = float(out.strip().split("\n")[1].split(",")[2])
    assert value == pytest.approx(0.5 * math.log1p(4.0), abs=1e-12)


def test_missing_file_is_config_error(capsys):
    code, _, err = run_cli(capsys, "rdf", "--center", "/nonexistent.json", "--distortion", "1")
    assert code == 2
    assert "cannot read" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "rdf", "--sigma0-scalar", "1", "--distortion", "-1")
    assert code == 2
    assert "distortion" in err


def test_bad_flags_exit_code(capsys):
    assert run_cli(capsys, "rdf", "--sigma0-scalar", "1")[0] == 2  # missing --distortion
    assert run_cli(capsys, "unknown-command")[0] == 2
    assert run_cli(  # the solver tolerance is a constant, not a flag
        capsys, "compound-rdf", "--sigma0-scalar", "1", "--radius", "0.5",
        "--distortion", "1", "--solver-tol", "1e-6",
    )[0] == 2


SWEEP_RDF = ("sweep", "--kind", "rdf", "--sigma0-scalar", "1", "--radii", "0")
SWEEP_CAPACITY = ("sweep", "--kind", "capacity", "--sigma0-scalar", "1", "--radii", "0")


@pytest.mark.parametrize(
    "center_text, argv, message",
    [
        ("{not json", ("rdf", "--center", "FILE", "--distortion", "1"), "cannot parse"),
        ('{"rows": [[1.0]]}', ("rdf", "--center", "FILE", "--distortion", "1"),
         'expected an object with "dim" and "rows"'),
        ('{"dim": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]}',
         ("rdf", "--center", "FILE", "--distortion", "1"), "rows must form a 3x3 matrix"),
        (None, SWEEP_CAPACITY + ("--power", "0:1"), "grid spec must be start:stop:count"),
        (None, SWEEP_CAPACITY + ("--power", "0:1:0"), "grid count must be at least 1"),
        (None, ("rdf", "--sigma0-scalar=-1", "--distortion", "1"), "--sigma0-scalar must be positive"),
        (None, SWEEP_RDF, "sweep --kind rdf requires --distortion"),
        (None, SWEEP_CAPACITY, "sweep --kind capacity requires --power"),
    ],
    ids=["malformed_json", "no_dim_or_rows", "rows_dim_mismatch", "grid_two_fields",
         "grid_count_zero", "negative_sigma0", "sweep_no_distortion", "sweep_no_power"],
)
def test_rejected_input_exit_code(tmp_path, capsys, center_text, argv, message):
    path = tmp_path / "center.json"
    if center_text is not None:
        path.write_text(center_text)
    code, out, err = run_cli(capsys, *(str(path) if arg == "FILE" else arg for arg in argv))
    assert code == 2
    assert out == ""
    assert message in err


def test_emit_rejects_empty_rows():
    for fmt in ("csv", "json"):
        stream = io.StringIO()
        with pytest.raises(ValueError, match="nothing to emit"):
            emit([], fmt, "nats", stream)
        assert stream.getvalue() == ""


class _FailingStream:
    def write(self, text):
        raise OSError("device full")

    def flush(self):
        pass


def test_output_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FailingStream())
    code = main(["rdf", "--sigma0-scalar", "1", "--distortion", "0.5"])
    assert code == 4
    assert "error: output failed: device full" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["robust_shannon", "robust_shannon.cli"])
def test_module_entry_point_exit_code(module):
    src = os.path.dirname(os.path.dirname(robust_shannon.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", module, "rdf", "--sigma0-scalar", "1", "--distortion", "-1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert "distortion must be positive" in done.stderr


def test_missing_center_is_config_error(capsys):
    code, _, err = run_cli(capsys, "rdf", "--distortion", "1")
    assert code == 2
    assert "center" in err


def test_verify_gelbrich(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "gelbrich", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("OK")


def test_verify_dominance(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "dominance", "--seed", "1")
    assert code == 0
    assert "dominance rdf" in out and "dominance capacity" in out


def test_verify_deterministic(capsys):
    argv = ["verify", "--suite", "gelbrich", "--seed", "5"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_sweep_no_convergence_reports_iterations(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(compound, "MAX_ITERATIONS", 2)
    monkeypatch.setattr(compound, "VALUE_STAGNATION_TOL", 0.0)
    center = write_matrix(tmp_path / "center.json", [[1.0, 0.3], [0.3, 4.0]])
    code, _, err = run_cli(
        capsys, "sweep", "--kind", "rdf", "--center", center, "--radii", "0.5",
        "--distortion", "1",
    )
    assert code == 3
    assert "after 2 iterations" in err
    assert "grid point 0" in err


def test_general_channel_no_convergence_reports_iterations(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(compound, "MAX_ITERATIONS", 2)
    center = write_matrix(tmp_path / "center.json", [[1.0, 0.3], [0.3, 4.0]])
    channel = write_matrix(tmp_path / "h.json", [[1.0, 0.4], [-0.3, 0.8]])
    code, out, err = run_cli(
        capsys, "compound-capacity", "--center", center, "--channel", channel,
        "--radius", "0.5", "--power", "1",
    )
    assert code == 3
    assert out == ""
    assert "after 2 iterations" in err


BALL = BwBall(SpdMatrix([[1.0, 0.3], [0.3, 4.0]]), 0.5)


def _library_rejects(call):
    def check(budget, capsys):
        with pytest.raises(ValueError, match="finite"):
            call(budget)
    return check


def _cli_rejects(*argv):
    def check(budget, capsys):
        # --flag=value, so that argparse does not read "-inf" as an option
        code, _, err = run_cli(capsys, *argv[:-1], f"{argv[-1]}={budget!r}")
        assert code == 2
        assert "finite" in err
    return check


BUDGET_ENTRY_POINTS = {
    "gaussian_rdf": _library_rejects(lambda b: gaussian_rdf(BALL.center, b)),
    "gaussian_capacity": _library_rejects(lambda b: gaussian_capacity(np.eye(2), BALL.center, b)),
    "compound_rdf": _library_rejects(lambda b: compound_rdf(CompoundRdfRequest(BALL, b))),
    "compound_capacity": _library_rejects(
        lambda b: compound_capacity(CompoundCapacityRequest(BALL, ChannelMatrix(np.eye(2)), b))
    ),
    "compound_rdf_scalar": _library_rejects(lambda b: compound_rdf_scalar(1.0, 0.5, b)),
    "compound_capacity_scalar": _library_rejects(lambda b: compound_capacity_scalar(1.0, 0.5, b)),
    "sweep_compound": _library_rejects(
        lambda b: sweep_compound("rdf", BALL.center, [(0.5, 1.0), (0.5, b)])
    ),
    "cli_rdf": _cli_rejects("rdf", "--sigma0-scalar", "1", "--distortion"),
    "cli_capacity": _cli_rejects("capacity", "--sigma0-scalar", "1", "--power"),
    "cli_compound_rdf": _cli_rejects(
        "compound-rdf", "--sigma0-scalar", "1", "--radius", "0.5", "--distortion"
    ),
    "cli_sweep": _cli_rejects(
        "sweep", "--kind", "capacity", "--sigma0-scalar", "1", "--radii", "0,0.5", "--power"
    ),
}


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(BUDGET_ENTRY_POINTS))
def test_non_finite_budget_rejected(entry, budget, capsys):
    BUDGET_ENTRY_POINTS[entry](budget, capsys)


def test_empty_radii_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--kind", "rdf", "--sigma0-scalar", "1",
        "--radii", "", "--distortion", "1",
    )
    assert code == 2
    assert "empty" in err


def test_sweep_bad_budget_reports_grid_point(capsys):
    # first budget valid (base request builds); the bad point fails with its
    # position in the sorted grid attached
    code, _, err = run_cli(
        capsys, "sweep", "--kind", "rdf", "--sigma0-scalar", "1",
        "--radii", "0", "--distortion", "1:-1:2",
    )
    assert code == 2
    assert "grid point 0 (r=0.0, budget=-1.0)" in err
    # a bad first budget keeps its grid point too
    code, _, err = run_cli(
        capsys, "sweep", "--kind", "rdf", "--sigma0-scalar", "1",
        "--radii", "0.5", "--distortion", "0:1:3",
    )
    assert code == 2
    assert "grid point 0 (r=0.5, budget=0.0)" in err
    code, _, err = run_cli(
        capsys, "sweep", "--kind", "capacity", "--sigma0-scalar", "1",
        "--radii", "0.5", "--power", "nan:1:3",
    )
    assert code == 2
    assert "grid point 0 (r=0.5, budget=nan)" in err


def test_sweep_json_carries_diagnostics(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--kind", "capacity", "--sigma0-scalar", "1",
        "--radii", "0,0.5", "--power", "1", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["diagnostics"]["iterations"] for row in rows][0] == 0
    assert rows[1]["diagnostics"]["iterations"] > 0
    assert [row["diagnostics"]["solver_path"] for row in rows] == ["classical", "eigen-reduction"]
    for row in rows:
        assert row["diagnostics"]["jitter"] == 0.0
        assert isinstance(row["diagnostics"]["certificate_gap"], float)


def test_json_reports_jitter_and_certificate(tmp_path, capsys):
    singular = write_matrix(tmp_path / "singular.json", [[0.0, 0.0], [0.0, 1.0]])
    channel = write_matrix(tmp_path / "h.json", [[1.0, 0.4], [-0.3, 0.8]])
    argv = ["compound-capacity", "--center", singular, "--channel", channel,
            "--radius", "0.5", "--power", "1"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    diag = json.loads(out)[0]["diagnostics"]
    assert diag["solver_path"] == "projected-gradient"
    assert diag["jitter"] == pytest.approx(0.5e-12, rel=1e-12)
    assert 0.0 <= diag["certificate_gap"] < 1e-3
    code, csv_out, _ = run_cli(capsys, *argv)
    assert csv_out.split("\n")[0] == "r,budget,value_nats,worst_case_trace"
    assert len(csv_out.strip().split("\n")[1].split(",")) == 4
    code, out, _ = run_cli(
        capsys, "capacity", "--center", singular, "--channel", channel, "--power", "1",
        "--format", "json",
    )
    assert json.loads(out)[0]["diagnostics"]["jitter"] == diag["jitter"]


@pytest.mark.parametrize("radius", ["1e-155", "1e-160", "1e-200"])
def test_tiny_radius_reports_center_value(capsys, radius):
    for command, budget in (("compound-rdf", "--distortion"), ("compound-capacity", "--power")):
        code, at_center, _ = run_cli(
            capsys, command, "--sigma0-scalar", "1", "--radius", "0", budget, "0.5"
        )
        code, out, err = run_cli(
            capsys, command, "--sigma0-scalar", "1", "--radius", radius, budget, "0.5"
        )
        assert code == 0, err
        value = float(out.strip().split("\n")[1].split(",")[2])
        expected = float(at_center.strip().split("\n")[1].split(",")[2])
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
