import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

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
            "--radii", "0,0.5,1", "--power", "0:4:9"]
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
        (None, ("rdf", "--sigma0-scalar", "1e200", "--distortion", "1"), "overflows when squared"),
        (None, SWEEP_RDF, "sweep --kind rdf requires --distortion"),
        (None, SWEEP_CAPACITY, "sweep --kind capacity requires --power"),
        (None, ("capacity", "--sigma0-scalar", "1e-155", "--power", "1"), "gain is not finite"),
        (None, ("capacity", "--sigma0-scalar", "1", "--channel", "", "--power", "1"), "cannot read"),
        # the center sources are exclusive, whether or not the file exists
        (None, ("rdf", "--center", "FILE", "--sigma0-scalar", "1", "--distortion", "0.5"),
         "not allowed with argument --center"),
        ('{"dim": 1, "rows": [[1.0]]}',
         ("rdf", "--center", "FILE", "--sigma0-scalar", "1", "--distortion", "0.5"),
         "not allowed with argument --center"),
        # a sweep rejects the other kind's flags
        (None, SWEEP_RDF + ("--distortion", "0.5", "--power", "3"), "sweep --kind rdf does not take --power"),
        (None, SWEEP_RDF + ("--distortion", "0.5", "--channel", "/nonexistent.json"),
         "sweep --kind rdf does not take --channel"),
        (None, SWEEP_CAPACITY + ("--power", "1", "--distortion", "7"),
         "sweep --kind capacity does not take --distortion"),
        # a matrix file holds a positive integer dim and dim x dim JSON numbers, or is
        # rejected by name: rows {"a": 1} raised TypeError (exit 1), "2" and true read as numbers
        ('{"dim": 1, "rows": {"a": 1}}', ("rdf", "--center", "FILE", "--distortion", "1"),
         "FILE: rows must form a 1x1 matrix of numbers in the float range"),
        ('{"dim": 2, "rows": [[1.0, 0.0], 7]}', ("rdf", "--center", "FILE", "--distortion", "1"),
         "FILE: rows must form a 2x2 matrix of numbers in the float range"),
        ('{"dim": 1, "rows": [["2"]]}', ("rdf", "--center", "FILE", "--distortion", "1"),
         "FILE: rows must form a 1x1 matrix of numbers in the float range"),
        ('{"dim": 1, "rows": [[true]]}', ("rdf", "--center", "FILE", "--distortion", "1"),
         "FILE: rows must form a 1x1 matrix of numbers in the float range"),
        ('{"dim": 1, "rows": [[null]]}', ("rdf", "--center", "FILE", "--distortion", "1"),
         "FILE: rows must form a 1x1 matrix of numbers in the float range"),
        ('{"dim": true, "rows": [[1.0]]}', ("rdf", "--center", "FILE", "--distortion", "1"),
         'FILE: "dim" must be a positive integer, got true'),
        ('{"dim": 1.0, "rows": [[1.0]]}', ("rdf", "--center", "FILE", "--distortion", "1"),
         'FILE: "dim" must be a positive integer, got 1.0'),
        ('{"dim": 0, "rows": []}', ("rdf", "--center", "FILE", "--distortion", "1"),
         'FILE: "dim" must be a positive integer, got 0'),
        ('{"dim": 1, "rows": [[1%s]]}' % ("0" * 400), ("rdf", "--center", "FILE", "--distortion", "1"),
         "FILE: rows must form a 1x1 matrix of numbers in the float range"),
        ('{"dim": 1, "rows": [[true]]}',
         ("capacity", "--sigma0-scalar", "1", "--channel", "FILE", "--power", "1"),
         "FILE: rows must form a 1x1 matrix of numbers in the float range"),
    ],
    ids=["malformed_json", "no_dim_or_rows", "rows_dim_mismatch", "grid_two_fields",
         "grid_count_zero", "negative_sigma0", "overflowing_sigma0", "sweep_no_distortion",
         "sweep_no_power", "subnormal_noise", "empty_channel_path", "center_and_sigma0_missing_file",
         "center_and_sigma0_valid_file", "sweep_rdf_power", "sweep_rdf_channel",
         "sweep_capacity_distortion", "rows_object", "row_not_a_list", "string_entry", "bool_entry",
         "null_entry", "bool_dim", "float_dim", "zero_dim", "integer_beyond_float_range",
         "bool_channel_entry"],
)
def test_rejected_input_exit_code(tmp_path, capsys, center_text, argv, message):
    path = tmp_path / "center.json"
    if center_text is not None:
        path.write_text(center_text)
    code, out, err = run_cli(capsys, *(str(path) if arg == "FILE" else arg for arg in argv))
    assert code == 2
    assert out == ""
    assert message.replace("FILE", str(path)) in err


def test_subnormal_distortion_exits_2(capsys):
    # it ran 10000 KKT evaluations after overflow warnings and exited 3
    argv = ("compound-rdf", "--sigma0-scalar", "1", "--radius", "0.1", "--distortion", "1e-310")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "distortion 1e-310 is too small" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (SWEEP_CAPACITY + ("--power", "0:inf:3"), "--power"),
        (SWEEP_CAPACITY + ("--power=-1e308:1e308:3",), "--power"),
        (SWEEP_CAPACITY + ("--power=-inf:1:1",), "--power"),
        (SWEEP_CAPACITY + ("--power", "nan:1:3"), "--power"),
        (SWEEP_RDF + ("--distortion", "1:inf:2"), "--distortion"),
        (SWEEP_RDF + ("--distortion=-1.7e308:1.7e308:1",), "--distortion"),
    ],
    ids=["stop_inf", "span_overflows", "start_minus_inf", "start_nan", "distortion_stop_inf",
         "distortion_span_overflows_one_point"],
)
def test_grid_ends_beyond_the_float_range_exit_2(capsys, argv, flag):
    # they emitted numpy RuntimeWarnings and blamed grid point 0 for a budget of nan
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: grid ends must be finite")


def test_grid_ends_beyond_the_float_range_warn_nothing():
    src = os.path.dirname(os.path.dirname(robust_shannon.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "robust_shannon", *SWEEP_CAPACITY, "--power", "0:inf:3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "--power" in done.stderr and "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize("command", ["capacity", "compound-rdf", "sweep"])
def test_sigma0_whose_square_underflows_exits_2(capsys, command):
    # capacity blamed a zero trace, and compound-rdf solved around a zero center
    argv = {
        "capacity": ("capacity", "--sigma0-scalar", "1e-200", "--power", "1"),
        "compound-rdf": ("compound-rdf", "--sigma0-scalar", "1e-200", "--radius", "1", "--distortion", "1"),
        "sweep": ("sweep", "--kind", "capacity", "--sigma0-scalar", "1e-170", "--radii", "0,1", "--power", "1"),
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--sigma0-scalar" in err and "underflows to 0 when squared" in err


SWEEP_RDF_TWO_RADII = ("sweep", "--kind", "rdf", "--sigma0-scalar", "1", "--radii", "0,0.5")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--seed", "-1"), "--seed"),
        (("verify", "--seed", "x"), "--seed"),
        (SWEEP_RDF_TWO_RADII + ("--distortion", "0:1:2.5"), "--distortion"),
        (SWEEP_RDF_TWO_RADII + ("--distortion", "abc"), "--distortion"),
        (SWEEP_RDF_TWO_RADII + ("--distortion", "0:x:3"), "--distortion"),
        (("sweep", "--kind", "rdf", "--sigma0-scalar", "1", "--radii", "0,x", "--distortion", "1"),
         "--radii"),
        (SWEEP_CAPACITY + ("--power", "1:2:0"), "--power"),
        (SWEEP_RDF_TWO_RADII + ("--distortion", "0.1:1:100000000000"), "--distortion"),
        (("rdf", "--sigma0-scalar", "nan", "--distortion", "1"), "--sigma0-scalar"),
        (("rdf", "--sigma0-scalar", "inf", "--distortion", "1"), "--sigma0-scalar"),
    ],
    ids=["negative_seed", "seed_not_int", "grid_count_not_int", "budget_not_number",
         "grid_stop_not_number", "radius_not_number", "grid_count_zero", "grid_too_large",
         "sigma0_nan", "sigma0_inf"],
)
def test_rejections_name_their_flag(monkeypatch, capsys, argv, flag):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("linspace")

    # the grid that does not fit raises where the real one would, without allocating
    monkeypatch.setattr(np, "linspace", out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert flag in err


SOLVE_COMMANDS = {
    "rdf": ("rdf", "--sigma0-scalar", "1", "--distortion", "0.5"),
    "capacity": ("capacity", "--sigma0-scalar", "1", "--power", "1"),
    "compound_rdf": ("compound-rdf", "--sigma0-scalar", "1", "--radius", "0.5", "--distortion", "0.5"),
    "compound_capacity": ("compound-capacity", "--sigma0-scalar", "1", "--radius", "0.5", "--power", "1"),
    "sweep": SWEEP_CAPACITY + ("--power", "1"),
}
REJECTED_FLAGS = {
    **{f"{name}_seed": argv + ("--seed", "1") for name, argv in SOLVE_COMMANDS.items()},
    "verify_format": ("verify", "--format", "json"),
    "verify_units": ("verify", "--units", "bits"),
    "rdf_channel": SOLVE_COMMANDS["rdf"] + ("--channel", "FILE"),
    "compound_rdf_channel": SOLVE_COMMANDS["compound_rdf"] + ("--channel", "FILE"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_FLAGS))
def test_flags_a_command_would_not_read_are_rejected(tmp_path, capsys, case):
    # every accepted flag changes the output; the rest exit 2 before any work
    channel = write_matrix(tmp_path / "h.json", [[1.0]])
    code, out, err = run_cli(capsys, *(channel if arg == "FILE" else arg for arg in REJECTED_FLAGS[case]))
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def _readme_cli_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("robust-shannon ")]
    assert examples, "README's Command line block lists no examples"
    return examples


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys, argv):
    write_matrix(tmp_path / "cov.json", [[1.0, 0.2], [0.2, 4.0]])
    monkeypatch.chdir(tmp_path)  # the examples name cov.json relative to the working directory
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out


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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only empirical_w2 needs the assignment solver, so solve commands do not import it
    src = os.path.dirname(os.path.dirname(robust_shannon.__file__))
    code = "import robust_shannon.cli, sys; print('scipy.optimize' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


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


def test_verify_gelbrich_at_the_calibrated_size(capsys):
    # seed 14 fails at n = 256; the CLI samples MAX_EXACT_ASSIGNMENT points, where
    # GELBRICH_SLACK was calibrated
    code, out, _ = run_cli(capsys, "verify", "--suite", "gelbrich", "--seed", "14")
    assert code == 0
    assert out.strip().split("\n")[-1] == "OK: suite=gelbrich seed=14"


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
    monkeypatch.setattr(compound, "MAX_ITERATIONS", 1)
    monkeypatch.setattr(compound, "VALUE_STAGNATION_TOL", 0.0)
    center = write_matrix(tmp_path / "center.json", [[1.0, 0.3], [0.3, 4.0]])
    code, _, err = run_cli(
        capsys, "sweep", "--kind", "rdf", "--center", center, "--radii", "0.5",
        "--distortion", "1",
    )
    assert code == 3
    assert "after 1 iterations" in err
    assert "grid point 0" in err


def test_capacity_at_huge_scale_matches_closed_form(capsys, tmp_path):
    # at unit scale nothing overflows: no warning, and the scalar closed form
    center = write_matrix(tmp_path / "center.json", [[1e300]])
    code, out, err = run_cli(
        capsys, "compound-capacity", "--center", center, "--radius", "1e150", "--power", "1e300",
    )
    assert (code, err) == (0, "")
    value = float(out.strip().split("\n")[1].split(",")[2])
    expected = compound_capacity_scalar(1e150, 1e150, 1e300)
    assert value == pytest.approx(expected, rel=1e-14, abs=0.0)


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
        "--radii", "0.5", "--power", "nan",
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
    assert diag["certificate_gap"] <= 1e-10 * max(1.0, json.loads(out)[0]["value_nats"])
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
