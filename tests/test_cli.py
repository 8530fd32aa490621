"""Command line interface tests."""

import json
import math

import numpy as np
import pytest

from gfrag.cli import RunConfig, emit_csv, main, run
from gfrag.errors import InvalidInputError

BINARY_DOC = {
    "r": 1.0,
    "a": {"type": "linear", "c0": 0.0, "c1": 1.0},
    "kernel": {"type": "uniform_binary"},
    "beta": {"type": "linear", "c0": 0.5, "c1": 0.5},
    "m": 2.0,
    "bc_convention": "value",
    "x_max": 30.0,
    "support": {
        "supp_a": [[0.0, "inf"]],
        "envelope": [
            {"left": 0.0, "right": 1.0, "value_left": 0.0, "value_right": 0.0}
        ],
        "beta_sup": "inf",
        "tail": {"kind": "envelope_extends"},
    },
}

GAP_SUPPORT = {
    "supp_a": [[2.0, "inf"]],
    "envelope": [{"left": 2.0, "right": 4.0, "value_left": 1.0, "value_right": 2.0}],
    "beta_sup": 0.5,
    "tail": {"kind": "envelope_extends"},
}


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def binary_model_file(tmp_path, **overrides):
    doc = dict(BINARY_DOC)
    doc.update(overrides)
    return write_model(tmp_path, doc)


def read_csv(path):
    text = path.read_bytes().decode("utf-8")
    lines = [ln for ln in text.split("\r\n") if ln]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows, text


class TestRunConfig:
    def test_unknown_command_rejected(self):
        with pytest.raises(InvalidInputError):
            RunConfig(command="explode", model_path="x.json")

    def test_too_few_cells_rejected(self):
        with pytest.raises(InvalidInputError):
            RunConfig(command="eigen", model_path="x.json", n_cells=4)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(InvalidInputError):
            RunConfig(command="aeg", model_path="x.json", t_end=0.0)


class TestEmitCsv:
    def test_header_only_when_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(path, ("t", "deviation"), [])
        assert path.read_bytes() == b"t,deviation\r\n"

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "vals.csv"
        vals = [math.pi, 1.0 / 3.0, 2e-17, 123456.789012345678]
        emit_csv(path, ("x",), [(v,) for v in vals])
        _, rows, _ = read_csv(path)
        assert [r[0] for r in rows] == vals

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "x.csv"
        emit_csv(path, ("a", "b"), [(1.0, 2.0)])
        assert path.read_bytes().count(b"\r\n") == 2


class TestValidateCommand:
    def test_reference_model_passes(self, tmp_path, capsys):
        cfg = RunConfig("validate", binary_model_file(tmp_path), output_dir=str(tmp_path))
        assert run(cfg) == 0
        out = capsys.readouterr().out
        assert "assumptions pass" in out
        assert "moment_defect_liminf" in out

    def test_vanishing_split_fraction_fails(self, tmp_path, capsys):
        path = binary_model_file(
            tmp_path,
            kernel={"type": "shrinking_binary", "eps": {"type": "inverse", "scale": 1.0}},
        )
        cfg = RunConfig("validate", path, output_dir=str(tmp_path))
        assert run(cfg) == 1
        assert "assumptions fail" in capsys.readouterr().out


class TestSolveClosedCommand:
    def test_writes_snapshot_and_moments(self, tmp_path):
        cfg = RunConfig(
            "solve-closed",
            binary_model_file(tmp_path),
            output_dir=str(tmp_path),
            n_cells=300,
            t_end=1.0,
        )
        assert run(cfg) == 0
        header, rows, _ = read_csv(tmp_path / "snapshot.csv")
        assert header == ["x", "u", "u_normalized"]
        assert len(rows) == 300
        xs = np.array([r[0] for r in rows])
        u_norm = np.array([r[2] for r in rows])
        dx = xs[1] - xs[0]
        assert np.sum(u_norm) * dx == pytest.approx(1.0, abs=1e-6)
        mh, mrows, _ = read_csv(tmp_path / "moments.csv")
        assert mh == ["t", "M0", "M1"]
        assert len(mrows) == 11
        assert mrows[0][0] == 0.0
        assert all(r[1] > 0 and r[2] > 0 for r in mrows)

    def test_moments_grow_at_dominant_rate(self, tmp_path):
        cfg = RunConfig(
            "solve-closed",
            binary_model_file(tmp_path),
            output_dir=str(tmp_path),
            n_cells=300,
            t_end=2.0,
        )
        assert run(cfg) == 0
        _, rows, _ = read_csv(tmp_path / "moments.csv")
        total = rows[-1][1] + rows[-1][2]
        start = rows[0][1] + rows[0][2]
        rate = math.log(total / start) / 2.0
        assert rate == pytest.approx(1.5, abs=0.1)

    def test_non_binary_model_rejected(self, tmp_path, capsys):
        path = binary_model_file(tmp_path, a={"type": "constant", "c": 1.0})
        cfg = RunConfig("solve-closed", path, output_dir=str(tmp_path))
        assert run(cfg) == 1
        assert "solve-closed needs" in capsys.readouterr().err


class TestSolvePdeCommand:
    def test_writes_snapshot_and_moments(self, tmp_path):
        cfg = RunConfig(
            "solve-pde",
            binary_model_file(tmp_path),
            output_dir=str(tmp_path),
            n_cells=400,
            t_end=0.5,
        )
        assert run(cfg) == 0
        header, rows, _ = read_csv(tmp_path / "snapshot.csv")
        assert header == ["x", "u", "u_normalized"]
        assert all(r[1] >= 0.0 for r in rows)
        mh, mrows, _ = read_csv(tmp_path / "moments.csv")
        assert mh == ["t", "M0", "M1"]
        assert len(mrows) == 11
        assert mrows[0][0] == 0.0
        assert mrows[-1][0] == pytest.approx(0.5)
        # counts increase: splitting and renewal create particles
        assert mrows[-1][1] > mrows[0][1]

    def test_agrees_with_closed_route(self, tmp_path):
        path = binary_model_file(tmp_path)
        cfg_pde = RunConfig(
            "solve-pde", path, output_dir=str(tmp_path / "p"), n_cells=800, t_end=1.0
        )
        cfg_cf = RunConfig(
            "solve-closed", path, output_dir=str(tmp_path / "c"), n_cells=800, t_end=1.0
        )
        assert run(cfg_pde) == 0
        assert run(cfg_cf) == 0
        _, pde_rows, _ = read_csv(tmp_path / "p" / "moments.csv")
        _, cf_rows, _ = read_csv(tmp_path / "c" / "moments.csv")
        for p_row, c_row in zip(pde_rows, cf_rows):
            assert p_row[0] == pytest.approx(c_row[0], abs=1e-12)
            assert p_row[1] == pytest.approx(c_row[1], rel=2e-2)
            assert p_row[2] == pytest.approx(c_row[2], rel=2e-2)


class TestEigenCommand:
    def test_binary_eigenvalue_and_csv(self, tmp_path, capsys):
        cfg = RunConfig(
            "eigen", binary_model_file(tmp_path), output_dir=str(tmp_path), n_cells=500
        )
        assert run(cfg) == 0
        out = capsys.readouterr().out
        s0 = float(out.split("s0 = ")[1].split()[0])
        assert s0 == pytest.approx(1.5, abs=0.01)
        header, rows, _ = read_csv(tmp_path / "eigen.csv")
        assert header == ["x", "v", "w"]
        assert len(rows) == 500
        assert all(r[2] > 0 for r in rows)

    def test_reruns_byte_identical(self, tmp_path):
        path = binary_model_file(tmp_path)
        cfg1 = RunConfig("eigen", path, output_dir=str(tmp_path / "r1"), n_cells=200)
        cfg2 = RunConfig("eigen", path, output_dir=str(tmp_path / "r2"), n_cells=200)
        assert run(cfg1) == 0
        assert run(cfg2) == 0
        b1 = (tmp_path / "r1" / "eigen.csv").read_bytes()
        b2 = (tmp_path / "r2" / "eigen.csv").read_bytes()
        assert b1 == b2

    def test_power_law_adjoint_series_is_not_stopped_early(self, tmp_path, capsys):
        # the max norm of the adjoint series increments grows over terms 2-5
        # on this model before the series converges; the dual X_m norm that
        # guards contraction falls from the first term
        doc = {
            "r": 0.8048558799287859,
            "a": {"type": "linear", "c0": 0.0, "c1": 1.4655247473489097},
            "kernel": {"type": "power_law", "nu": 1.8410379140205155},
            "beta": {"type": "linear", "c0": 0.22472968865378679, "c1": 0.2777776532355057},
            "m": 2.0,
            "x_max": 30.0,
        }
        cfg = RunConfig("eigen", write_model(tmp_path, doc), output_dir=str(tmp_path), n_cells=200)
        assert run(cfg) == 0
        out = capsys.readouterr().out
        assert math.isfinite(float(out.split("s0 = ")[1].split()[0]))
        _, rows, _ = read_csv(tmp_path / "eigen.csv")
        assert len(rows) == 200
        assert all(r[1] > 0 and r[2] > 0 for r in rows)


class TestIrreducibleCommand:
    def test_uniform_binary_support_decision(self, tmp_path, capsys):
        cfg = RunConfig("irreducible", binary_model_file(tmp_path), output_dir=str(tmp_path))
        assert run(cfg) == 0
        out = capsys.readouterr().out
        assert "c_bar = 0" in out
        assert "IRREDUCIBLE" in out

    def test_gap_support_not_irreducible_still_exits_zero(self, tmp_path, capsys):
        path = binary_model_file(tmp_path, support=GAP_SUPPORT)
        cfg = RunConfig("irreducible", path, output_dir=str(tmp_path))
        assert run(cfg) == 0
        out = capsys.readouterr().out
        assert "c_bar = 1" in out
        assert "NOT_IRREDUCIBLE" in out

    def test_missing_support_key_fails(self, tmp_path, capsys):
        doc = {k: v for k, v in BINARY_DOC.items() if k != "support"}
        cfg = RunConfig("irreducible", write_model(tmp_path, doc), output_dir=str(tmp_path))
        assert run(cfg) == 1
        assert "support" in capsys.readouterr().err


class TestAegCommand:
    def test_binary_route(self, tmp_path, capsys):
        cfg = RunConfig(
            "aeg",
            binary_model_file(tmp_path, x_max=15.0),
            output_dir=str(tmp_path),
            n_cells=600,
            t_end=2.0,
        )
        assert run(cfg) == 0
        out = capsys.readouterr().out
        assert "deviations decreasing" in out
        rate = float(out.split("fitted_rate = ")[1].split()[0])
        assert rate == pytest.approx(2.5, abs=0.5)
        header, rows, _ = read_csv(tmp_path / "aeg.csv")
        assert header == ["t", "deviation"]
        assert len(rows) == 4
        devs = [r[1] for r in rows]
        assert all(b < a for a, b in zip(devs, devs[1:]))


class TestErrorPaths:
    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"r": 1.0,\n', encoding="utf-8")
        cfg = RunConfig("validate", str(path), output_dir=str(tmp_path))
        assert run(cfg) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        cfg = RunConfig("validate", str(tmp_path / "ghost.json"), output_dir=str(tmp_path))
        assert run(cfg) == 1
        assert "error:" in capsys.readouterr().err

    def test_model_path_is_a_directory(self, tmp_path, capsys):
        cfg = RunConfig("validate", str(tmp_path), output_dir=str(tmp_path / "out"))
        assert run(cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_missing_model_key_reports_key(self, tmp_path, capsys):
        path = write_model(tmp_path, {"r": 1.0, "a": 1.0})
        cfg = RunConfig("validate", path, output_dir=str(tmp_path))
        assert run(cfg) == 1
        assert "kernel" in capsys.readouterr().err

    def test_custom_initial_datum(self, tmp_path):
        path = binary_model_file(
            tmp_path, initial={"type": "linear", "c0": 0.0, "c1": 1.0}
        )
        cfg = RunConfig(
            "solve-pde", path, output_dir=str(tmp_path), n_cells=200, t_end=0.2
        )
        assert run(cfg) == 0
        _, rows, _ = read_csv(tmp_path / "moments.csv")
        # datum x on [0, 30] has M1 = 9000 up to the half-weighted edge cell;
        # the default datum exp(-x) would give M1 close to 1
        assert rows[0][2] == pytest.approx(9000.0, rel=1e-2)
        assert rows[0][2] > 100.0


class TestMain:
    def test_main_exits_with_run_code(self, tmp_path, capsys):
        path = binary_model_file(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["validate", "--model", path, "--out", str(tmp_path)])
        assert info.value.code == 0

    def test_main_rejects_bad_cells(self, tmp_path):
        path = binary_model_file(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["eigen", "--model", path, "--cells", "4"])
        assert info.value.code == 1
