"""Command line interface tests."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gfrag import cli, resolvent
from gfrag.cli import RunConfig, emit_csv, main, run
from gfrag.errors import InvalidInputError, NonFiniteOutputError
from gfrag.irreducibility import support_model_from_config
from gfrag.model import model_from_config, quad_weights
from gfrag.spectral import perron_eigenpair
from oracles import reachability_oracle
from test_cli_properties import wall_clock_budget

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_writes_no_file(self, tmp_path, bad):
        path = tmp_path / "x.csv"
        with pytest.raises(NonFiniteOutputError):
            emit_csv(path, ("a", "b"), [(1.0, 2.0), (3.0, bad)])
        assert not path.exists()

    @staticmethod
    def wide_range_table():
        # 1e-300 to 1e300 with both signs, -0.0, subnormals and 5e-324
        mags = np.logspace(-300.0, 300.0, 61)
        specials = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0,
                    1.7976931348623157e308, math.pi, -1.0 / 3.0, 1.0]
        flat = np.concatenate((mags, -mags[::-1], specials))
        flat = np.concatenate((flat, np.zeros(-flat.size % 3)))
        return flat.reshape(-1, 3)

    def test_array_list_and_generator_write_the_same_bytes(self, tmp_path):
        table = self.wide_range_table()
        inputs = {
            "array": table,
            "tuples": [tuple(float(v) for v in row) for row in table],
            "generator": (tuple(row) for row in table),
        }
        written = {}
        for name, rows in inputs.items():
            emit_csv(tmp_path / f"{name}.csv", ("a", "b", "c"), rows)
            written[name] = (tmp_path / f"{name}.csv").read_bytes()
        expected = "a,b,c\r\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\r\n" for row in table.tolist()
        )
        assert written["array"] == written["tuples"] == written["generator"]
        assert written["array"] == expected.encode("utf-8")
        fields = written["array"].decode("utf-8").replace("\r\n", ",").split(",")
        assert "-0" in fields and "4.9406564584124654e-324" in fields
        _, rows, _ = read_csv(tmp_path / "array.csv")
        assert np.array_equal(np.array(rows), table)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [1, 7, 20])
    def test_array_with_non_finite_row_names_it(self, tmp_path, bad, k):
        table = self.wide_range_table()[:20].copy()
        table[k - 1, 1] = bad
        path = tmp_path / "x.csv"
        with pytest.raises(NonFiniteOutputError, match=f"row {k} of"):
            emit_csv(path, ("a", "b", "c"), table)
        assert not path.exists()

    def test_row_of_wrong_width_raises(self, tmp_path):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError):
            emit_csv(path, ("a", "b"), [(1.0, 2.0), (3.0,), (4.0, 5.0)])
        assert not path.exists()


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

    def test_failure_names_the_failed_checks_on_one_stderr_line(self, tmp_path, capsys):
        path = binary_model_file(
            tmp_path,
            kernel={"type": "shrinking_binary", "eps": {"type": "inverse", "scale": 1.0}},
        )
        assert run(RunConfig("validate", path, output_dir=str(tmp_path))) == 1
        err = capsys.readouterr().err
        assert err == "error: assumptions fail: moment_defect_liminf\n"


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

    def test_nan_solution_exits_2_without_snapshot(self, tmp_path, capsys, monkeypatch):
        def nan_solution(params, u0, nodes, t):
            return np.full(np.shape(nodes), np.nan)

        monkeypatch.setattr(cli, "evaluate_solution", nan_solution)
        cfg = RunConfig("solve-closed", binary_model_file(tmp_path), output_dir=str(tmp_path))
        assert run(cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:")
        assert err.count("\n") == 1
        assert not (tmp_path / "snapshot.csv").exists()

    def test_non_binary_model_rejected(self, tmp_path, capsys):
        path = binary_model_file(tmp_path, a={"type": "constant", "c": 1.0})
        cfg = RunConfig("solve-closed", path, output_dir=str(tmp_path))
        assert run(cfg) == 1
        assert "solve-closed needs" in capsys.readouterr().err

    # r = 1.2, a = 1.5 x, beta = 0.5 + 0.5 x as a flux: at t = 6 the terms
    # of the formula exceed the solution 1e12-fold, at t = 30 the
    # prefactor e^{a r t^2/2} overflows, and at t = 1000 so do the moments,
    # which ClosedFormSolution.evaluate refuses before it computes anything
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t_end", ["6", "30", "1000"])
    def test_cancelling_horizon_exits_2_without_csv(self, tmp_path, capsys, t_end):
        doc = {k: v for k, v in BINARY_DOC.items() if k != "bc_convention"}
        doc.update(r=1.2, a={"type": "linear", "c0": 0.0, "c1": 1.5})
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["solve-closed", "--model", write_model(tmp_path, doc), "--out", str(out),
                  "--t-end", t_end])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: the closed form")
        assert err.count("\n") == 1
        assert list(out.glob("*.csv")) == []

    # r = 100, a = x, beta = 2: lambda_plus = 200.5, so the moments overflow
    # from t = 3.54 on; every shorter horizon is answered
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t_end", ["0.5", "1", "2"])
    def test_reachable_horizon_is_answered(self, tmp_path, t_end):
        doc = {**BINARY_DOC, "r": 100.0, "beta": {"type": "linear", "c0": 2.0, "c1": 0.0}}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["solve-closed", "--model", write_model(tmp_path, doc), "--out", str(out),
                  "--t-end", t_end])
        assert info.value.code == 0
        _, snapshot, _ = read_csv(out / "snapshot.csv")
        _, moments, _ = read_csv(out / "moments.csv")
        x, u = np.array(snapshot)[:, :2].T
        w = quad_weights(x)
        h = 30.0 / 2000
        assert moments[-1][0] == float(t_end)
        assert np.sum(w * u) == pytest.approx(moments[-1][1], rel=h)
        assert np.sum(w * x * u) == pytest.approx(moments[-1][2], rel=h)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t_end", ["3.6", "4"])
    def test_overflowing_horizon_names_its_time(self, tmp_path, capsys, t_end):
        doc = {**BINARY_DOC, "r": 100.0, "beta": {"type": "linear", "c0": 2.0, "c1": 0.0}}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["solve-closed", "--model", write_model(tmp_path, doc), "--out", str(out),
                  "--t-end", t_end])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"moments overflow before t = {t_end};" in err
        assert list(out.glob("*.csv")) == []

    # r = 1e-20, a = 1e-20 x: lambda_plus - lambda_minus = 2.5e-20, below
    # 1e-14 of max(1, lambda_plus), so the model is refused before any output
    @pytest.mark.filterwarnings("error")
    def test_coincident_eigenvalues_exit_1_without_csv(self, tmp_path, capsys):
        doc = {**BINARY_DOC, "r": 1e-20, "a": {"type": "linear", "c0": 0.0, "c1": 1e-20}}
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["solve-closed", "--model", write_model(tmp_path, doc), "--out", str(out)])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "coincident moment eigenvalues" in err
        assert list(out.glob("*.csv")) == []


README_DOC = {**BINARY_DOC, "initial": {"type": "linear", "c0": 1.0, "c1": 2.5}}


class TestReadmeModelFrozen:
    """Outputs of the README model at the default 2000 cells and t_end = 2,
    pinned to within 1e-11 of each column's max (moments.csv to the byte)."""

    # (row, x, u, u_normalized) of snapshot.csv; row 15 holds the max of u
    SNAPSHOT_ROWS = [
        (0, 0.0074999999999999997, 243479.72969851876, 0.84401383359499826),
        (15, 0.23249999999999998, 265103.96656146331, 0.91897348249825206),
        (125, 1.8824999999999998, 19954.900556890479, 0.069172953900032863),
        (250, 3.7574999999999998, 355.21497207875012, 0.0012313400820090942),
        (375, 5.6324999999999994, 7.5376583223354174, 2.6129024805641807e-05),
        (500, 7.5074999999999994, 0.15831100549309218, 5.4877947668148917e-07),
        (750, 11.2575, 6.7307508561861729e-05, 2.333190873891901e-10),
        (1000, 15.0075, 2.6855026433482779e-08, 9.3091995130289919e-14),
        (1500, 22.5075, 3.0701013152078847e-15, 1.0642397146498134e-20),
        (1999, 29.9925, 8.2320141888379861e-23, 2.8535984750486756e-28),
    ]
    SNAPSHOT_MAX = (29.9925, 265103.96656146331, 0.91897348249825206)
    AEG_ROWS = [
        (0.5, 52317.195350232258),
        (1.0, 15119.531113697476),
        (1.5, 4793.2587909770273),
        (2.0, 1365.2675337924456),
    ]
    MOMENTS_CSV = (
        b"t,M0,M1\r\n"
        b"0,1154.4301406249999,22932.90708644531\r\n"
        b"0.20000000000000001,8621.2437940807977,23893.260512933401\r\n"
        b"0.40000000000000002,17420.09667332784,26469.893339463164\r\n"
        b"0.60000000000000009,28249.091872503708,30996.197710685035\r\n"
        b"0.80000000000000004,42008.50149923862,37964.274452019556\r\n"
        b"1,59879.123010427895,48072.832973680299\r\n"
        b"1.2000000000000002,83426.666892634006,62293.23168757149\r\n"
        b"1.4000000000000001,114741.53355252428,81959.754985048014\r\n"
        b"1.6000000000000001,156626.5657937096,108892.40100028113\r\n"
        b"1.8,212849.72952367205,145563.38638167654\r\n"
        b"2,288484.57591978967,195322.52533580383\r\n"
    )

    @staticmethod
    def outputs(tmp_path, name):
        path = write_model(tmp_path, README_DOC)
        out = tmp_path / name
        for command in ("solve-closed", "aeg"):
            assert run(RunConfig(command, path, output_dir=str(out))) == 0
        return out

    def test_solve_closed_and_aeg_frozen(self, tmp_path):
        out = self.outputs(tmp_path, "out")
        _, rows, _ = read_csv(out / "snapshot.csv")
        snap = np.array(rows)
        assert snap.shape == (2000, 3)
        frozen = np.array([row[1:] for row in self.SNAPSHOT_ROWS])
        idx = [row[0] for row in self.SNAPSHOT_ROWS]
        scale = np.array(self.SNAPSHOT_MAX)
        assert np.all(np.abs(snap[idx] - frozen) <= 1e-11 * scale)
        assert np.all(np.abs(np.abs(snap).max(axis=0) - scale) <= 1e-11 * scale)
        _, aeg_rows, _ = read_csv(out / "aeg.csv")
        aeg = np.array(aeg_rows)
        assert np.all(np.abs(aeg - self.AEG_ROWS) <= 1e-11 * np.array([2.0, 52317.195350232258]))
        assert (out / "moments.csv").read_bytes() == self.MOMENTS_CSV

    def test_reruns_byte_identical(self, tmp_path):
        first, second = self.outputs(tmp_path, "a"), self.outputs(tmp_path, "b")
        for name in ("snapshot.csv", "moments.csv", "aeg.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_power_law_at_nu_zero_runs_as_the_uniform_binary_file(self, tmp_path, capsys):
        # the binary family is recognised by its parameters, whatever the file calls them
        results = []
        for name, kernel in (("binary", {"type": "uniform_binary"}),
                             ("power", {"type": "power_law", "nu": 0.0})):
            path = write_model(tmp_path, {**README_DOC, "kernel": kernel}, f"{name}.json")
            out = tmp_path / name
            printed = []
            for command in ("solve-closed", "aeg"):
                assert run(RunConfig(command, path, output_dir=str(out))) == 0
                captured = capsys.readouterr()
                printed.append((captured.out.replace(str(out), "<out>"), captured.err))
            results.append((printed, {f.name: f.read_bytes() for f in out.glob("*.csv")}))
        assert results[0] == results[1]
        assert sorted(results[0][1]) == ["aeg.csv", "moments.csv", "snapshot.csv"]


class TestSolvePdeFrozen:
    """``solve-pde`` on the README model with one kernel per gain storage form
    (separable, CSR, dense) at 400 cells and t_end = 2: selected snapshot rows
    and every moments.csv row, pinned to within 1e-12 of each column's max."""

    KERNELS = {
        "uniform_binary": {"type": "uniform_binary"},
        "power_law": {"type": "power_law", "nu": 1.0},
        "shrinking_binary": {"type": "shrinking_binary", "eps": 0.25},
        "tabulated": {"type": "tabulated", "ratios": [0.0, 0.5, 1.0], "densities": [0.0, 4.0, 0.0]},
    }
    # kernel: ((max of |x|, |u|, |u_normalized|), [(row, x, u, u_normalized)]);
    # the rows include the one holding the max of u
    SNAPSHOTS = {
        "uniform_binary": (
            (29.9625, 264270.8423470266, 0.916255252656327),
            [
                (0, 0.0375, 255627.36245030136, 0.8862873841383002),
                (2, 0.1875, 264270.8423470266, 0.916255252656327),
                (50, 3.7874999999999996, 367.6321308029407, 0.00127461988580301),
                (100, 7.5375, 0.13290885425554363, 4.6080920147922723e-07),
                (200, 15.0375, 5.249245496871574e-09, 1.8199695116858076e-14),
                (300, 22.537499999999998, 2.859537894942505e-17, 9.91432347640665e-23),
                (399, 29.9625, 6.353805442705359e-27, 2.202932249177298e-32),
            ],
        ),
        "power_law": (
            (29.9625, 130461.04886089305, 0.8519558175910776),
            [
                (0, 0.0375, 130461.04886089305, 0.8519558175910776),
                (50, 3.7874999999999996, 849.4654122151501, 0.005547303245666593),
                (100, 7.5375, 0.6689881574405065, 4.368724286730941e-06),
                (200, 15.0375, 4.207885312324512e-08, 2.7478947953372886e-13),
                (300, 22.537499999999998, 2.206345250112257e-16, 1.4408198369245516e-21),
                (399, 29.9625, 2.414837694178247e-26, 1.5769726213738015e-31),
            ],
        ),
        "shrinking_binary": (
            (29.9625, 267789.2642628632, 0.9292709184065039),
            [
                (0, 0.0375, 230490.39024133264, 0.7998379517305395),
                (4, 0.33749999999999997, 267789.2642628632, 0.9292709184065039),
                (50, 3.7874999999999996, 227.85375118222407, 0.0007906883989778974),
                (100, 7.5375, 0.02330965118046265, 8.088816039668137e-08),
                (200, 15.0375, 2.3252432992514736e-10, 8.06896042737902e-16),
                (300, 22.537499999999998, 4.460771403561309e-19, 1.5479579251989264e-24),
                (399, 29.9625, 1.4725486614915319e-28, 5.109975752124548e-34),
            ],
        ),
        "tabulated": (
            (29.9625, 247426.7725112068, 0.8720734720211458),
            [
                (0, 0.0375, 227636.6139868186, 0.8023216336042647),
                (4, 0.33749999999999997, 247426.7725112068, 0.8720734720211458),
                (50, 3.7874999999999996, 160.90994118298966, 0.0005671386716399589),
                (100, 7.5375, 0.016984463867253174, 5.986296561526017e-08),
                (200, 15.0375, 1.7187807565262559e-10, 6.057966511764984e-16),
                (300, 22.537499999999998, 5.073275554966225e-19, 1.7881124919652788e-24),
                (399, 29.9625, 2.6102394623597666e-28, 9.199976896774937e-34),
            ],
        ),
    }
    MOMENTS = {
        "uniform_binary": [
            (0.0, 1152.153515625, 22864.67705566406),
            (0.2, 8552.730361123135, 23805.7738901889),
            (0.4, 17279.416927913193, 26457.05006217188),
            (0.6000000000000001, 28032.863865747837, 31084.124476486166),
            (0.8, 41716.025091116964, 38191.64706053691),
            (1.0, 59514.784251882054, 48496.52710903657),
            (1.2000000000000002, 83003.78831428548, 62996.182969487556),
            (1.4000000000000001, 114288.35161452748, 83062.03365695529),
            (1.6, 156195.32879950554, 110566.81631388943),
            (1.8, 212530.35191379083, 148057.4549072358),
            (2.0, 288424.9138882159, 198989.3610684668),
        ],
        "power_law": [
            (0.0, 1152.153515625, 22864.67705566406),
            (0.2, 6120.904499135241, 23578.004958089365),
            (0.4, 11892.127424179029, 25460.540198323713),
            (0.6000000000000001, 18795.141546236042, 28634.47462190355),
            (0.8, 27246.373141407927, 33374.80800743609),
            (1.0, 37773.88282350585, 40053.14999730436),
            (1.2000000000000002, 51051.57561277102, 49164.01197732831),
            (1.4000000000000001, 67943.64680165211, 61359.2183251619),
            (1.6, 89562.02028550662, 77492.74282046287),
            (1.8, 117340.58991361881, 98679.01874342257),
            (2.0, 153131.23775570228, 126368.67079258396),
        ],
        "shrinking_binary": [
            (0.0, 1152.153515625, 22864.67705566406),
            (0.2, 8552.765052025285, 23805.324632068015),
            (0.4, 17278.94252823664, 26453.638989262086),
            (0.6000000000000001, 28030.522896154922, 31075.0637161754),
            (0.8, 41709.33845382313, 38173.24964337326),
            (1.0, 59499.64545872431, 48463.57217397691),
            (1.2000000000000002, 82973.70762387235, 62941.167475854374),
            (1.4000000000000001, 114233.34403540244, 82974.12077462861),
            (1.6, 156100.29551499942, 110430.35163835021),
            (1.8, 212372.74135768382, 147849.87065962274),
            (2.0, 288171.3598893885, 198678.21681932264),
        ],
        "tabulated": [
            (0.0, 1152.153515625, 22864.67705566406),
            (0.2, 8539.141717672273, 23800.65634374731),
            (0.4, 17226.793031828012, 26432.326590271063),
            (0.6000000000000001, 27907.427780734328, 31018.139282806118),
            (0.8, 41466.81165533043, 38051.61059601711),
            (1.0, 59065.02554884163, 48233.05507487108),
            (1.2000000000000002, 82238.9546616787, 62535.41599426891),
            (1.4000000000000001, 113039.02670331202, 82294.33498634907),
            (1.6, 154212.71182067296, 109330.60394511532),
            (1.8, 209451.3272353316, 146116.13221075255),
            (2.0, 283722.39318066, 195998.4843612857),
        ],
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_snapshot_and_moments_frozen(self, tmp_path, kernel):
        path = write_model(tmp_path, {**README_DOC, "kernel": self.KERNELS[kernel]})
        cfg = RunConfig("solve-pde", path, output_dir=str(tmp_path), n_cells=400, t_end=2.0)
        assert run(cfg) == 0
        _, rows, _ = read_csv(tmp_path / "snapshot.csv")
        snap = np.array(rows)
        assert snap.shape == (400, 3)
        scale, pinned = self.SNAPSHOTS[kernel]
        scale = np.array(scale)
        idx = [row[0] for row in pinned]
        frozen = np.array([row[1:] for row in pinned])
        assert np.all(np.abs(snap[idx] - frozen) <= 1e-12 * scale)
        assert np.all(np.abs(np.abs(snap).max(axis=0) - scale) <= 1e-12 * scale)
        _, mom_rows, _ = read_csv(tmp_path / "moments.csv")
        moments = np.array(mom_rows)
        frozen = np.array(self.MOMENTS[kernel])
        assert moments.shape == frozen.shape
        assert np.all(np.abs(moments - frozen) <= 1e-12 * np.abs(frozen).max(axis=0))


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

    def test_library_s0_equals_printed_s0(self, tmp_path, capsys):
        # the CLI adds no shift or grid of its own: the library call with the
        # model alone gives the printed s0 to the last bit
        assert run(RunConfig("eigen", binary_model_file(tmp_path), output_dir=str(tmp_path))) == 0
        printed = float(capsys.readouterr().out.split("s0 = ")[1].split()[0])
        model = model_from_config(BINARY_DOC)
        assert perron_eigenpair(model).s0 == printed

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

    def test_singular_factor_exits_2_without_csv(self, tmp_path, capsys, monkeypatch):
        # SuperLU reports an exactly singular factor as a bare RuntimeError
        def singular(matrix):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(resolvent, "splu", singular)
        argv = ["eigen", "--model", binary_model_file(tmp_path), "--out", str(tmp_path),
                "--cells", "200"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:")
        assert "singular" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "eigen.csv").exists()


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

    def test_slowly_descending_floor_is_zero(self, tmp_path, capsys):
        # daughters at 0.99999 of the parent: orbits take millions of steps
        # to creep towards the floor 0, which the renewal reach 1e-5 beats
        support = {
            "supp_a": [[0.0, "inf"]],
            "envelope": [{"left": 0.0, "right": 2.0, "value_left": 0.0, "value_right": 1.99998}],
            "beta_sup": 1e-5,
            "tail": {"kind": "envelope_extends"},
        }
        cfg = RunConfig("irreducible", binary_model_file(tmp_path, support=support),
                        output_dir=str(tmp_path))
        assert run(cfg) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "c_bar = 0 (fixed_point)"
        assert out[1].startswith("IRREDUCIBLE:")
        assert reachability_oracle(support_model_from_config(support)).irreducible

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

    def test_tabulated_splitting_rate_with_kinks_prints_no_warning(self, tmp_path):
        # a has kinks at 3, 4 and 6, past x_max = 1, where no quadrature of
        # a/r needs to go; in a fresh process, so that a quadrature warning
        # would reach stderr
        doc = {
            "r": 1.0,
            "a": {"type": "tabulated", "nodes": [0, 3, 4, 6, 7], "values": [2, 1, 1, 2, 0]},
            "kernel": {"type": "uniform_binary"},
            "beta": 0.0,
            "m": 2.0,
            "bc_convention": "flux",
            "x_max": 1.0,
        }
        path = write_model(tmp_path, doc)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "gfrag.cli", "aeg", "--model", path, "--cells", "16", "--t-end", "0.25"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "wrote aeg.csv" in proc.stdout

    def test_fine_uniform_grid_is_accepted(self, tmp_path, capsys):
        # midpoint-grid roundoff at 10000 cells exceeds 1e-12 of the spacing
        cfg = RunConfig(
            "aeg", binary_model_file(tmp_path), output_dir=str(tmp_path), n_cells=10000
        )
        assert run(cfg) == 0
        assert "deviations decreasing" in capsys.readouterr().out

    def test_tiny_horizon_exits_2_with_one_line_and_no_csv(self, tmp_path, capsys):
        # the squares of the time samples underflow, so no log-linear fit exists
        path = binary_model_file(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["aeg", "--model", path, "--out", str(out), "--t-end", "1e-300"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:")
        assert err.count("\n") == 1
        assert list(out.glob("*.csv")) == []


class TestRunsAtTheEdgeOfTheFloatRange:
    """README-model runs at the ends of the float range: each exits 2 with
    one line, no warning and no CSV, well before a 10 s alarm."""

    @pytest.mark.parametrize(
        "command, overrides, flags, message",
        [
            # a cell width of 5e-204 needs about 1e204 explicit steps
            ("solve-pde", {"x_max": 1e-200}, [], "steps"),
            # a = x^50 on [0, 30] needs about 1e74 explicit steps
            ("solve-pde", {"a": {"type": "power", "c0": 1.0, "p": 50.0}}, [], "steps"),
            # the weight 1 + x^400 overflows on [0, 30]
            ("eigen", {"m": 400.0}, [], "overflow"),
            # Q = x^2/2 overflows on [0, 1e200]
            ("eigen", {"x_max": 1e200}, [], "overflow"),
            # the four deviations agree to the last bit
            ("aeg", {}, ["--cells", "200", "--t-end", "1e-30"], "rounding"),
            ("aeg", {}, ["--cells", "200", "--t-end", "1e-100"], "rounding"),
        ],
        ids=["pde-tiny-domain", "pde-steep-splitting", "eigen-m400", "eigen-huge-domain",
             "aeg-horizon-1e-30", "aeg-horizon-1e-100"],
    )
    def test_exits_2_with_one_line_and_no_csv(self, tmp_path, capsys, command, overrides,
                                              flags, message):
        path = write_model(tmp_path, {**README_DOC, **overrides})
        out = tmp_path / "out"

        with wall_clock_budget(10, command), warnings.catch_warnings(record=True) as caught, \
                pytest.raises(SystemExit) as info:
            warnings.simplefilter("always")
            main([command, "--model", path, "--out", str(out), *flags])
        assert info.value.code == 2
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:") and message in err
        assert err.count("\n") == 1
        assert list(out.glob("*.csv")) == []


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

    def test_divergent_norm_is_bad_input(self, tmp_path, capsys):
        # quadratic growth has no linear bound, so no resolvent shift exists
        path = binary_model_file(tmp_path, r={"type": "power", "c0": 1.0, "p": 2.0})
        cfg = RunConfig("eigen", path, output_dir=str(tmp_path), n_cells=100)
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


NAN = float("nan")

# non-finite numbers are bad input: rejected before any solver runs
NON_FINITE_INPUTS = {
    "solve-closed-t-end-inf": (["solve-closed", "--t-end", "inf"], {}),
    "solve-pde-t-end-nan": (["solve-pde", "--t-end", "nan"], {}),
    "eigen-tol-inf": (["eigen", "--tol", "inf"], {}),
    "eigen-tol-nan": (["eigen", "--tol", "nan"], {}),
    "eigen-x-max-nan": (["eigen", "--x-max", "nan"], {}),
    "model-x-max-nan": (["eigen"], {"x_max": NAN}),
    "model-linear-c1-nan": (["eigen"], {"a": {"type": "linear", "c0": 0.0, "c1": NAN}}),
    "model-power-law-nu-nan": (["eigen"], {"kernel": {"type": "power_law", "nu": NAN}}),
    "model-tabulated-value-nan": (
        ["eigen"],
        {"r": {"type": "tabulated", "nodes": [0.0, 30.0], "values": [1.0, NAN]}},
    ),
    "model-tabulated-density-nan": (
        ["eigen"],
        {"kernel": {"type": "tabulated", "ratios": [0.0, 1.0], "densities": [2.0, NAN]}},
    ),
    "model-m-inf": (["eigen"], {"m": float("inf")}),
    "support-beta-sup-nan": (["irreducible"], {"support": {**GAP_SUPPORT, "beta_sup": NAN}}),
    "support-envelope-value-nan": (
        ["irreducible"],
        {"support": {**GAP_SUPPORT, "tail": {"kind": "constant_floor", "value": 2.0},
                     "envelope": [
                         {"left": 2.0, "right": 4.0, "value_left": NAN, "value_right": 2.0}]}},
    ),
    "support-tail-floor-nan": (
        ["irreducible"],
        {"support": {**GAP_SUPPORT, "tail": {"kind": "constant_floor", "value": NAN}}},
    ),
    "support-tail-floor-inf": (
        ["irreducible"],
        {"support": {**GAP_SUPPORT, "tail": {"kind": "constant_floor", "value": float("inf")}}},
    ),
}


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, overrides", list(NON_FINITE_INPUTS.values()), ids=list(NON_FINITE_INPUTS)
    )
    def test_exits_1_with_one_line(self, tmp_path, capsys, argv, overrides):
        # json writes NaN for a float nan, and json.load reads it back
        path = binary_model_file(tmp_path, **overrides)
        with pytest.raises(SystemExit) as info:
            main(argv + ["--model", path, "--out", str(tmp_path), "--cells", "200"])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1


class TestWrongValueTypes:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"x_max": None},
            {"m": "two"},
            {"a": {"type": "linear", "c0": [0.0], "c1": 1.0}},
            {"r": {"type": "tabulated", "nodes": [0.0, [1.0]], "values": [1.0, 1.0]}},
            {"kernel": {"type": "power_law", "nu": "one"}},
            # JSON numbers only: no booleans, no numeric strings
            {"r": True},
            {"x_max": "30"},
            {"kernel": {"type": "shrinking_binary", "eps": "0.3"}},
            {"kernel": {"type": "power_law", "nu": True}},
            {"r": {"type": "tabulated", "nodes": [0.0, 30.0], "values": [1.0, True]}},
            {"m": 10**400},
        ],
    )
    def test_exits_1_with_one_line(self, tmp_path, capsys, overrides):
        path = binary_model_file(tmp_path, **overrides)
        with pytest.raises(SystemExit) as info:
            main(["eigen", "--model", path, "--out", str(tmp_path), "--cells", "200"])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: expected a")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"beta_sup": True},
            {"beta_sup": "0.4"},
            {"beta_sup": "Infinity"},
            {"supp_a": [["2", "inf"]]},
            {"supp_a": [[2.0, "Infinity"]]},
            {"envelope": [{"left": 2.0, "right": "4", "value_left": 1.0, "value_right": 2.0}]},
            {"tail": {"kind": "constant_floor", "value": True}},
        ],
    )
    def test_support_value_exits_1_with_one_line(self, tmp_path, capsys, overrides):
        # support values are JSON numbers too; "inf" only as a right end or beta_sup
        path = binary_model_file(tmp_path, support={**GAP_SUPPORT, **overrides})
        with pytest.raises(SystemExit) as info:
            main(["irreducible", "--model", path, "--out", str(tmp_path)])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad support configuration: expected a number, got ")
        assert err.count("\n") == 1


class TestVanishingTabulatedGrowth:
    # r passes through 0 at x = 15, between the points an even probe samples
    R_DIPS_TO_ZERO = {"type": "tabulated", "nodes": [0, 7.5, 15, 30], "values": [1, 1, 0, 1]}

    @pytest.mark.parametrize("command", ["validate", "solve-pde", "eigen", "aeg"])
    def test_exits_1_with_one_line_and_no_csv(self, tmp_path, capsys, command):
        path = binary_model_file(tmp_path, r=self.R_DIPS_TO_ZERO)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([command, "--model", path, "--out", str(out), "--cells", "200"])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "strictly positive" in err
        assert err.count("\n") == 1
        assert list(out.glob("*.csv")) == []


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

    # a bad command line is bad input: exit 1 and one stderr line, not
    # argparse's usage block and exit 2, which means a numeric failure
    @pytest.mark.parametrize(
        "argv",
        [["eigen", "--model", "m.json", "--cells", "abc"], ["eigen", "--model", "m.json", "--bogus"], []],
        ids=["non-integer-cells", "unknown-flag", "no-command"],
    )
    def test_bad_command_line_exits_1_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["eigen", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gfrag")

    def test_negative_bare_number_names_the_value(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["validate", "--model", binary_model_file(tmp_path, r=-1)])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: linear coefficient needs finite c0, c1 >= 0, got c0=-1.0")
        assert err.count("\n") == 1
