import csv
import json
import os
import platform
import subprocess
import sys
from importlib import metadata

import pytest

import heatpade
from heatpade import Ellipse, __version__, cli, tau_large_s_series
from heatpade.cli import main
from heatpade.pade import selected_rows

DISK = '{"kind":"disk","R":1.0}'
ELLIPSE = '{"kind":"ellipse","b":1.0,"eps":0.5}'


def read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.strip())
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


class TestCoeffs:
    def test_disk(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert main(["coeffs", "--shape", DISK, "--j-max", "7", "--out", str(out)]) == 0
        comments, header, rows = read_csv(out)
        assert header == ["j", "sigma_curvature", "sigma_exact"]
        assert len(rows) == 7
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-12)
        assert rows[6][2] == ""  # no exact coefficient beyond order 6
        assert any("version=" in c for c in comments)


class TestManifestEnvironment:
    EXPECTED = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }

    def test_json_manifest(self, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["pade", "--shape", DISK, "--n", "1", "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert list(manifest) == ["subcommand", "version", "out", "options", "environment"]
        assert manifest["environment"] == self.EXPECTED

    def test_csv_comment_line(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        assert main(["coeffs", "--shape", DISK, "--j-max", "3", "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        line = "# " + " ".join(f"{k}={v}" for k, v in self.EXPECTED.items())
        assert comments[-1] == line
        assert comments[-2] == f"# subcommand=coeffs version={__version__}"


class TestManifestOptions:
    """``options`` holds the normalized shape, the resolved method and every default."""

    SHAPE = '{"eps":0.5,"kind":"ellipse","b":1}'
    NORMALIZED = '{"kind": "ellipse", "b": 1.0, "eps": 0.5}'

    @pytest.mark.parametrize(
        "argv, options",
        [
            (["coeffs", "--shape", SHAPE], ["j_max=6", f"shape={NORMALIZED}"]),
            (
                ["survival", "--shape", DISK, "--times", "0.01"],
                ["j_max=5", "method=exact", "mode=curvature",
                 'shape={"kind": "disk", "R": 1.0}', "times=0.01"],
            ),
            (
                ["tau", "--shape", SHAPE, "--s", "5,50", "--mode", "savo"],
                ["j_max=5", "method=expansion", "mode=savo", "s=5,50", f"shape={NORMALIZED}"],
            ),
            (
                ["lambda1", "--shape", SHAPE, "--n-max", "1"],
                ["mode=curvature", "n_max=1", f"shape={NORMALIZED}"],
            ),
            (["sweep", "--eps", "0.2", "--n", "1"], ["b=1.0", "eps=0.2", "mode=curvature", "n=1"]),
            (["table1", "--n-max", "1"], ["n_max=1"]),
            (
                ["mc", "--shape", SHAPE, "--walkers", "10", "--dt", "1e-3", "--times", "0.01"],
                ["dt=0.001", "seed=1", f"shape={NORMALIZED}", "times=0.01", "walkers=10"],
            ),
        ],
    )
    def test_csv_options(self, argv, options, tmp_path):
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        assert comments[:-2] == [f"# {line}" for line in options]
        assert comments[-2] == f"# subcommand={argv[0]} version={__version__}"

    def test_json_options(self, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["pade", "--shape", self.SHAPE, "--n", "1", "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["subcommand"] == "pade"
        assert manifest["out"] == str(out)
        assert manifest["options"] == {"mode": "curvature", "n": 1, "shape": self.NORMALIZED}
        assert list(manifest["options"]) == ["mode", "n", "shape"]


class TestSurvivalAndTau:
    def test_survival_exact_disk(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["survival", "--shape", DISK, "--times", "0,0.01,0.1", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "S"]
        assert float(rows[0][1]) == 1.0
        assert float(rows[2][1]) == pytest.approx(0.394176, abs=1e-5)

    def test_survival_expansion_at_time_zero(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["survival", "--shape", DISK, "--method", "expansion", "--times", "0"]
        assert main(argv + ["--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) == 1.0

    def test_survival_expansion_ellipse(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["survival", "--shape", ELLIPSE, "--times", "0.01", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert 0.0 < float(rows[0][1]) < 1.0

    def test_exact_method_requires_disk(self):
        code = main(["survival", "--shape", ELLIPSE, "--times", "0.01", "--method", "exact"])
        assert code == 2

    def test_tau_exact_disk(self, tmp_path):
        out = tmp_path / "tau.csv"
        assert main(["tau", "--shape", DISK, "--s", "1,2", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["s", "tau"]
        assert float(rows[0][1]) > float(rows[1][1]) > 0.0

    def test_tau_tiny_disk_is_not_negative(self, tmp_path):
        out = tmp_path / "tau.csv"
        shape = '{"kind":"disk","R":1e-200}'
        assert main(["tau", "--shape", shape, "--s", "1", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) >= 0.0

    def test_survival_disk_whose_radius_squared_underflows(self, tmp_path):
        # R^2 underflows to 0 and t / R^2 overflows: S = 0 (this raised ZeroDivisionError).
        out = tmp_path / "s.csv"
        shape = '{"kind":"disk","R":1e-300}'
        assert main(["survival", "--shape", shape, "--times", "1", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows == [["1.0", "0.0"]]

    def test_tau_exact_overflow_is_numeric_error(self, capsys):
        # At sR = 1, tau = R^2 / (2 K + 1), and R^2 = 1e600 overflows: this printed inf.
        shape = '{"kind":"disk","R":1e300}'
        assert main(["tau", "--shape", shape, "--s", "1e-300", "--method", "exact"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record == {
            "error": "OverflowError",
            "message": "tau(1e-300) leaves the double range",
            "subcommand": "tau",
        }

    def test_coeffs_overflowing_superset_writes_no_warning(self):
        # kappa^5 = 1e350 overflows in the shared superset pass, which falls
        # back to the series' own; numpy's RuntimeWarning reached stderr.
        shape = '{"kind":"disk","R":1e-70}'
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(heatpade.__file__)))
        argv = [sys.executable, "-m", "heatpade.cli", "coeffs", "--shape", shape, "--j-max", "3"]
        out = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.splitlines()[-1].startswith("3,")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # r^2 = 1e-400 underflows to 0, so the curvature is 0/0.
            (["coeffs", "--shape", '{"kind":"disk","R":1e-200}', "--j-max", "3"],
             "rows [3, 4] are not finite before they converged"),
            (["tau", "--shape", '{"kind":"disk","R":1e300}', "--s", "1e-300", "--method", "expansion"],
             "rows [0, 1, 2, 3, 4, 5, 6] are not finite before they converged"),
        ],
        ids=["coeffs", "tau"],
    )
    def test_quadrature_failure_writes_only_its_record(self, argv, message):
        # numpy's "invalid value" RuntimeWarning reached stderr above the record.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(heatpade.__file__)))
        out = subprocess.run([sys.executable, "-m", "heatpade.cli", *argv], env=env, capture_output=True, text=True)
        record = {"error": "QuadratureNotConverged", "message": message, "subcommand": argv[0]}
        assert out.returncode == 1
        assert out.stderr == json.dumps(record) + "\n"

    def test_tau_rejects_nonpositive_s(self):
        assert main(["tau", "--shape", DISK, "--s", "0,1"]) == 2

    @pytest.mark.parametrize("shape", [DISK, ELLIPSE])
    def test_tau_rejects_nan_s(self, shape, capsys):
        assert main(["tau", "--shape", shape, "--s", "1,nan"]) == 2
        assert capsys.readouterr().err.startswith("error: Laplace variable values")

    @pytest.mark.parametrize("shape", [DISK, ELLIPSE])
    def test_tau_rejects_infinite_s(self, shape, capsys):
        assert main(["tau", "--shape", shape, "--s", "1,inf"]) == 2
        assert capsys.readouterr().err.startswith("error: Laplace variable values must be finite")

    def test_tau_expansion_past_the_double_range(self, tmp_path):
        # s^3 overflows at s = 1e120, so only the 1/s^2 term is left.
        out = tmp_path / "tau.csv"
        assert main(["tau", "--shape", ELLIPSE, "--s", "1e120", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) == 1e-240

    def test_tau_expansion_underflows_to_zero(self, tmp_path):
        out = tmp_path / "tau.csv"
        argv = ["tau", "--shape", DISK, "--method", "expansion", "--s", "1e200"]
        assert main(argv + ["--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert float(rows[0][1]) == 0.0

    def test_tau_expansion_overflow_is_numeric_error(self, capsys):
        # s^5 underflows to 0 at s = 1e-160, so two terms are +-inf.
        argv = ["tau", "--shape", ELLIPSE, "--s", "1e-160", "--j-max", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "OverflowError"
        assert record["subcommand"] == "tau"

    def test_tau_expansion_outside_its_bound_is_numeric_error(self, capsys):
        # 0 <= S <= 1 bounds tau(5) by 1/25; the sum to j = 40 diverges to about 2e5.
        argv = ["tau", "--shape", ELLIPSE, "--s", "5", "--j-max", "40"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "HeatPadeError"
        assert record["subcommand"] == "tau"
        assert "1/s^2" in record["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--shape", ELLIPSE, "--times", "0.01,0.5", "--j-max", "40"],
            ["--shape", DISK, "--method", "expansion", "--times", "5"],
        ],
    )
    def test_survival_expansion_outside_0_1_is_numeric_error(self, argv, capsys):
        # The truncated sums are about 2e10 and 12.75: no probability.
        assert main(["survival"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "HeatPadeError"
        assert record["subcommand"] == "survival"
        assert "outside [0, 1]" in record["message"]

    def test_survival_overflow_is_numeric_error(self, capsys):
        assert main(["survival", "--shape", ELLIPSE, "--times", "1e300"]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "OverflowError"
        assert record["subcommand"] == "survival"


class TestPadeAndLambda1:
    def test_pade_solution_json(self, tmp_path):
        out = tmp_path / "sol.json"
        code = main(["pade", "--shape", DISK, "--n", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        sol = doc["solution"]
        assert doc["manifest"]["subcommand"] == "pade"
        assert sol["d"]["d0"] == pytest.approx(0.1743, rel=1e-2)
        assert sol["closest_pole"][1] == pytest.approx(1.756, rel=1e-2)
        assert len(sol["poles"]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["pade", "--shape", DISK, "--n", "13"],
            ["pade", "--shape", DISK, "--n", "300"],
            ["pade", "--shape", DISK, "--n", "600"],
            ["lambda1", "--shape", DISK, "--n-max", "300"],
            ["sweep", "--eps", "0.2", "--n", "3,300"],
            ["table1", "--n-max", "300"],
        ],
        ids=["pade-13", "pade-300", "pade-600", "lambda1-300", "sweep-300", "table1-300"],
    )
    def test_order_past_the_solver_ceiling_is_numeric_error(self, argv, tmp_path, capsys, monkeypatch):
        # The order is refused before any series is built: one of order 300
        # overflows a double, and one of order 600 takes seconds.
        def refuse(*args):
            raise AssertionError("an order past the ceiling must be refused before any series")

        monkeypatch.setattr(cli, "tau_large_s_series", refuse)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "UnsupportedOrder"
        assert record["message"] == f"the solver stops at order 12, got {argv[-1].split(',')[-1]}"
        assert record["subcommand"] == argv[0]
        assert out.read_text() == ""

    def test_lambda1_ladder(self, tmp_path):
        out = tmp_path / "lam.csv"
        code = main(
            ["lambda1", "--shape", DISK, "--n-max", "2", "--out", str(out)]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["n", "im_s", "re_s", "lambda1"]
        ims = [float(r[1]) for r in rows]
        assert ims == pytest.approx([1.756, 1.940], rel=1e-2)
        assert all(float(r[3]) == pytest.approx(float(r[1]) ** 2, rel=1e-12) for r in rows)


class TestSweep:
    def test_eps_zero_matches_disk(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        lam_out = tmp_path / "lam.csv"
        assert (
            main(
                ["sweep", "--eps", "0", "--n", "2", "--out", str(sweep_out)]
            )
            == 0
        )
        assert (
            main(
                [
                    "lambda1",
                    "--shape",
                    DISK,
                    "--n-max",
                    "2",
                    "--out",
                    str(lam_out),
                ]
            )
            == 0
        )
        _, _, sweep_rows = read_csv(sweep_out)
        _, _, lam_rows = read_csv(lam_out)
        assert float(sweep_rows[0][2]) == pytest.approx(float(lam_rows[-1][3]), rel=1e-9)

    def test_rows_sorted(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--eps", "0.3,0.1", "--n", "2,1", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_csv(out)
        keys = [(float(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_rows_are_each_cells_selected_rows(self, tmp_path):
        eps, n_list = [0.1, 0.3, 0.5], [2, 3]
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--eps", ",".join(map(str, eps)), "--n", ",".join(map(str, n_list))]
        assert main(argv + ["--out", str(out)]) == 0
        series = [tau_large_s_series(Ellipse(b=1.0, eps=e), max(n_list) + 2) for e in eps]
        expected = [
            (e, sol.n, sol.lambda1, sol.closest_pole.imag, sol.closest_pole.real)
            for e, c in zip(eps, series)
            for sol in selected_rows(c, n_list)
        ]
        assert [(float(r[0]), int(r[1]), *map(float, r[2:])) for r in read_csv(out)[2]] == expected

    def test_rows_do_not_depend_on_the_other_orders(self, tmp_path):
        def rows(n):
            out = tmp_path / f"sweep-{n}.csv"
            assert main(["sweep", "--eps", "0.5", "--n", n, "--out", str(out)]) == 0
            return read_csv(out)[2]

        assert rows("3,5") == [row for row in rows("1,2,3,4,5") if row[1] in ("3", "5")]

    def test_savo_order_cap_is_numeric_error(self, capsys):
        code = main(["sweep", "--eps", "0.1", "--n", "5", "--mode", "savo"])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "UnsupportedOrder"

    def test_bad_eps_is_usage_error(self):
        assert main(["sweep", "--eps", "1.5", "--n", "2"]) == 2

    @pytest.mark.parametrize("eps", ["0", "0.5"])
    @pytest.mark.parametrize("b", ["-1", "0", "nan"])
    def test_bad_minor_semiaxis_is_usage_error(self, eps, b, capsys):
        assert main(["sweep", "--eps", eps, "--n", "1", f"--b={b}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_order_below_one_is_usage_error(self, capsys):
        # The refusal names the flag, as pade's and lambda1's do.
        assert main(["sweep", "--eps", "0.2", "--n", "0,3"]) == 2
        assert capsys.readouterr().err.startswith("error: --n must be >= 1, got 0")

    def test_empty_order_list_is_usage_error(self, capsys):
        assert main(["sweep", "--eps", "0.1", "--n", ","]) == 2
        assert capsys.readouterr().err.startswith("error: --n must list")

    @pytest.mark.parametrize("n", ["nan", "inf", "1e400"])
    def test_non_finite_order_is_usage_error(self, n, capsys):
        assert main(["sweep", "--eps", "0.5", "--n", n]) == 2
        assert capsys.readouterr().err.startswith("error: expected integers")

    @pytest.mark.parametrize("eps", [",", ""])
    def test_empty_eccentricity_list_is_usage_error(self, eps, capsys):
        assert main(["sweep", "--eps", eps, "--n", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: --eps must list")


class TestTable1:
    def test_first_row(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["table1", "--n-max", "1", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["pade", "d0", "d2", "d4", "d6", "im_s"]
        assert rows[0][0] == "[1/3]"
        got = [float(v) for v in rows[0][1:]]
        ref = [0.1743, -0.07472, 0.008383, -0.00004709, 1.756]
        for g, r in zip(got, ref):
            assert g == pytest.approx(r, rel=1e-2)
        assert rows[-1][0] == "exact"
        assert float(rows[-1][5]) == pytest.approx(2.404826, abs=1e-5)

    def test_extrapolated_row(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["table1", "--n-max", "3", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["[1/3]", "[2/4]", "[3/5]", "n^-2", "exact"]
        im2, im3 = float(rows[1][5]), float(rows[2][5])
        assert rows[3][1:5] == ["", "", "", ""]
        assert float(rows[3][5]) == (9 * im3 - 4 * im2) / 5

    def test_no_extrapolated_row_at_first_order(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["table1", "--n-max", "1", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["[1/3]", "exact"]


class TestOrdersPastTen:
    """The disk's ladder to n = 12: total degree lost order 11's physical root, the climb reaches it."""

    @staticmethod
    def _rows(argv, tmp_path):
        out = tmp_path / f"{argv[0]}-{argv[-1]}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        return [line for line in out.read_text().splitlines() if not line.startswith("#")]

    @pytest.mark.parametrize("argv", [["table1"], ["lambda1", "--shape", DISK]], ids=["table1", "lambda1"])
    def test_rows_to_order_12(self, argv, tmp_path):
        # A header, then one row per order; table1 adds its n^-2 and exact rows.
        ten, twelve = (self._rows([*argv, "--n-max", n], tmp_path) for n in ("10", "12"))
        assert twelve[: 1 + 10] == ten[: 1 + 10]
        column = ten[0].split(",").index("im_s")
        assert [f"{float(row.split(',')[column]):.6f}" for row in twelve[11:13]] == ["2.374574", "2.379658"]

    def test_a_lone_order_is_the_ladders_row(self, tmp_path):
        # pade climbs through the orders below, as lambda1 does: order 11
        # solved alone by total degree had no physical root.
        out = tmp_path / "pade.json"
        assert main(["pade", "--shape", DISK, "--n", "11", "--out", str(out)]) == 0
        im = json.loads(out.read_text())["solution"]["closest_pole"][1]
        [*_, row] = self._rows(["lambda1", "--shape", DISK, "--n-max", "11"], tmp_path)
        assert im == float(row.split(",")[1])
        assert f"{im:.6f}" == "2.374574"


class TestMcCommand:
    def test_runs_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "mc",
            "--shape",
            DISK,
            "--walkers",
            "200",
            "--dt",
            "1e-3",
            "--times",
            "0.05,0.1",
            "--seed",
            "1",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        _, header, rows = read_csv(out1)
        assert header == ["t", "S_hat", "stderr"]
        assert float(rows[0][1]) >= float(rows[1][1])


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_shape_is_usage_error(self, capsys):
        for spec in (
            '{"kind":"pentagon"}',
            "[]",
            "null",
            '"disk"',
            '{"kind":"disk","R":null}',
            '{"kind":"fourier","cos":5}',
            '{"kind":"disk","R":"inf"}',
            '{"kind":"ellipse","b":"inf","eps":0.5}',
            '{"kind":"fourier","cos":[1.0,"nan"]}',
            '{"kind":"fourier","cos":"3"}',
        ):
            assert main(["coeffs", "--j-max", "2", "--shape", spec]) == 2, spec
            assert capsys.readouterr().err.startswith("error: bad shape"), spec

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--shape", DISK],
            ["survival", "--shape", ELLIPSE, "--times", "0.01"],
            ["survival", "--shape", DISK, "--times", "0.01"],
            ["tau", "--shape", ELLIPSE, "--s", "1"],
        ],
    )
    def test_negative_j_max_is_usage_error(self, argv, capsys):
        assert main(argv + ["--j-max", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: --j-max")

    @pytest.mark.parametrize(
        "opts",
        [
            ["--walkers", "0", "--times", "0.01"],
            ["--dt", "0", "--times", "0.01"],
            ["--times=-0.01,0.01"],
            ["--times", "0.02,0.01"],
            ["--times", "inf"],
            ["--times", "nan"],
            ["--dt", "inf", "--times", "0.01"],
            ["--walkers", "2", "--dt", "1e-300", "--times", "1"],
            ["--times", "0.01", "--seed", "-1"],
        ],
    )
    def test_bad_mc_config_is_usage_error(self, opts, capsys):
        assert main(["mc", "--shape", DISK] + opts) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["survival", "--shape", DISK, "--times", ","],
            ["tau", "--shape", DISK, "--s", ","],
            ["mc", "--shape", DISK, "--times", ","],
        ],
    )
    def test_empty_list_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {argv[-2]} must list")

    def test_non_number_in_a_list_is_usage_error(self, capsys):
        assert main(["survival", "--shape", DISK, "--times", "0.1,abc"]) == 2
        assert capsys.readouterr().err == "error: expected a comma-separated number list, got '0.1,abc'\n"

    @pytest.mark.parametrize("method", ["exact", "expansion"])
    @pytest.mark.parametrize("times", ["-0.1", "0,-0.1", "nan", "inf"])
    def test_bad_survival_times_are_usage_errors(self, method, times, capsys):
        assert main(["survival", "--shape", DISK, "--method", method, f"--times={times}"]) == 2
        assert capsys.readouterr().err.startswith("error: times must be non-negative")

    @pytest.mark.parametrize(
        "argv",
        [
            ["pade", "--shape", DISK, "--n", "0"],
            ["lambda1", "--shape", DISK, "--n-max", "0"],
            ["table1", "--n-max", "0"],
            ["table1", "--n-max", "-3"],
        ],
    )
    def test_bad_order_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {argv[-2]} must be >= 1")

    def test_out_into_missing_directory_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "coeffs.csv"
        assert main(["coeffs", "--shape", DISK, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write --out")

    def test_bad_out_fails_before_the_work(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "simulate_survival", lambda *a: calls.append(a) or [])
        out = tmp_path / "missing" / "x.csv"
        argv = ["mc", "--shape", DISK, "--walkers", "10", "--times", "0.1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: cannot write --out")
        assert calls == []
