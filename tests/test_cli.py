import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fracrelax.cli import main
from fracrelax.kernels import KERNEL_FAMILIES, HNParams
from fracrelax.spectra import hn_modulus

DEBYE = '{"family":"HavriliakNegami","alpha":1.0,"beta":1.0,"tau":1.0}'
RABOTNOV = '{"family":"Rabotnov","alpha":0.5,"tau":1.0}'
HN_GENERAL = '{"family":"HavriliakNegami","alpha":0.2,"beta":0.9,"tau":1.0}'


def _family_model(family):
    """A model of the family on a series-route grid t/tau in 0.5..2."""
    beta = ',"beta":0.8' if family == "HavriliakNegami" else ""
    return f'{{"family":"{family}","alpha":0.6{beta},"tau":1.0}}'


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "fracrelax", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestEval:
    def test_debye_column(self, tmp_path):
        out = tmp_path / "debye.csv"
        rc = main(["eval", "--model", DEBYE, "--grid", "0:5:6", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,value,method"
        for line in lines[1:]:
            t_str, v_str, method = line.split(",")
            assert float(v_str) == pytest.approx(math.exp(-float(t_str)), rel=1e-12)
            assert method == "series"

    def test_rabotnov_crossover_methods(self, tmp_path):
        out = tmp_path / "rab.csv"
        rc = main(["eval", "--model", RABOTNOV, "--grid", "0.01:100:20:log", "--out", str(out)])
        assert rc == 0
        methods = [line.split(",")[2] for line in out.read_text().splitlines()[1:]]
        assert "series" in methods and "quadrature" in methods
        # series first, then quadrature; the switch happens once
        flips = sum(1 for a, b in zip(methods, methods[1:]) if a != b)
        assert flips == 1

    def test_seam_consistency(self, tmp_path):
        # force both routes exactly at the crossover point
        a = tmp_path / "series.csv"
        b = tmp_path / "quad.csv"
        assert main(["eval", "--model", RABOTNOV, "--grid", "9:10:2", "--method", "series", "--out", str(a)]) == 0
        assert main(["eval", "--model", RABOTNOV, "--grid", "9:10:2", "--method", "quadrature", "--out", str(b)]) == 0
        for la, lb in zip(a.read_text().splitlines()[1:], b.read_text().splitlines()[1:]):
            va, vb = float(la.split(",")[1]), float(lb.split(",")[1])
            assert va == pytest.approx(vb, rel=1e-6)

    def test_no_resolvent_exit_3(self):
        for grid in ("0.1:2:4", "6:20:4"):
            rc, out, err = run_cli(
                ["eval", "--model", DEBYE, "--grid", grid, "--quantity", "resolvent"]
            )
            assert rc == 3
            assert "no resolvent" in err

    def test_config_error_exit_2(self):
        rc, out, err = run_cli(["eval", "--model", '{"family":"Nope"}', "--grid", "0:1:2"])
        assert rc == 2
        rc, out, err = run_cli(["eval", "--model", RABOTNOV, "--grid", "5:1:2"])
        assert rc == 2
        rc, out, err = run_cli(["eval", "--model", RABOTNOV, "--grid", "0:1:2:log"])
        assert rc == 2

    def test_numerical_failure_reports_t(self):
        # forced series route beyond its validity must fail loudly
        rc, out, err = run_cli(
            ["eval", "--model", RABOTNOV, "--grid", "20:30:2", "--method", "series"]
        )
        assert rc == 3
        assert "t = " in err

    def test_general_hn_resolvent_has_no_series_route(self, capsys):
        # the general HN creep resolvent is inverted at every t > 0, so a
        # forced series route is refused rather than summed
        rc = main(["eval", "--model", HN_GENERAL, "--grid", "0.5:2:3",
                   "--quantity", "resolvent", "--method", "series"])
        assert rc == 3
        assert "series route not valid" in capsys.readouterr().err

    def test_determinism_across_runs(self, tmp_path):
        outs = []
        for name in ("a", "b", "c"):
            path = tmp_path / f"{name}.csv"
            rc = main(
                [
                    "eval",
                    "--model",
                    '{"family":"HavriliakNegami","alpha":0.61,"beta":0.8,"tau":1.0}',
                    "--grid",
                    "0.01:20:40:log",
                    "--out",
                    str(path),
                ]
            )
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("quantity", ["kernel", "relaxation"])
    def test_chgf_large_argument(self, quantity, tmp_path):
        # past t/tau ~ 366 the 1F1 series alone needs more than its
        # 500-term budget
        out = tmp_path / "chgf.csv"
        model = '{"family":"CHGF","alpha":0.6,"tau":2.0}'
        assert main(["eval", "--model", model, "--grid", "20:20000:13:log",
                     "--quantity", quantity, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 13 and all(method == "series" for _, _, method in rows)
        values = [float(v) for _, v, _ in rows]
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    def test_rzhanitsyn_relaxation_past_crossover(self, tmp_path):
        # Talbot of (1 - K)/s cannot resolve this tail (ContourError at
        # t/tau = 50); the relaxation is Q(alpha, t/tau), labelled series
        out = tmp_path / "rd.csv"
        model = '{"family":"RzhanitsynDavidson","alpha":0.7,"tau":1.0}'
        assert main(["eval", "--model", model, "--grid", "20:50:4",
                     "--quantity", "relaxation", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(t) for t, _, _ in rows] == [20.0, 30.0, 40.0, 50.0]
        assert all(method == "series" for _, _, method in rows)
        assert float(rows[0][1]) == pytest.approx(6.372816652798514e-10, rel=1e-10)

    def test_threads_option_removed(self):
        rc, out, err = run_cli(["eval", "--model", RABOTNOV, "--grid", "0.1:1:3", "--threads", "2"])
        assert rc == 2
        assert "unrecognized arguments: --threads 2" in err

    def test_forced_quadrature_relaxation_is_config_error(self):
        rc, out, err = run_cli(["eval", "--model", RABOTNOV, "--grid", "0.1:1:3",
                                "--method", "quadrature", "--quantity", "relaxation"])
        assert rc == 2
        assert "config error: forced quadrature supports kernel and resolvent only" in err

    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_forced_quadrature_matches_auto(self, family, tmp_path):
        a, b = tmp_path / "auto.csv", tmp_path / "quad.csv"
        model = _family_model(family)
        assert main(["eval", "--model", model, "--grid", "0.5:2:4", "--out", str(a)]) == 0
        assert main(["eval", "--model", model, "--grid", "0.5:2:4",
                     "--method", "quadrature", "--out", str(b)]) == 0
        for la, lb in zip(a.read_text().splitlines()[1:], b.read_text().splitlines()[1:]):
            ta, va, _ = la.split(",")
            tb, vb, method = lb.split(",")
            assert ta == tb and method == "quadrature"
            assert float(vb) == pytest.approx(float(va), rel=1e-6)

    def test_17_digit_roundtrip(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["eval", "--model", RABOTNOV, "--grid", "0.1:3:7", "--out", str(out)]) == 0
        from fracrelax.specfun import eh_alpha

        for line in out.read_text().splitlines()[1:]:
            t_str, v_str, _ = line.split(",")
            assert float(v_str) == eh_alpha(0.5, 1.0, float(t_str))


class TestSpectrumCommand:
    def test_rabotnov_closed_form(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["spectrum", "--model", RABOTNOV, "--grid", "0.1:10:5:log", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        center = rows[2]
        assert float(center[1]) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_hn_numeric(self, tmp_path):
        out = tmp_path / "s.csv"
        model = '{"family":"HavriliakNegami","alpha":0.61,"beta":0.8,"tau":1.0}'
        rc = main(["spectrum", "--model", model, "--grid", "0.1:10:7:log", "--out", str(out)])
        assert rc == 0
        values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert all(v >= 0.0 for v in values)

    @pytest.mark.parametrize(
        "model, zero_side",
        [('{"family":"RzhanitsynDavidson","alpha":0.6,"tau":1.0}', 2),
         ('{"family":"HavriliakNegami","alpha":1.0,"beta":0.6,"tau":1.0}', 2),
         ('{"family":"CHGF","alpha":0.6,"tau":1.0}', 0)],
    )
    def test_one_sided_cut(self, model, zero_side, tmp_path):
        # off the cut exactly 0 (it printed about 1e-300); at the branch
        # point tau = 1 inf (it printed 2.58e179 for Rzhanitsyn-Davidson)
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--model", model, "--grid", "0.1:10:3:log", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows[1][1] == "inf"
        assert rows[zero_side][1] == "0"
        assert float(rows[2 - zero_side][1]) == pytest.approx(
            math.sin(0.6 * math.pi) / math.pi * (10.0 - 1.0) ** -0.6, rel=1e-12
        )


def write_fit_data(path, noise=0.0, seed=None):
    p = HNParams(0.61, 1.0, 1.0, m_inf=2.0, m_0=1.0)
    omega = np.logspace(-3, 3, 50)
    rows = ["omega,re,im"]
    rng = np.random.default_rng(seed)
    for w in omega:
        m = hn_modulus(p, float(w))
        if noise:
            m += noise * abs(m) * complex(rng.standard_normal(), rng.standard_normal())
        rows.append(f"{float(w)!r},{m.real!r},{m.imag!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


class TestFitCommand:
    def test_fit_roundtrip(self, tmp_path):
        data = tmp_path / "data.csv"
        write_fit_data(data)
        out = tmp_path / "fit.json"
        rc = main(["fit", "--in", str(data), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["converged"] is True
        assert report["params"]["alpha"] == pytest.approx(0.61, abs=0.005)
        assert report["params"]["tau0"] == pytest.approx(1.0, rel=0.005)

    def test_malformed_csv_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("omega;re;im\n1;2;3\n", encoding="utf-8")
        rc, out, err = run_cli(["fit", "--in", str(bad)])
        assert rc == 2


class TestInvertCommand:
    @pytest.mark.parametrize("family", KERNEL_FAMILIES)
    def test_every_family_kernel_image(self, family, tmp_path):
        out = tmp_path / "inv.csv"
        rc = main(["invert", "--model", _family_model(family), "--grid", "0.5:2:4",
                   "--quantity", "kernel", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 4
        for line in lines:
            t_str, series, inverted, rel = line.split(",")
            assert float(inverted) == pytest.approx(float(series), rel=1e-6)

    def test_rows_and_rel_diff(self, tmp_path):
        out = tmp_path / "inv.csv"
        rc = main(["invert", "--model", DEBYE, "--grid", "0.5:2:4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,series_value,inverted_value,rel_diff"
        for line in lines[1:]:
            t_str, series, inverted, rel = line.split(",")
            assert float(series) == pytest.approx(math.exp(-float(t_str)), rel=1e-12)
            assert float(rel) < 1e-8

    def test_euler_method(self, tmp_path):
        out = tmp_path / "inv.csv"
        rc = main(["invert", "--model", DEBYE, "--grid", "0.5:2:3", "--method", "euler", "--out", str(out)])
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[3]) < 1e-5


    def test_general_hn_resolvent_leaves_series_blank(self, tmp_path):
        out = tmp_path / "inv.csv"
        rc = main(["invert", "--model", HN_GENERAL, "--grid", "0.5:2:3",
                   "--quantity", "resolvent", "--out", str(out)])
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            t_str, series, inverted, rel = line.split(",")
            assert series == "" and rel == ""
            assert float(inverted) > 0.0


class TestModuliPair:
    # the moduli are given together with m_inf >= m_0 > 0, for every family;
    # anything else is a configuration error, refused before the grid runs
    @pytest.mark.parametrize("command", ["eval", "spectrum", "invert"])
    @pytest.mark.parametrize("moduli", ['"m_inf":2', '"m_inf":1,"m_0":2'])
    @pytest.mark.parametrize("family", ["HavriliakNegami", "Abel"])
    def test_bad_moduli_exit_2(self, command, moduli, family, capsys):
        beta = ',"beta":0.8' if family == "HavriliakNegami" else ""
        model = f'{{"family":"{family}","alpha":0.6{beta},"tau":1.5,{moduli}}}'
        quantity = ["--quantity", "relaxation"] if command == "eval" else []
        rc = main([command, "--model", model, "--grid", "0.01:1:3", *quantity])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


def loaded_by(code, package="scipy"):
    """Names of the ``package`` modules a fresh interpreter holds after running code."""
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def main_call(*argv):
    return f"from fracrelax.cli import main\nassert main({list(argv)!r}) == 0\n"


class TestImportContract:
    # scipy loads on the first QUADPACK call or fit, never on import or eval;
    # numpy on the first fixed-node rule, fit or validate, never on import
    SERIES_AND_INVERSION = (
        ["eval", "--model", '{"family":"HavriliakNegami","alpha":0.6,"beta":0.8,"tau":1.0}',
         "--grid", "0.01:1:5"],
        ["spectrum", "--model", '{"family":"RzhanitsynDavidson","alpha":0.6,"tau":1.0}',
         "--grid", "0.1:10:5:log"],
        ["invert", "--model", '{"family":"HavriliakNegami","alpha":0.6,"beta":0.8,"tau":1.0}',
         "--grid", "0.5:2:4", "--method", "talbot"],
    )

    def test_import_loads_no_scipy(self):
        assert loaded_by("import fracrelax") == []

    def test_import_loads_no_numpy(self):
        assert loaded_by("import fracrelax", "numpy") == []

    def test_series_and_inversion_commands_load_no_scipy(self, tmp_path):
        out = str(tmp_path / "out.csv")
        for argv in self.SERIES_AND_INVERSION:
            assert loaded_by(main_call(*argv, "--out", out)) == [], argv[0]

    def test_series_and_inversion_commands_load_no_numpy(self, tmp_path):
        out = str(tmp_path / "out.csv")
        for argv in self.SERIES_AND_INVERSION:
            assert loaded_by(main_call(*argv, "--out", out), "numpy") == [], argv[0]

    def test_rabotnov_quadrature_route_loads_no_scipy(self, tmp_path):
        out = str(tmp_path / "out.csv")
        for grid, quantity in (("20:30:2", "kernel"), ("200:3000:2", "relaxation")):
            argv = ("eval", "--model", RABOTNOV, "--grid", grid, "--quantity", quantity,
                    "--out", out)
            assert loaded_by(main_call(*argv)) == [], quantity
            rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
            assert [row.split(",")[2] for row in rows] == ["quadrature"] * 2

    def test_fit_loads_scipy_optimize(self, tmp_path):
        data = tmp_path / "data.csv"
        write_fit_data(data)
        loaded = loaded_by(main_call("fit", "--in", str(data), "--out",
                                           str(tmp_path / "fit.json")))
        assert "scipy.optimize" in loaded


# QUADPACK and least_squares as the first calls of a process; the values are
# those of the same calls in a process that loaded scipy long before
FIRST_CALLS = """
import numpy as np
from fracrelax.fitting import fit_hn
from fracrelax.kernels import HNParams
from fracrelax.quadrature import eh_alpha_integral, i_alpha
from fracrelax.spectra import hn_modulus
omega = np.logspace(-2, 2, 16)
samples = [hn_modulus(HNParams(0.6, 0.8, 1.0, m_inf=2.0, m_0=1.0), float(w)) for w in omega]
values = [i_alpha(0.5, 20.0), eh_alpha_integral(0.5, 1.0, 20.0)]
p = fit_hn(omega, samples).params
values += [p.alpha, p.beta, p.tau0, p.m_inf, p.m_0]
hexes = [float(v).hex() for v in values]
"""


def test_first_calls_in_fresh_process_are_bitwise_in_process():
    import scipy.integrate  # noqa: F401  (in-process side: scipy already loaded)

    proc = subprocess.run(
        [sys.executable, "-c", FIRST_CALLS + "print(' '.join(hexes))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    scope = {}
    exec(FIRST_CALLS, scope)
    assert proc.stdout.split() == scope["hexes"]


class TestValidateCommand:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["validate", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        assert report["schema"] == 1
        assert len(report["checks"]) >= 20

    def test_sabotage_names_splitting_condition(self, tmp_path):
        out = tmp_path / "report.json"
        rc, stdout, err = run_cli(["validate", "--sabotage", "--out", str(out)])
        assert rc == 1
        assert "splitting_condition" in err
        report = json.loads(out.read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["splitting_condition"]

    def test_only_filter(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["validate", "--only", "spectra", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert {c["module"] for c in report["checks"]} == {"spectra"}

    def test_validate_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["validate", "--only", "resolvent", "--out", str(a)]) == 0
        assert main(["validate", "--only", "resolvent", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestLogging:
    def test_env_var_enables_info(self):
        import os
        import subprocess

        env = dict(os.environ, FRACRELAX_LOG="INFO")
        proc = subprocess.run(
            [sys.executable, "-m", "fracrelax", "eval", "--model", RABOTNOV, "--grid", "0.1:1:3"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "INFO" in proc.stderr
        assert proc.stdout.startswith("t,value,method")

    def test_quiet_by_default(self):
        rc, out, err = run_cli(["eval", "--model", RABOTNOV, "--grid", "0.1:1:3"])
        assert rc == 0
        assert "INFO" not in err


class TestConfigFile:
    def test_config_drives_eval(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "model": {"family": "Rabotnov", "alpha": 0.5, "tau": 1.0},
                    "grid": {"start": 0.1, "stop": 2.0, "points": 4, "spacing": "linear"},
                    "out": str(out),
                }
            ),
            encoding="utf-8",
        )
        assert main(["eval", "--config", str(cfg)]) == 0
        assert out.read_text().startswith("t,value,method")

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"schema": 1, "surprise": true}', encoding="utf-8")
        rc, stdout, err = run_cli(["eval", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config keys" in err

    def test_threads_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema": 1, "model": {"family": "Rabotnov", "alpha": 0.5},
                                   "grid": "0.1:1:3", "threads": 2}), encoding="utf-8")
        rc, stdout, err = run_cli(["eval", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config keys: ['threads']" in err

    def test_wrong_schema_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"schema": 2}', encoding="utf-8")
        rc, stdout, err = run_cli(["eval", "--config", str(cfg)])
        assert rc == 2

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        cfg.write_text(
            json.dumps({"schema": 1, "model": {"family": "Rabotnov", "alpha": 0.5, "tau": 1.0}, "grid": "0:1:2"}),
            encoding="utf-8",
        )
        assert main(["eval", "--config", str(cfg), "--grid", "0:1:3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4
