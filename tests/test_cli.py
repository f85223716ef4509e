import json
import os

import numpy as np
import pytest

from qmrand import jsonio
from qmrand.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from qmrand.decompositions import sqrt_decomposition_qudit, trivial_decomposition
from qmrand.povm import NoiseModel, Povm, noisy_projective, unbiased_state


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return tmp_path, write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCompute:
    def test_noisy_qubit_with_state(self, files, capsys):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(noisy_projective(2, 0.15)))
        state = write("state.json", jsonio.state_to_json(unbiased_state(2)))
        code, out = run(capsys, ["compute", povm, "--state", state])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert abs(rep["pguess"] - 0.763391343821) < 1e-9
        assert abs(rep["hmin_bits"] - 0.389505267119) < 1e-9
        assert rep["method"] == "theorem1"
        assert abs(rep["sdp_at_state"]["pguess"] - rep["pguess"]) < 1e-5

    def test_trivial_povm(self, files, capsys):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(Povm((np.eye(2) / 2, np.eye(2) / 2))))
        code, out = run(capsys, ["compute", povm])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert abs(rep["pguess"] - 1.0) < 1e-9
        assert abs(rep["hmin_bits"]) < 1e-9

    def test_minimize_state_qutrit(self, files, capsys):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(noisy_projective(3, 0.2)))
        cfg = write("cfg.json", {"multistarts": 2, "seed": 7})
        code, out = run(
            capsys, ["compute", povm, "--minimize-state", "--solver-config", cfg]
        )
        assert code == EXIT_OK
        rep = json.loads(out)
        assert abs(rep["pguess"] - 0.698272) < 1e-5
        overlaps = [a[0] ** 2 + a[1] ** 2 for a in rep["minimized"]["state"]["amplitudes"]]
        assert np.allclose(overlaps, 1 / 3, atol=1e-3)

    def test_malformed_json_exit_2(self, files, capsys):
        tmp, write = files
        bad = tmp / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, ["compute", str(bad)])
        assert code == EXIT_INPUT

    def test_uncertified_povm_needs_state(self, files, capsys):
        tmp, write = files
        M1 = np.diag([0.6, 0.25, 0.15]).astype(complex)
        M2 = np.diag([0.25, 0.6, 0.15]).astype(complex)
        pv = Povm((M1, M2, np.eye(3) - M1 - M2))
        povm = write("povm.json", jsonio.povm_to_json(pv))
        code, _ = run(capsys, ["compute", povm])
        assert code == EXIT_INPUT
        state = write("state.json", jsonio.state_to_json(unbiased_state(3)))
        code, out = run(capsys, ["compute", povm, "--state", state])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["method"] == "sdp"
        assert 1 / 3 <= rep["pguess"] <= 1.0

    def test_solver_error_exit_3(self, files, capsys):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(Povm((np.eye(2), np.zeros((2, 2))))))
        state = write("state.json", jsonio.state_to_json(unbiased_state(2)))
        code = main(["compute", povm, "--state", state])
        err = capsys.readouterr().err
        assert code == EXIT_SOLVER
        assert err.startswith("solver error:")
        assert "Traceback" not in err

    def test_writes_output_file(self, files, capsys):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(noisy_projective(2, 0.3)))
        out_path = tmp / "report.json"
        code, _ = run(capsys, ["compute", povm, "-o", str(out_path)])
        assert code == EXIT_OK
        assert json.loads(out_path.read_text())["method"] == "theorem1"


class TestCertify:
    def test_analytic_qutrit(self, files, capsys):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(noisy_projective(3, 0.2)))
        state = write("state.json", jsonio.state_to_json(unbiased_state(3)))
        code, out = run(capsys, ["certify", povm, state, "--analytic"])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["passed"]
        assert abs(rep["dual"]["dual_value"] - 0.698271224486) < 1e-9
        assert abs(rep["gap"]) < 1e-9
        assert rep["slackness_residual"] < 1e-9

    def test_analytic_qubit(self, files, capsys):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(noisy_projective(2, 0.15)))
        state = write("state.json", jsonio.state_to_json(unbiased_state(2)))
        code, out = run(capsys, ["certify", povm, state, "--analytic"])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert abs(rep["dual"]["dual_value"] - 0.763391343821) < 1e-9

    def test_corrupted_decomposition(self, files, capsys):
        tmp, write = files
        noise = NoiseModel(3, 0.2)
        povm = write("povm.json", jsonio.povm_to_json(noise.povm()))
        state = write("state.json", jsonio.state_to_json(unbiased_state(3)))
        dec = sqrt_decomposition_qudit(noise, unbiased_state(3))
        payload = jsonio.decomposition_to_json(dec)
        payload["K"][0][0]["entries"][0][0][0] -= 1e-3
        decfile = write("dec.json", payload)
        code, out = run(capsys, ["certify", povm, state, decfile])
        assert code == EXIT_VALIDATION
        rep = json.loads(out)
        assert not rep["primal"]["passed"]

    def test_file_decomposition_with_numeric_dual(self, files, capsys):
        tmp, write = files
        noise = NoiseModel(2, 0.3)
        povm = write("povm.json", jsonio.povm_to_json(noise.povm()))
        state = write("state.json", jsonio.state_to_json(unbiased_state(2)))
        dec = sqrt_decomposition_qudit(noise, unbiased_state(2))
        decfile = write("dec.json", jsonio.decomposition_to_json(dec))
        code, out = run(capsys, ["certify", povm, state, decfile])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["passed"]
        assert rep["gap"] < 1e-5

    def test_tol_is_only_the_validation_tolerance(self, files, capsys):
        # --tol 1e-9 restates the default validation tolerance; the certificate
        # solve keeps the solver's own tol (at tol 1e-9 it hits the iteration cap)
        tmp, write = files
        noise = NoiseModel(3, 0.2)
        povm = write("povm.json", jsonio.povm_to_json(noise.povm()))
        state = write("state.json", jsonio.state_to_json(unbiased_state(3)))
        dec = sqrt_decomposition_qudit(noise, unbiased_state(3))
        decfile = write("dec.json", jsonio.decomposition_to_json(dec))
        code, out = run(capsys, ["certify", povm, state, decfile, "--tol", "1e-9"])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["tol"] == 1e-9 and rep["passed"]


class TestSweep:
    def test_fig3_plateau(self, files, capsys):
        tmp, _ = files
        out_path = tmp / "fig3.csv"
        code, _ = run(capsys, ["sweep", "--fig3", "--points", "101", "-o", str(out_path)])
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "delta,single_noise,shared_lower_bound"
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 101
        mid = rows[50]
        assert abs(mid[0] - 0.5) < 1e-12
        assert mid[2] == 1.0
        for row in rows:
            assert row[2] >= row[1] - 1e-12

    def test_entropies_spot_row(self, files, capsys):
        tmp, _ = files
        code, out = run(capsys, ["entropies", "2", "--points", "21"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,hmax_bound,vn_bound,state_vn_star,hmin_star"
        row = dict(zip(lines[0].split(","), map(float, lines[4].split(","))))
        assert abs(row["epsilon"] - 0.15) < 1e-12
        last = list(map(float, lines[-1].split(",")))
        assert all(abs(v) < 1e-9 for v in last[1:])

    def test_sweep_entropies_alias_removed(self, files, capsys):
        code, _ = run(capsys, ["sweep", "--entropies", "2"])
        assert code == EXIT_INPUT

    def test_entropies_value_at_015_grid(self, files, capsys):
        code, out = run(capsys, ["entropies", "2", "--points", "21"])
        rows = [list(map(float, ln.split(","))) for ln in out.strip().splitlines()[1:]]
        row = rows[3]  # epsilon = 0.15
        assert abs(row[0] - 0.15) < 1e-12
        assert abs(row[1] - 0.887525) < 1e-6
        assert abs(row[4] - 0.389505) < 1e-6

    def test_grid_cap(self, files, capsys):
        code, _ = run(capsys, ["sweep", "--fig3", "--points", "20000"])
        assert code == EXIT_INPUT


class TestCoarse:
    def test_report_values(self, files, capsys):
        code, out = run(capsys, ["coarse", "4", "0.2"])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert abs(rep["optimal_value"] - 0.8) < 1e-12
        assert abs(rep["inflated_attack_value"] - 0.8) < 1e-12
        assert abs(rep["coarse_grained_attack_value"] - 0.756155281281) < 1e-6
        assert abs(rep["sdp_value"] - 0.8) < 1e-5

    def test_odd_d_usage_error(self, files, capsys):
        code, _ = run(capsys, ["coarse", "5", "0.2"])
        assert code == EXIT_INPUT


class TestJointNoise:
    def test_threshold(self, files, capsys):
        code, out = run(capsys, ["joint-noise", "0.292893218813"])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert abs(rep["guess_value"] - 1.0) < 1e-9
        assert rep["constraints"]["passed"]

    def test_below_threshold(self, files, capsys):
        code, out = run(capsys, ["joint-noise", "0.15"])
        rep = json.loads(out)
        assert code == EXIT_OK
        assert abs(rep["guess_value"] - 0.947765284496) < 1e-9
        assert abs(rep["single_noise_at_equal_delta"] - 0.845685460354) < 1e-9

    def test_above_threshold(self, files, capsys):
        code, out = run(capsys, ["joint-noise", "0.5"])
        rep = json.loads(out)
        assert code == EXIT_OK
        assert abs(rep["guess_value"] - 1.0) < 1e-9
        assert rep["constraints"]["passed"]

    def test_out_of_range(self, files, capsys):
        code, _ = run(capsys, ["joint-noise", "1.0"])
        assert code == EXIT_INPUT


def test_qrand_tol_env(files, capsys, monkeypatch):
    tmp, write = files
    monkeypatch.setenv("QRAND_TOL", "1e-3")
    povm = write("povm.json", jsonio.povm_to_json(noisy_projective(2, 0.15)))
    state = write("state.json", jsonio.state_to_json(unbiased_state(2)))
    code, out = run(capsys, ["certify", povm, state, "--analytic"])
    assert code == EXIT_OK
    assert json.loads(out)["tol"] == 1e-3


# Bad numbers at the boundary: argv templates over the files written below,
# and the value of QRAND_TOL (None: unset).
BAD_NUMBERS = {
    "tol-zero": (["compute", "{povm}", "--state", "{state}", "--tol", "0"], None),
    "tol-negative": (["compute", "{povm}", "--state", "{state}", "--tol", "-1"], None),
    "qrand-tol-not-a-number": (["certify", "{povm}", "{state}", "--analytic"], "abc"),
    "grid-negative": (["sweep", "--fig3", "--points", "-1"], None),
    "config-tol-string": (
        ["compute", "{povm}", "--state", "{state}", "--solver-config", "{cfg_string}"], None),
    "config-not-object": (
        ["compute", "{povm}", "--state", "{state}", "--solver-config", "{cfg_list}"], None),
    "config-tol-huge-int": (
        ["compute", "{povm}", "--state", "{state}", "--solver-config", "{cfg_huge_tol}"], None),
    "config-int-over-4300-digits": (
        ["compute", "{povm}", "--state", "{state}", "--solver-config", "{cfg_long_int}"], None),
    "config-unknown-key": (
        ["compute", "{povm}", "--state", "{state}", "--solver-config", "{cfg_unknown_key}"], None),
}


@pytest.mark.parametrize("argv, qrand_tol", BAD_NUMBERS.values(), ids=BAD_NUMBERS.keys())
def test_bad_numbers_exit_2_without_traceback(files, capsys, monkeypatch, argv, qrand_tol):
    tmp, write = files
    paths = {
        "povm": write("povm.json", jsonio.povm_to_json(noisy_projective(2, 0.15))),
        "state": write("state.json", jsonio.state_to_json(unbiased_state(2))),
        "cfg_string": write("cfg_string.json", {"tol": "abc"}),
        "cfg_list": write("cfg_list.json", [1, 2]),
        "cfg_huge_tol": write("cfg_huge_tol.json", {"tol": 10**400}),
        "cfg_unknown_key": write("cfg_unknown_key.json", {"tolerance": 1e-3}),
        "cfg_long_int": str(tmp / "cfg_long_int.json"),
    }
    (tmp / "cfg_long_int.json").write_text('{"seed": 1' + "0" * 5000 + "}")
    monkeypatch.delenv("QRAND_TOL", raising=False)
    if qrand_tol is not None:
        monkeypatch.setenv("QRAND_TOL", qrand_tol)
    code = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_deterministic_outputs(files, capsys):
    tmp, write = files
    povm = write("povm.json", jsonio.povm_to_json(noisy_projective(2, 0.4)))
    cfg = write("cfg.json", {"multistarts": 2, "seed": 11})
    _, out1 = run(capsys, ["compute", povm, "--minimize-state", "--solver-config", cfg])
    _, out2 = run(capsys, ["compute", povm, "--minimize-state", "--solver-config", cfg])
    assert out1 == out2
