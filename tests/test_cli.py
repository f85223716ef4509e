import json
import math
import os

import numpy as np
import pytest

from qmrand import jsonio
from qmrand.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, main
from qmrand.decompositions import sqrt_decomposition_qudit, trivial_decomposition
from qmrand.povm import NoiseModel, Povm, PureState, noisy_projective, unbiased_state

from conftest import random_povm, random_qubit_two_outcome, random_unitary


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

    def test_trivial_povm_min_entropy_is_plus_zero(self, files, capsys):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(Povm((np.eye(2) / 2, np.eye(2) / 2))))
        code, out = run(capsys, ["compute", povm])
        assert code == EXIT_OK
        assert '"hmin_bits": 0.0,' in out
        assert "-0.0" not in out

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

    def test_minimize_state_beyond_the_solver_limit_exit_2(self, files, capsys):
        # the search meets the solver's dimension limit on its first solve
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(noisy_projective(9, 0.3)))
        code = main(["compute", povm, "--minimize-state"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT and "d <= 8" in err and "Traceback" not in err

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

    def test_random_qutrit_povm_needs_state(self, files, capsys):
        # no closed form: the element traces of a random 3-outcome POVM are not 1
        tmp, write = files
        pv = Povm(tuple(random_povm(np.random.default_rng(1), 3, 3)))
        code = main(["compute", write("povm.json", jsonio.povm_to_json(pv))])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT and "provide --state or --minimize-state" in err

    def test_solver_error_exit_3(self, files, capsys):
        # one Newton step cannot reach the barrier's end
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(noisy_projective(3, 0.2)))
        state = write("state.json", jsonio.state_to_json(unbiased_state(3)))
        cfg = write("cfg.json", {"max_iters": 1})
        code = main(["compute", povm, "--state", state, "--solver-config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_SOLVER
        assert err.startswith("solver error:") and "iteration cap 1 exceeded" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("d", [2, 3])
    def test_zero_element_exit_0(self, files, capsys, d):
        # solved on the faces: the zero outcome drops out and P* = 1
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(Povm((np.eye(d), np.zeros((d, d))))))
        state = write("state.json", jsonio.state_to_json(unbiased_state(d)))
        code, out = run(capsys, ["compute", povm, "--state", state])
        assert code == EXIT_OK
        rep = json.loads(out)["sdp_at_state"]
        assert rep["restored"] and abs(rep["pguess"] - 1.0) <= 1e-6
        assert -1e-12 <= rep["gap"] <= 1e-6

    def test_failed_decomposition_check_exit_3(self, files, capsys, monkeypatch):
        import qmrand.sdp as sdp
        from qmrand.decompositions import DecompositionReport

        monkeypatch.setattr(sdp, "verify_decomposition",
                            lambda decomp, povm, tol=1e-9: DecompositionReport(0.0, 0.0, 2e-8, tol))
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(noisy_projective(2, 0.3)))
        state = write("state.json", jsonio.state_to_json(unbiased_state(2)))
        code = main(["compute", povm, "--state", state])
        err = capsys.readouterr().err
        assert code == EXIT_SOLVER
        assert err.startswith("solver error:") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", [3, 4])
    def test_minimize_state_bounds_pstar_above(self, files, capsys, seed):
        # P* <= P(psi*) <= dual_value: the re-solve's dual value bounds Theorem 1's P*
        tmp, write = files
        pv = random_qubit_two_outcome(np.random.default_rng(seed))
        povm = write("povm.json", jsonio.povm_to_json(pv))
        cfg = write("cfg.json", {"multistarts": 2})
        code, out = run(capsys, ["compute", povm, "--minimize-state", "--solver-config", cfg])
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["method"] == "theorem1"
        minimized = rep["minimized"]
        assert rep["pguess"] <= minimized["dual_value"] + 1e-9
        assert 0.0 <= minimized["gap"] <= 20 * rep["tol"]

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

    @staticmethod
    def _analytic(files, capsys, elements, amplitudes):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(Povm(tuple(elements))))
        state = write("state.json", jsonio.state_to_json(PureState(np.asarray(amplitudes))))
        code, out = run(capsys, ["certify", povm, state, "--analytic"])
        return code, json.loads(out)

    @pytest.mark.parametrize("case", ["swapped", "rotated", "phased"])
    def test_analytic_any_basis_order_and_phase(self, files, capsys, case):
        # the POVM in any basis and outcome order, at any state unbiased to that basis
        d, eps = 3, 0.4
        elements = list(noisy_projective(d, eps).elements)
        psi = unbiased_state(d).amplitudes
        if case == "swapped":
            elements[0], elements[1] = elements[1], elements[0]
        elif case == "rotated":
            U = random_unitary(np.random.default_rng(0), d)
            elements = [U @ E @ U.conj().T for E in elements]
            psi = U @ psi
        else:
            psi = np.array([1.0, 1j, -1.0]) / np.sqrt(3.0)
        code, rep = self._analytic(files, capsys, elements, psi)
        assert code == EXIT_OK and rep["passed"]
        assert abs(rep["gap"]) < 1e-12
        assert abs(rep["dual"]["dual_value"] - NoiseModel(d, eps).pguess_star) < 1e-12
        assert rep["slackness_residual"] < 1e-9

    def test_analytic_biased_state_fails(self, files, capsys):
        code, rep = self._analytic(files, capsys, noisy_projective(3, 0.4).elements,
                                   [0.8, 0.36, 0.48])
        assert code == EXIT_VALIDATION and not rep["passed"]

    @pytest.mark.parametrize("elements", [
        random_povm(np.random.default_rng(1), 3, 3),   # not noisy projective
        noisy_projective(3, 0.0).elements,             # eps = 0, outside 0 < eps < 1
    ], ids=["random", "projective"])
    def test_analytic_needs_a_noisy_projective_povm(self, files, capsys, elements):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(Povm(tuple(elements))))
        state = write("state.json", jsonio.state_to_json(unbiased_state(3)))
        code = main(["certify", povm, state, "--analytic"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT and "--analytic requires a noisy projective POVM" in err

    def test_needs_a_decomposition_or_analytic(self, files, capsys):
        tmp, write = files
        povm = write("povm.json", jsonio.povm_to_json(noisy_projective(2, 0.3)))
        state = write("state.json", jsonio.state_to_json(unbiased_state(2)))
        code = main(["certify", povm, state])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT and "provide a decomposition file or --analytic" in err

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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 9, 12, 16])
    def test_entropies_full_noise_row_non_negative(self, files, capsys, d):
        code, out = run(capsys, ["entropies", str(d), "--points", "3"])
        assert code == EXIT_OK
        last = out.strip().splitlines()[-1].split(",")
        assert last[0] == "1"
        assert not any(field.startswith("-") for field in last), last

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

    def test_entropies_large_d_closed_forms(self, files, capsys):
        # no d x d matrix is built, so d = 100000 costs what d = 2 does
        d = 100000
        code, out = run(capsys, ["entropies", str(d), "--points", "3"])
        assert code == EXIT_OK
        rows = [list(map(float, ln.split(","))) for ln in out.strip().splitlines()[1:]]
        assert [row[0] for row in rows] == [0.0, 0.5, 1.0]

        def h2(x):
            return -(x * math.log2(x) + (1 - x) * math.log2(1 - x)) if 0 < x < 1 else 0.0

        for eps, hmax_b, vn_b, state_vn, hmin_star in rows:
            A = d - eps * (d - 1)
            pstar = min(1.0, (math.sqrt(A) + (d - 1) * math.sqrt(eps)) ** 2 / d**2)
            lmax = 1 - eps + eps / d
            expected = (
                math.log2(A),
                h2(pstar) + (1 - pstar) * math.log2(d - 1),
                math.log2(d) - h2(lmax) - (1 - lmax) * math.log2(d - 1),
                -math.log2(pstar),
            )
            for got, want in zip((hmax_b, vn_b, state_vn, hmin_star), expected):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (eps, got, want)


@pytest.mark.parametrize("target", ["missing/x.csv", "existing_dir"])
def test_unwritable_output_exit_2_without_traceback(files, capsys, target):
    tmp, _ = files
    (tmp / "existing_dir").mkdir()
    out_path = tmp / target
    code = main(["entropies", "2", "--points", "3", "--output", str(out_path)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(out_path.parent.glob("*.tmp")) and not list(tmp.glob("*.tmp"))


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
    "config-removed-restore-eta": (
        ["compute", "{povm}", "--state", "{state}", "--solver-config", "{cfg_restore_eta}"], None),
    "povm-dim-not-an-int": (["compute", "{povm_dim_abc}"], None),
    "state-dim-not-an-int": (["compute", "{povm}", "--state", "{state_dim_abc}"], None),
    "decomposition-outcomes-not-an-int": (["certify", "{povm}", "{state}", "{dec_outcomes_abc}"], None),
    "decomposition-block-of-another-dim": (["certify", "{povm}", "{state}", "{dec_block_3x3}"], None),
    "povm-entry-nan": (["compute", "{povm_nan}", "--state", "{state}"], None),
    "state-amplitude-nan": (["compute", "{povm}", "--state", "{state_nan}"], None),
}


def _malformed_files(write) -> dict:
    """Wire-format files with a count that is not an int or an entry that is NaN."""
    povm, state = noisy_projective(2, 0.15), unbiased_state(2)
    povm_dim_abc = jsonio.povm_to_json(povm)
    povm_dim_abc["elements"][0]["dim"] = "abc"
    state_dim_abc = {**jsonio.state_to_json(state), "dim": "abc"}
    dec = jsonio.decomposition_to_json(sqrt_decomposition_qudit(NoiseModel(2, 0.15), state))
    dec_block_3x3 = {**dec, "K": [[jsonio.matrix_to_json(np.eye(3))] * 2] * 2}
    # a 3-outcome qubit POVM with one NaN entry passes every comparison
    E = povm.elements[0]
    povm_nan = jsonio.povm_to_json(Povm((E / 2, E / 2, povm.elements[1])))
    povm_nan["elements"][0]["entries"][1][1][0] = math.nan
    state_nan = jsonio.state_to_json(state)
    state_nan["amplitudes"][0][0] = math.nan
    return {
        "povm_dim_abc": write("povm_dim_abc.json", povm_dim_abc),
        "state_dim_abc": write("state_dim_abc.json", state_dim_abc),
        "dec_outcomes_abc": write("dec_outcomes_abc.json", {**dec, "outcomes": "abc"}),
        "dec_block_3x3": write("dec_block_3x3.json", dec_block_3x3),
        "povm_nan": write("povm_nan.json", povm_nan),
        "state_nan": write("state_nan.json", state_nan),
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
        "cfg_restore_eta": write("cfg_restore_eta.json", {"restore_eta": 1e-8}),
        "cfg_long_int": str(tmp / "cfg_long_int.json"),
        **_malformed_files(write),
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


def test_report_key_order(files, capsys):
    # the certify and joint-noise reports are built from their dataclasses; the
    # keys and their order are part of the output
    tmp, write = files
    povm = write("povm.json", jsonio.povm_to_json(noisy_projective(3, 0.2)))
    state = write("state.json", jsonio.state_to_json(unbiased_state(3)))
    rep = json.loads(run(capsys, ["certify", povm, state, "--analytic"])[1])
    assert list(rep) == ["tol", "primal", "primal_value", "dual", "gap", "slackness_residual",
                         "passed"]
    assert list(rep["primal"]) == ["max_psd_violation", "max_proportionality_violation",
                                   "max_reconstruction_violation", "tol", "passed"]
    assert list(rep["dual"]) == ["dual_value", "feasible", "min_eig_slack",
                                 "max_trace_violation"]
    rep = json.loads(run(capsys, ["joint-noise", "0.15"])[1])
    assert list(rep) == ["epsilon", "epsilon_star", "measurement_epsilon", "delta", "guess_value",
                         "single_noise_at_equal_delta", "constraints", "weights", "states",
                         "povms"]
    assert list(rep["constraints"]) == [
        "weight_sum_violation", "weight_negativity", "state_norm_violation",
        "povm_psd_violation", "povm_completeness_violation", "state_average_violation",
        "povm_marginal_violation", "tol", "passed"]


def test_deterministic_outputs(files, capsys):
    tmp, write = files
    povm = write("povm.json", jsonio.povm_to_json(noisy_projective(2, 0.4)))
    cfg = write("cfg.json", {"multistarts": 2, "seed": 11})
    _, out1 = run(capsys, ["compute", povm, "--minimize-state", "--solver-config", cfg])
    _, out2 = run(capsys, ["compute", povm, "--minimize-state", "--solver-config", cfg])
    assert out1 == out2
