"""Command-line front end.

Subcommands: ``compute`` (guessing probability / min-entropy of a POVM),
``certify`` (check a decomposition and a dual certificate), ``sweep --fig3``
(shared- vs single-noise curves as CSV), ``entropies`` (entropy-curve CSV for
one dimension), ``coarse`` (coarse-graining study) and ``joint-noise``
(shared-noise attack).  Outcome indices in human-readable output are 1-based.

Exit codes: 0 success and all validations passed, 1 validation failure,
2 malformed input or usage error (bad numbers included: a tolerance that is
not finite and positive, a solver config that fails ``SolverConfig``'s
checks, a grid outside 1..10000 points), 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, replace

import numpy as np

from . import jsonio
from .closed_form import (
    METHOD_SDP,
    detect_noisy_projective,
    pguess_star_certified,
    pguess_star_qubit_two_outcome,
    two_outcome_upper_bound,
)
from .decompositions import (
    EPSILON_STAR,
    Decomposition,
    block_uniform_state,
    coarse_grain_eve_attack,
    coarse_grained_attack_value,
    inflate_qubit_decomposition,
    joint_noise_decomposition,
    sqrt_decomposition_qubit,
    sqrt_decomposition_qudit,
    verify_decomposition,
)
from .entropy import entropy_curve_point
from .linalg import DomainError, SolverError, ValidationError, min_entropy_bits
from .noise_comparison import single_noise_curve, sweep_curves
from .povm import (
    NoiseModel,
    PureState,
    coarse_grain,
    halves_partition,
    noisy_projective,
    unbiased_state,
)
from .sdp import (
    MAX_SDP_DIM,
    DualCertificate,
    SolverConfig,
    build_dual_certificate_noisy_projective,
    complementary_slackness_residual,
    minimize_over_states,
    solve_primal,
    verify_dual_certificate,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _verify_tol(args) -> float:
    """The validation tolerance: --tol, else QRAND_TOL, else 1e-9; checked like SolverConfig.tol."""
    tol, env = args.verify_tol, os.environ.get("QRAND_TOL")
    if tol is None:
        try:
            tol = float(env) if env else 1e-9
        except ValueError:
            raise ValidationError(f"QRAND_TOL must be a number, got {env!r}") from None
    return SolverConfig(tol=tol).tol


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an int over 4300 digits
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc


def _solver_config(args) -> SolverConfig:
    """--solver-config, else the defaults; the --tol of compute and coarse sets its tol."""
    if getattr(args, "solver_config", None):
        cfg = SolverConfig.from_json_dict(_load_json(args.solver_config))
    else:
        cfg = SolverConfig()
    if getattr(args, "tol", None) is not None:
        cfg = replace(cfg, tol=args.tol)
    return cfg


def _grid(points: int) -> np.ndarray:
    """``points`` evenly spaced values on [0, 1], for 1 <= points <= 10000."""
    if not 1 <= points <= 10_000:
        raise ValidationError(f"grid size must be between 1 and 10000 points, got {points}")
    return np.linspace(0.0, 1.0, points)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.{jsonio.SIGNIFICANT_DIGITS}g}" for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def cmd_compute(args) -> int:
    povm = jsonio.povm_from_json(_load_json(args.povm))
    cfg = _solver_config(args)
    report: dict = {"dim": povm.dim, "outcomes": povm.num_outcomes, "tol": cfg.tol}
    closed = pguess_star_certified(povm)
    if closed is not None:
        report.update(
            {
                "pguess": closed.pguess,
                "hmin_bits": closed.hmin_bits,
                "method": closed.method,
                "relabeled": closed.relabeled,
            }
        )
        report["optimal_state"] = jsonio.state_to_json(closed.optimal_state)
    elif povm.num_outcomes == 2:
        bound = two_outcome_upper_bound(povm)
        report["upper_bound"] = {
            "pguess": bound.pguess,
            "hmin_bits": bound.hmin_bits,
            "method": bound.method,
        }
    state = jsonio.state_from_json(_load_json(args.state)) if args.state else None
    if args.minimize_state:
        search = minimize_over_states(povm, cfg)
        report["minimized"] = {
            "pguess": search.value,
            "hmin_bits": min_entropy_bits(search.value),
            "dual_value": search.solve.dual_value,
            "gap": search.solve.gap,
            "method": METHOD_SDP,
            "state": jsonio.state_to_json(search.state),
            "converged": search.converged,
            "starts": search.starts,
        }
    if state is not None:
        res = solve_primal(povm, state, cfg)
        report["sdp_at_state"] = {
            "pguess": res.value,
            "hmin_bits": min_entropy_bits(res.value),
            "dual_value": res.dual_value,
            "gap": res.gap,
            "feasibility_residual": res.feasibility_residual,
            "restored": res.restored,
        }
    if "pguess" not in report:
        source = report.get("minimized") or report.get("sdp_at_state")
        if source is None:
            raise ValidationError(
                "POVM is outside the certified classes: provide --state or --minimize-state"
            )
        report["pguess"] = source["pguess"]
        report["hmin_bits"] = source["hmin_bits"]
        report["method"] = METHOD_SDP
    _write_text(args.output, jsonio.dumps(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def cmd_certify(args) -> int:
    tol = _verify_tol(args)
    cfg = _solver_config(args)
    povm = jsonio.povm_from_json(_load_json(args.povm))
    state = jsonio.state_from_json(_load_json(args.state))
    if args.analytic:
        found = detect_noisy_projective(povm)
        if found is None or not 0.0 < found[0].epsilon < 1.0:
            raise ValidationError(
                "--analytic requires a noisy projective POVM with 0 < eps < 1"
            )
        # Both witnesses are built for the computational-basis POVM and rotated
        # by U; the certificate, built at the real unbiased state, also takes
        # the phases of amp = U^dag phi.
        noise, U = found
        amp = U.conj().T @ state.amplitudes
        decomp = sqrt_decomposition_qudit(noise, PureState(amp))
        decomp = Decomposition(U @ decomp.K @ U.conj().T)
        W = U * np.exp(1j * np.angle(amp))
        cert = build_dual_certificate_noisy_projective(noise)
        cert = DualCertificate(W @ cert.Y @ W.conj().T, W @ cert.G @ W.conj().T)
    else:
        if not args.decomposition:
            raise ValidationError("provide a decomposition file or --analytic")
        decomp = jsonio.decomposition_from_json(_load_json(args.decomposition))
        cert = solve_primal(povm, state, cfg).certificate
    primal = verify_decomposition(decomp, povm, tol)
    dual = verify_dual_certificate(cert, state, povm, tol)
    primal_value = decomp.guess_value(state)
    slackness = complementary_slackness_residual(decomp, cert, state)
    report = {
        "tol": tol,
        "primal": {**asdict(primal), "passed": primal.passed},
        "primal_value": primal_value,
        "dual": asdict(dual),
        "gap": dual.dual_value - primal_value,
        "slackness_residual": slackness,
    }
    passed = primal.passed and dual.feasible
    report["passed"] = passed
    _write_text(args.output, jsonio.dumps(report))
    return EXIT_OK if passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# sweep / entropies
# ---------------------------------------------------------------------------


def _entropy_csv(d: int, points: int) -> str:
    columns = ["epsilon", "hmax_bound", "vn_bound", "state_vn_star", "hmin_star"]
    rows = []
    for eps in _grid(points):
        row = entropy_curve_point(NoiseModel(d, float(eps)))
        rows.append(tuple(row[name] for name in columns))
    return _csv_text(columns, rows)


def cmd_sweep(args) -> int:
    points = sweep_curves(_grid(args.points))
    text = _csv_text(
        ["delta", "single_noise", "shared_lower_bound"],
        [(p.delta, p.single_noise_pguess, p.shared_noise_lower_bound) for p in points],
    )
    _write_text(args.output, text)
    return EXIT_OK


def cmd_entropies(args) -> int:
    _write_text(args.output, _entropy_csv(args.d, args.points))
    return EXIT_OK


# ---------------------------------------------------------------------------
# coarse
# ---------------------------------------------------------------------------


def cmd_coarse(args) -> int:
    d, eps = args.d, args.epsilon
    halves = halves_partition(d)
    noise = NoiseModel(d, eps)
    qubit_noise = NoiseModel(2, eps)
    optimal = pguess_star_qubit_two_outcome(noisy_projective(2, eps)).pguess
    cfg = _solver_config(args)
    cg_povm = coarse_grain(noise.povm(), halves)
    alpha = 1.0 / np.sqrt(2.0)
    qubit_state = PureState(np.array([alpha, alpha], dtype=complex))
    qubit_decomp = sqrt_decomposition_qubit(noisy_projective(2, eps), qubit_state)
    inflated = inflate_qubit_decomposition(noise, qubit_decomp)
    bus = block_uniform_state(d, alpha, alpha)
    inflated_value = inflated.guess_value(bus)
    psi = unbiased_state(d)
    eve_cg = coarse_grain_eve_attack(sqrt_decomposition_qudit(noise, psi), halves)
    sdp_value = gap = None
    if d <= MAX_SDP_DIM:
        res = solve_primal(cg_povm, psi, cfg)
        sdp_value, gap = res.value, res.gap
    report = {
        "d": d,
        "epsilon": eps,
        "delta": qubit_noise.delta,
        "optimal_value": optimal,
        "inflated_attack_value": inflated_value,
        "coarse_grained_attack_value": eve_cg.guess_value(psi),
        "closed_form_coarse_grained": coarse_grained_attack_value(noise),
        "sdp_value": sdp_value,
        "sdp_gap": gap,
    }
    _write_text(args.output, jsonio.dumps(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# joint-noise
# ---------------------------------------------------------------------------


def cmd_joint_noise(args) -> int:
    eps = args.epsilon
    tol = _verify_tol(args)
    jd = joint_noise_decomposition(eps)
    check = jd.validate(tol)
    delta = NoiseModel(2, eps).delta
    report = {
        "epsilon": eps,
        "epsilon_star": EPSILON_STAR,
        "measurement_epsilon": jd.measurement_epsilon,
        "delta": delta,
        "guess_value": jd.guess_value(),
        "single_noise_at_equal_delta": single_noise_curve(delta),
        "constraints": {**asdict(check), "passed": check.passed},
        "weights": jd.weights.tolist(),
        "states": [
            [jsonio.state_to_json(PureState(jd.states[i, lam])) for lam in range(jd.states.shape[1])]
            for i in range(jd.states.shape[0])
        ],
        "povms": [
            [
                [jsonio.matrix_to_json(jd.povms[x, j, lam]) for lam in range(jd.povms.shape[2])]
                for j in range(jd.povms.shape[1])
            ]
            for x in range(jd.povms.shape[0])
        ],
    }
    _write_text(args.output, jsonio.dumps(report))
    return EXIT_OK if check.passed else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmrand",
        description="Maximal intrinsic randomness of noisy quantum measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="guessing probability and min-entropy of a POVM")
    p.add_argument("povm", help="POVM JSON file")
    p.add_argument("--state", help="pure-state JSON file")
    p.add_argument("--minimize-state", action="store_true", help="minimize over input states")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--solver-config", default=None, help="solver config JSON file")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("certify", help="validate a decomposition and dual certificate")
    p.add_argument("povm")
    p.add_argument("state")
    p.add_argument("decomposition", nargs="?", default=None)
    p.add_argument("--analytic", action="store_true",
                   help="build the square-root decomposition and analytic dual internally")
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--tol", type=float, default=None, dest="verify_tol",
                   help="validation tolerance (default QRAND_TOL, else 1e-9)")
    p.add_argument("--solver-config", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="emit figure data as CSV")
    p.add_argument("--fig3", action="store_true", required=True,
                   help="shared vs single noise curves")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("entropies", help="entropy-curve CSV for one dimension")
    p.add_argument("d", type=int)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_entropies)

    p = sub.add_parser("coarse", help="coarse-graining study at even d")
    p.add_argument("d", type=int)
    p.add_argument("epsilon", type=float)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--solver-config", default=None)
    p.set_defaults(func=cmd_coarse)

    p = sub.add_parser("joint-noise", help="shared-noise decomposition report")
    p.add_argument("epsilon", type=float)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--tol", type=float, default=None, dest="verify_tol",
                   help="validation tolerance (default QRAND_TOL, else 1e-9)")
    p.set_defaults(func=cmd_joint_noise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
