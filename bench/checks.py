"""Correctness checks for benchmark items.

Each check takes what an item returned and the expected values the
benchmark computed itself (closed forms written out here with numpy, not
taken from the library under test).  It returns ``None`` when the output is
correct and a one-line reason otherwise.  A check never raises for a wrong
output; a malformed output (missing field, unparsable JSON) is reported as a
reason too.
"""

from __future__ import annotations

import json
import math

# ---------------------------------------------------------------------------
# Closed forms, computed independently of qmrand
# ---------------------------------------------------------------------------


def pstar_qubit(eigs: tuple[float, float]) -> float:
    """Theorem 1 for M1 with eigenvalues ``eigs`` (tr M1 <= tr M2)."""
    a, b = eigs
    return 1.0 - (a + b) + 0.5 * (math.sqrt(a) + math.sqrt(b)) ** 2


def pstar_noisy_projective(d: int, eps: float) -> float:
    """Theorem 2: (sqrt(A) + (d-1) sqrt(eps))^2 / d^2 with A = d - (d-1) eps."""
    A = d - (d - 1) * eps
    return (math.sqrt(A) + (d - 1) * math.sqrt(eps)) ** 2 / d**2


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def vn_bound(d: int, eps: float) -> float:
    """H2(P*) + (1 - P*) log2(d - 1), the square-root dilation's H(X|E)."""
    p = min(pstar_noisy_projective(d, eps), 1.0)
    return _h2(p) + ((1.0 - p) * math.log2(d - 1) if d > 2 else 0.0)


def state_vn_star(d: int, eps: float) -> float:
    """log2 d - S(rho) for the depolarized unbiased state."""
    big = 1.0 - eps + eps / d
    small = eps / d
    s = -sum(w * math.log2(w) for w in [big] + [small] * (d - 1) if w > 0.0)
    return math.log2(d) - s


# ---------------------------------------------------------------------------
# CLI output helpers
# ---------------------------------------------------------------------------


def _cli_json(out) -> tuple[dict | None, str | None]:
    if out.code != 0:
        return None, f"exit code {out.code}: {out.stderr.strip()[:160]}"
    try:
        return json.loads(out.stdout), None
    except json.JSONDecodeError as exc:
        return None, f"unparsable JSON output: {exc}"


def _cli_csv(out, columns: int) -> tuple[list | None, str | None]:
    if out.code != 0:
        return None, f"exit code {out.code}: {out.stderr.strip()[:160]}"
    try:
        lines = out.stdout.strip().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        return None, f"unparsable CSV output: {exc}"
    if any(len(row) != columns for row in rows):
        return None, f"CSV rows must have {columns} columns"
    return rows, None


def _off(name: str, got: float, want: float, tol: float) -> str | None:
    if not abs(got - want) <= tol:
        return f"{name} {got!r} differs from {want!r} by more than {tol:g}"
    return None


# ---------------------------------------------------------------------------
# Checks, one per item kind
# ---------------------------------------------------------------------------


def check_search(out, pstar: float) -> str | None:
    """``compute --minimize-state``: the searched P* matches Theorem 1 or 2."""
    report, err = _cli_json(out)
    if err:
        return err
    try:
        got = float(report["minimized"]["pguess"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"missing minimized.pguess: {exc!r}"
    return _off("minimized.pguess", got, pstar, 1e-4)


def check_solve(out, pstar: float | None) -> str | None:
    """``compute --state``: a certified bracket that holds the optimum."""
    report, err = _cli_json(out)
    if err:
        return err
    try:
        res = report["sdp_at_state"]
        value, dual, gap = float(res["pguess"]), float(res["dual_value"]), float(res["gap"])
        tol = float(report["tol"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"missing sdp_at_state field: {exc!r}"
    if not value <= dual + 1e-12:
        return f"value {value!r} above dual_value {dual!r}"
    if not -1e-12 <= gap <= 20.0 * tol:
        return f"gap {gap!r} outside [-1e-12, {20.0 * tol:g}]"
    if pstar is not None:
        if not value <= pstar + 1e-9:
            return f"value {value!r} above P* {pstar!r}"
        if not pstar <= dual + 1e-9:
            return f"dual_value {dual!r} below P* {pstar!r}"
    return None


def check_entropy_chain(res: dict, d: int, eps: float) -> str | None:
    """Criteria 3 and 7 on one (d, eps) point of the library chain."""
    A = d - (d - 1) * eps
    reason = _off("H_vN", res["h_vn"], vn_bound(d, eps), 1e-9)
    if reason:
        return reason
    if not res["p_secr_converged"]:
        return f"p_secr bracket open: [{res['p_secr_lower']!r}, {res['p_secr_upper']!r}]"
    reason = _off("p_secr", res["p_secr"], A, 1e-6)
    if reason:
        return reason
    hmax = math.log2(res["p_secr"])
    if not (res["h_min"] <= res["h_vn"] + 1e-9 and res["h_vn"] <= hmax + 1e-9):
        return f"entropy ordering violated: {res['h_min']!r}, {res['h_vn']!r}, {hmax!r}"
    if not res["cert_feasible"]:
        return f"analytic certificate infeasible: min slack eigenvalue {res['cert_min_eig']!r}"
    if not res["slackness"] <= 1e-9:
        return f"complementary slackness residual {res['slackness']!r} above 1e-9"
    return None


def check_entropies_csv(out, d: int, points: int) -> str | None:
    """``entropies D``: every column against its closed form."""
    rows, err = _cli_csv(out, 5)
    if err:
        return err
    if len(rows) != points:
        return f"{len(rows)} rows, expected {points}"
    for k, (eps, hmax_b, vn_b, state_vn, hmin_star) in enumerate(rows):
        want_eps = k / (points - 1)
        reason = (
            _off("epsilon", eps, want_eps, 1e-11)
            or _off("hmax_bound", hmax_b, math.log2(d - (d - 1) * want_eps), 1e-9)
            or _off("vn_bound", vn_b, vn_bound(d, want_eps), 1e-9)
            or _off("state_vn_star", state_vn, state_vn_star(d, want_eps), 1e-9)
            or _off("hmin_star", hmin_star, -math.log2(pstar_noisy_projective(d, want_eps)), 1e-9)
        )
        if reason:
            return f"row {k}: {reason}"
    return None


def check_fig3_csv(out, points: int) -> str | None:
    """``sweep --fig3``: single-noise curve, shared-noise bound and plateau."""
    rows, err = _cli_csv(out, 3)
    if err:
        return err
    if len(rows) != points:
        return f"{len(rows)} rows, expected {points}"
    for k, (delta, single, shared) in enumerate(rows):
        want_single = 0.5 * (1.0 + math.sqrt(delta * (2.0 - delta)))
        want_shared = 1.0 if delta >= 0.5 else 0.5 * (1.0 + 2.0 * math.sqrt(delta * (1.0 - delta)))
        reason = (
            _off("delta", delta, k / (points - 1), 1e-11)
            or _off("single_noise", single, want_single, 1e-9)
            or _off("shared_lower_bound", shared, want_shared, 1e-9)
        )
        if reason:
            return f"row {k}: {reason}"
        if shared < single - 1e-12:
            return f"row {k}: shared bound below the single-noise curve"
    return None
