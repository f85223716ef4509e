"""Seeded inputs and the items of the three workloads.

An item is one call a user of qmrand would make, followed by its check.
CLI items go through ``qmrand.cli.main`` in-process, with the inputs written
as wire-format JSON during set-up; library items call the public functions.
Every call resolves its function through the module attribute at call time,
so the traced run sees the wrappers that ``spans.Tracer`` installs.

Why these workloads (see also ``README.md``):

* ``search``: many tiny, loose, unpolished solves inside the state search;
  per-solve overhead, not large linear algebra.
* ``solve-large``: few big solves, where forming and factoring the Newton
  system dominates; two restored inputs on which the solver is known to fail.
* ``entropy``: no SDP at all; the entropy and linalg layers, and the
  workload on which an SDP optimisation must show no change.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks
from qmrand import cli as qcli
from qmrand import decompositions, entropy, povm, sdp


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = qcli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# Inputs, written in the wire format of the README
# ---------------------------------------------------------------------------


def _matrix_json(M: np.ndarray) -> dict:
    return {
        "dim": M.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in M],
    }


def _write(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def write_povm(workdir: str, name: str, elements: list[np.ndarray]) -> str:
    data = {"dim": elements[0].shape[0], "elements": [_matrix_json(E) for E in elements]}
    return _write(workdir, name + "-povm", data)


def write_state(workdir: str, name: str, amplitudes: np.ndarray) -> str:
    amps = [[float(a.real), float(a.imag)] for a in amplitudes]
    return _write(workdir, name + "-state", {"dim": len(amps), "amplitudes": amps})


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def qubit_povm(rng: np.random.Generator) -> tuple[list[np.ndarray], float]:
    """The criterion-1 generator: random eigenvalues in a random basis.

    Returns the elements, ordered so that tr M1 <= tr M2, and P* from
    Theorem 1.
    """
    m1, m2 = rng.uniform(0.02, 0.98, size=2)
    U = random_unitary(rng, 2)
    hi, lo = max(m1, m2), min(m1, m2)
    M1 = U @ np.diag([hi, lo]) @ U.conj().T
    M2 = np.eye(2) - M1
    if hi + lo > 1.0:
        return [M2, M1], checks.pstar_qubit((1.0 - hi, 1.0 - lo))
    return [M1, M2], checks.pstar_qubit((hi, lo))


def noisy_projective(d: int, eps: float) -> list[np.ndarray]:
    eye = np.eye(d)
    return [(1.0 - eps) * np.outer(eye[x], eye[x]) + (eps / d) * eye for x in range(d)]


def random_povm(rng: np.random.Generator, d: int, m: int) -> list[np.ndarray]:
    """Full-rank POVM: S^-1/2 G_x S^-1/2 for Ginibre G_x = A A^dagger."""
    G = []
    for _ in range(m):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        G.append(A @ A.conj().T)
    w, V = np.linalg.eigh(sum(G))
    S = (V / np.sqrt(w)) @ V.conj().T
    return [0.5 * (E + E.conj().T) for E in (S @ g @ S for g in G)]


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def unbiased(d: int) -> np.ndarray:
    return np.full(d, 1.0 / math.sqrt(d), dtype=complex)


# ---------------------------------------------------------------------------
# search: compute POVM --minimize-state
# ---------------------------------------------------------------------------


def _search(rng, size, workdir):
    config = _write(workdir, "search-config", {"multistarts": 2})

    def item(name, elements, pstar):
        path = write_povm(workdir, name, elements)
        argv = ["compute", path, "--minimize-state", "--solver-config", config]
        return Item(f"search/{name}", lambda: cli(argv), lambda out: checks.check_search(out, pstar))

    items = [item(f"qubit{i}", *qubit_povm(rng)) for i in range(8 if size == "full" else 1)]
    if size == "full":
        eps = float(rng.uniform(0.2, 0.8))
        items.append(item("qutrit", noisy_projective(3, eps), checks.pstar_noisy_projective(3, eps)))
    return items, item("warmup", *qubit_povm(rng))


# ---------------------------------------------------------------------------
# solve-large: compute POVM --state STATE
# ---------------------------------------------------------------------------


def _solve_large(rng, size, workdir):
    def item(name, elements, state, pstar=None):
        p = write_povm(workdir, name, elements)
        s = write_state(workdir, name, state)
        argv = ["compute", p, "--state", s]
        return Item(f"solve-large/{name}", lambda: cli(argv), lambda out: checks.check_solve(out, pstar))

    def projective(d, eps):
        return item(f"np{d}-eps{eps:.6g}", noisy_projective(d, eps), unbiased(d),
                    checks.pstar_noisy_projective(d, eps))

    if size == "tiny":
        eps = float(rng.uniform(0.3, 0.7))
        items = [
            projective(3, eps),
            item("rand3m3", random_povm(rng, 3, 3), random_state(rng, 3)),
            projective(2, 0.0),
        ]
        return items, item("warmup", random_povm(rng, 2, 2), random_state(rng, 2))
    eps_a, eps_b = (float(e) for e in rng.uniform(0.3, 0.7, size=2))
    items = [
        projective(6, eps_a),
        projective(6, eps_b),
        item("rand6m3", random_povm(rng, 6, 3), random_state(rng, 6)),
        item("rand5m4", random_povm(rng, 5, 4), random_state(rng, 5)),
        # Restored (rank-deficient) inputs: known to fail at the time of
        # writing (negative gap at eps = 0, TypeError at eps = 1e-6).
        projective(6, 0.0),
        projective(6, 1e-6),
        # Fixed eps: this item is most of the pass, so a seeded eps would move
        # wall_s with the seed rather than with the program.
        projective(8, 0.5),
    ]
    return items, item("warmup", random_povm(rng, 5, 4), random_state(rng, 5))


# ---------------------------------------------------------------------------
# entropy: the library chain per (d, eps), plus two CLI curves
# ---------------------------------------------------------------------------


def entropy_chain(d: int, eps: float) -> dict:
    noise = povm.NoiseModel(d, eps)
    psi = povm.unbiased_state(d)
    decomp = decompositions.sqrt_decomposition_qudit(noise, psi)
    ens = entropy.eve_ensemble_from_decomposition(psi, decomp)
    h_min = entropy.conditional_min_entropy(ens)
    h_vn = entropy.conditional_vn_entropy(ens)
    secr = entropy.p_secr(ens, entropy.PSecrConfig(restarts=2, max_iters=80))
    cert = sdp.build_dual_certificate_noisy_projective(noise)
    dual = sdp.verify_dual_certificate(cert, psi, noise.povm(), tol=1e-9, trace_tol=1e-10)
    slackness = sdp.complementary_slackness_residual(decomp, cert, psi)
    return {
        "h_min": h_min,
        "h_vn": h_vn,
        "p_secr": secr.value,
        "p_secr_lower": secr.lower,
        "p_secr_upper": secr.upper,
        "p_secr_converged": secr.converged,
        "cert_feasible": dual.feasible,
        "cert_min_eig": dual.min_eig_slack,
        "slackness": slackness,
    }


def _entropy(rng, size, workdir):
    def chain(d, eps):
        return Item(f"entropy/chain-d{d}-eps{eps:.4f}", lambda: entropy_chain(d, eps),
                    lambda res: checks.check_entropy_chain(res, d, eps))

    def curves(d, points):
        argv = ["entropies", str(d), "--points", str(points)]
        return Item(f"entropy/entropies-d{d}", lambda: cli(argv),
                    lambda out: checks.check_entropies_csv(out, d, points))

    dims = range(2, 7) if size == "full" else (2, 3)
    strata = 3 if size == "full" else 1
    points = 101 if size == "full" else 11
    # One eps per stratum of [0.05, 0.95]: seeded, yet every pass spans the
    # whole noise range, so the cost of a pass varies little with the seed.
    edges = np.linspace(0.05, 0.95, strata + 1)
    items = [chain(d, float(rng.uniform(edges[k], edges[k + 1]))) for d in dims for k in range(strata)]
    items += [curves(d, points) for d in dims]
    fig3 = ["sweep", "--fig3", "--points", str(points)]
    items.append(Item("entropy/fig3", lambda: cli(fig3), lambda out: checks.check_fig3_csv(out, points)))
    return items, chain(3, float(rng.uniform(0.05, 0.95)))


_WORKLOADS = {"search": _search, "solve-large": _solve_large, "entropy": _entropy}


def build(name: str, seed: int, size: str, workdir: str) -> tuple[list[Item], Item]:
    """The timed items of one pass and the untimed warm-up item."""
    return _WORKLOADS[name](np.random.default_rng(seed), size, workdir)
