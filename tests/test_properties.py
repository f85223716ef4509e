"""Property tests of the SDP solver over (d, m, eps, state, tol).

Each draw is either a random POVM S^-1/2 A_x A_x^dag S^-1/2 whose A_x are
d x r_x, so that elements may be rank-deficient or zero, or a noisy projective
measurement at eps in {0, 1e-6, U(0, 1), 1}; with a random state and a
tolerance from 1e-6 down to 1e-9.  Half the draws are real: real A_x, the
noisy projective elements in a random real orthogonal basis, and a real
state, which the solver solves on the real-symmetric half of the basis.  A
solve either returns a bracket that verifies independently or raises one of
the three documented errors, and ``compute --state`` exits with the code of
that outcome.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs

from qmrand import cli, jsonio
from qmrand.cli import EXIT_INPUT, EXIT_OK, EXIT_SOLVER, main
from qmrand.decompositions import verify_decomposition
from qmrand.linalg import DomainError, SolverError, ValidationError
from qmrand.povm import Povm, PureState, noisy_projective
from qmrand.sdp import solve_primal, verify_dual_certificate

EXIT_CODES = {ValidationError: EXIT_INPUT, DomainError: EXIT_INPUT, SolverError: EXIT_SOLVER}


@hs.composite
def problems(draw):
    """(povm, state, tol) with d <= 4 and at most 4 outcomes."""
    d = draw(hs.integers(2, 4))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    imag = 0.0 if draw(hs.booleans()) else 1j   # 0: a real POVM at a real state
    if draw(hs.booleans()):
        ranks = draw(hs.lists(hs.integers(0, d), min_size=2, max_size=4).filter(
            lambda r: sum(r) >= d))
        G = []
        for r in ranks:
            A = rng.normal(size=(d, r)) + imag * rng.normal(size=(d, r))
            G.append(A @ A.conj().T)
        w, V = np.linalg.eigh(sum(G))
        S = (V / np.sqrt(w)) @ V.conj().T
        povm = Povm(tuple(0.5 * (E + E.conj().T) for E in (S @ g @ S for g in G)))
    else:
        eps = draw(hs.sampled_from([0.0, 1e-6, 1.0]) | hs.floats(0.0, 1.0))
        povm = noisy_projective(d, eps)
        if not imag:
            O = np.linalg.qr(rng.normal(size=(d, d)))[0]
            povm = Povm(tuple(O @ E.real @ O.T for E in povm.elements))
    v = rng.normal(size=d) + imag * rng.normal(size=d)
    tol = 10.0 ** draw(hs.floats(-9.0, -6.0))
    return povm, PureState(v / np.linalg.norm(v)), tol


def _compute(povm, state, tol) -> tuple[int, list]:
    """``compute --state`` on (povm, state) at ``tol``: its exit code, and what its solve
    returned or raised."""
    outcomes = []

    def recording(povm, state, config=None, polish=True):
        try:
            outcomes.append(solve_primal(povm, state, config, polish))
        except Exception as exc:
            outcomes.append(exc)
            raise
        return outcomes[-1]

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, payload in (("povm", jsonio.povm_to_json(povm)),
                              ("state", jsonio.state_to_json(state))):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(payload))
            paths.append(str(path))
        argv = ["compute", paths[0], "--state", paths[1], "--tol", repr(tol),
                "-o", str(Path(tmp) / "out.json")]
        with mock.patch.object(cli, "solve_primal", recording), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv), outcomes


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(problems())
def test_solve_brackets_or_raises_a_documented_error(problem):
    povm, state, tol = problem
    code, [res] = _compute(povm, state, tol)
    if isinstance(res, Exception):
        assert type(res) in EXIT_CODES, repr(res)
        assert code == EXIT_CODES[type(res)]
    else:
        assert code == EXIT_OK
        assert res.gap >= -1e-12
        assert verify_decomposition(res.decomposition, povm, 1e-8).passed
        assert verify_dual_certificate(res.certificate, state, povm).feasible
