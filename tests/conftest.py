import numpy as np
import pytest

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


def random_state_vector(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_unitary(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_hermitian(rng, d, scale=1.0):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (G + G.conj().T)


def random_povm(rng, d, m, ranks=None):
    """POVM S^-1/2 G_x S^-1/2 for G_x = A A^dagger, A Ginibre d x r_x (full rank: r_x = d)."""
    G = []
    for r in ranks or [d] * m:
        A = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        G.append(A @ A.conj().T)
    w, V = np.linalg.eigh(sum(G))
    S = (V / np.sqrt(w)) @ V.conj().T
    return [0.5 * (E + E.conj().T) for E in (S @ g @ S for g in G)]


def random_qubit_two_outcome(rng, lo=0.05, hi=0.95, rotate=True):
    from qmrand import two_outcome_qubit

    m1, m2 = rng.uniform(lo, hi, size=2)
    basis = random_unitary(rng, 2) if rotate else None
    return two_outcome_qubit(m1, m2, basis=basis)
