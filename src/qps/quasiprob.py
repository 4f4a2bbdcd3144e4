"""s-parametrized characteristic and phase-space functions, the discrete
Glauber-Sudarshan / Wigner / Husimi family, coherent states, the smoothing
hierarchy between them, and number-basis matrix elements of the mapping
kernel.

F^(s) is the 2-D DFT of K^(-s) Tr[S(eta, xi) rho], and each smoothing step
is a product by K in that dual plane (Cahill and Glauber, Phys. Rev. 177,
1857 and 1882 (1969); Wootters, Ann. Phys. 176, 1 (1987)).
"""

from dataclasses import dataclass

import numpy as np

from .lattice import check_dim, labels, center_mod, _dual_multiply, _traces, _table_cache
from .theta import kernel_table, fock_coefficients
from .schwinger import check_order, t_op, t_overlap, decompose_t, reconstruct_t, _kernel_power

__all__ = [
    "FormalismViolation",
    "PhaseSpaceFunction",
    "CharacteristicFunction",
    "validate_density",
    "maximally_mixed",
    "fock_state",
    "fock_projector",
    "coherent_projector",
    "coherent_state",
    "random_density",
    "char_fn",
    "phase_fn",
    "smoothing_table",
    "smooth_p_to_w",
    "smooth_w_to_h",
    "smooth_p_to_h",
    "expectation",
    "t_matrix_element",
    "reconstruct_rho",
]


class FormalismViolation(RuntimeError):
    """An exact identity of the formalism failed beyond tolerance."""


@dataclass(frozen=True)
class PhaseSpaceFunction:
    """Grid of F^(s)(mu, nu) over centered labels, tagged with its order s.

    Leading axes of the grid are a batch.
    """

    s: complex
    grid: np.ndarray

    @property
    def dim(self):
        return self.grid.shape[-1]


@dataclass(frozen=True)
class CharacteristicFunction:
    """Grid of Xi^(s)(eta, xi) over centered labels, tagged with its order s.

    Leading axes of the grid are a batch.
    """

    s: complex
    grid: np.ndarray

    @property
    def dim(self):
        return self.grid.shape[-1]


def validate_density(rho, tol=1e-10):
    """Check hermiticity, unit trace and positivity of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ValueError(f"density matrix trace is {np.trace(rho)}, not 1")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def maximally_mixed(N):
    N = check_dim(N)
    return np.eye(N, dtype=complex) / N


def fock_state(n, N):
    """Coordinate-basis amplitudes of the n-th finite number state."""
    N = check_dim(N)
    if not 0 <= n < N:
        raise ValueError(f"number-state index must lie in 0..{N - 1}, got {n}")
    return fock_coefficients(N)[:, n].copy()


def fock_projector(n, N):
    psi = fock_state(n, N)
    return np.outer(psi, psi.conj())


def coherent_projector(mu, nu, N):
    """Projector onto `coherent_state(mu, nu, N)`: T^(-1)(mu, nu), a displaced vacuum projector, O(N^2)."""
    psi = coherent_state(mu, nu, N)
    return np.outer(psi, psi.conj())


def coherent_state(mu, nu, N):
    """Discrete coherent state at (mu, nu), the displaced vacuum exp(2*pi*i*nu*kappa/N) F_0(kappa - mu).

    The free global phase makes the largest-magnitude amplitude real positive.
    """
    N = check_dim(N)
    psi = np.exp(2j * np.pi * center_mod(nu, N) * labels(N) / N) * np.roll(fock_state(0, N), mu)
    k = np.argmax(np.abs(psi))
    return psi * (abs(psi[k]) / psi[k])


def random_density(N, rng, pure=False):
    """Random density matrix (Haar-ish); pure=True gives a projector."""
    N = check_dim(N)
    if pure:
        psi = rng.normal(size=N) + 1j * rng.normal(size=N)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def char_fn(rho, s):
    """Characteristic function Xi^(s)(eta, xi) = Tr[S^(s)(eta, xi) rho].

    Leading axes of rho are a batch.
    """
    rho = np.asarray(rho)
    s = check_order(s)
    N = check_dim(rho.shape[-1])
    return CharacteristicFunction(s, _kernel_power(s, N) * _traces(rho))


def phase_fn(rho, s):
    """Phase-space function F^(s)(mu, nu) = Tr[T^(s)(mu, nu) rho], the 2-D DFT of Xi^(s).

    Leading axes of rho are a batch.
    """
    s = check_order(s)
    return PhaseSpaceFunction(s, decompose_t(rho, -s))


@_table_cache
def smoothing_table(N):
    """2-D smoothing weights E[dmu + ell, dnu + ell] linking the hierarchy.

    E(dmu, dnu) = Tr[T^(0)(mu, nu) T^(-1)(mu + dmu, nu + dnu)]; real and
    N-periodic in both offsets.  It is the inverse 2-D DFT of the kernel:
    E(dmu, dnu) = (1/N) sum_{eta,xi} exp(2*pi*i*(eta*dmu + xi*dnu)/N) K(eta, xi).
    """
    ks = labels(check_dim(N))
    E = t_overlap(0, -1, ks[:, None], ks, N).real
    E.setflags(write=False)
    return E


def _require_order(F, s, what):
    if abs(complex(F.s) - s) > 1e-12:
        raise ValueError(f"{what} expects an input at s = {s}, got s = {F.s}")


def smooth_p_to_w(P):
    """One smoothing step: Glauber-Sudarshan grid to Wigner grid."""
    _require_order(P, 1, "smooth_p_to_w")
    return PhaseSpaceFunction(0, _dual_multiply(kernel_table(P.dim), P.grid))


def smooth_w_to_h(W):
    """One smoothing step: Wigner grid to Husimi grid."""
    _require_order(W, 0, "smooth_w_to_h")
    return PhaseSpaceFunction(-1, _dual_multiply(kernel_table(W.dim), W.grid))


def smooth_p_to_h(P):
    """Direct two-step shortcut: Glauber-Sudarshan grid to Husimi grid.

    The multiplier is K^2; in phase space the step correlates the grid
    with the coherent-state overlap probabilities |K|^2.
    """
    _require_order(P, 1, "smooth_p_to_h")
    return PhaseSpaceFunction(-1, _dual_multiply(kernel_table(P.dim) ** 2, P.grid))


def expectation(O, rho, s):
    """Mean value Tr(O rho) evaluated through the phase-space overlap rule.

    Leading axes of O and rho are a batch, and the result is then an array.
    """
    O = np.asarray(O)
    s = check_order(s)
    coeffs = decompose_t(O, s)  # O^(-s)(mu, nu)
    F = phase_fn(rho, s)
    out = np.sum(coeffs * F.grid, axis=(-2, -1)) / F.dim
    return complex(out) if out.ndim == 0 else out


def t_matrix_element(m, n, mu, nu, s, N):
    """Number-basis matrix element <m|T^(s)(mu, nu)|n> on the displaced kernel of `t_op`: O(N^2)."""
    N = check_dim(N)
    if not (0 <= m < N and 0 <= n < N):
        raise IndexError(f"number-basis indices must lie in 0..{N - 1}, got {m},{n}")
    F = fock_coefficients(N)
    return complex(F[:, m].conj() @ t_op(mu, nu, s, N) @ F[:, n])


def reconstruct_rho(F, tol=1e-8):
    """Invert a phase-space function back to its density matrix.

    rho = (1/N) sum F^(s)(mu, nu) T^(-s)(mu, nu); flags a non-unit trace.
    Leading axes of the grid are a batch, and every slice is checked.
    """
    rho = reconstruct_t(F.grid, -complex(F.s))
    trace = rho.trace(axis1=-2, axis2=-1)
    if abs(trace - 1.0).max() > tol:
        raise FormalismViolation(
            f"reconstructed operator has trace {trace}, expected 1"
        )
    return rho
