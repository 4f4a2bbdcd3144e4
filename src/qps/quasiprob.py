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

from .lattice import check_dim, labels, _integer, _invalid, _phases, _square, _matrix, _dual_multiply, _traces, _shift_rows, _table_cache
from .theta import fock_coefficients
from .schwinger import check_order, t_op, t_overlap, _require_order, _kernel_power, _t_grid, _t_sum

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
class _LabelGrid:
    """A (..., N, N) grid over centered labels, tagged with its order s; checked when built."""

    s: complex
    grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", _square(self.grid)[0])

    @property
    def dim(self):
        return self.grid.shape[-1]


class PhaseSpaceFunction(_LabelGrid):
    """Grid of F^(s)(mu, nu) over centered labels, tagged with its order s.

    Leading axes of the grid are a batch.
    """


class CharacteristicFunction(_LabelGrid):
    """Grid of Xi^(s)(eta, xi) over centered labels, tagged with its order s.

    Leading axes of the grid are a batch.
    """


def validate_density(rho, tol=1e-10):
    """Check one N x N matrix, N odd (`_matrix`), for hermiticity, unit trace and positivity."""
    rho = _matrix(np.asarray(rho, dtype=complex))[0]
    if (err := np.abs(rho - rho.conj().T).max()) > 1e-12:
        raise _invalid("density matrix must be Hermitian, max |rho - rho^dag| <= 1e-12", float(err))
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise _invalid("density matrix must have trace 1", complex(np.trace(rho)))
    if (least := np.linalg.eigvalsh(rho).min()) < -tol:
        raise _invalid(f"density matrix eigenvalues must be >= -{tol}", float(least))
    return rho


def maximally_mixed(N):
    N = check_dim(N)
    return np.eye(N, dtype=complex) / N


def fock_state(n, N):
    """Coordinate-basis amplitudes of the n-th finite number state; n an integer in 0..N-1."""
    N = check_dim(N)
    n = _integer(n)
    if not 0 <= n < N:
        raise _invalid(f"number-state index must lie in 0..{N - 1}", n)
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
    mu, nu = _integer(mu), _integer(nu)
    psi = _phases(-nu, N) * fock_coefficients(N)[:, 0].take(_shift_rows(mu, N))
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
    rho, N = _square(rho)
    s = check_order(s)
    return CharacteristicFunction(s, _kernel_power(s, N) * _traces(rho))


def phase_fn(rho, s):
    """Phase-space function F^(s)(mu, nu) = Tr[T^(s)(mu, nu) rho], the 2-D DFT of Xi^(s).

    Leading axes of rho are a batch.
    """
    rho, _ = _square(rho)
    s = check_order(s)
    return PhaseSpaceFunction(s, _t_grid(rho, -s))


@_table_cache
def smoothing_table(N):
    """2-D smoothing weights E[dmu + ell, dnu + ell] linking the hierarchy.

    E(dmu, dnu) = Tr[T^(0)(mu, nu) T^(-1)(mu + dmu, nu + dnu)]; real and
    N-periodic in both offsets.  It is the inverse 2-D DFT of the kernel:
    E(dmu, dnu) = (1/N) sum_{eta,xi} exp(2*pi*i*(eta*dmu + xi*dnu)/N) K(eta, xi).
    """
    ks = labels(check_dim(N))
    return t_overlap(0, -1, ks[:, None], ks, N).real


def smooth_p_to_w(P):
    """One smoothing step: Glauber-Sudarshan grid to Wigner grid."""
    _require_order(P.s, 1)
    return PhaseSpaceFunction(0, _dual_multiply(_kernel_power(-1, P.dim), P.grid))


def smooth_w_to_h(W):
    """One smoothing step: Wigner grid to Husimi grid."""
    _require_order(W.s, 0)
    return PhaseSpaceFunction(-1, _dual_multiply(_kernel_power(-1, W.dim), W.grid))


def smooth_p_to_h(P):
    """Direct two-step shortcut: Glauber-Sudarshan grid to Husimi grid.

    The multiplier is K^2, cached per N as `_kernel_power(-2, N)`; in phase
    space the step correlates the grid with the coherent-state overlap
    probabilities |K|^2.
    """
    _require_order(P.s, 1)
    return PhaseSpaceFunction(-1, _dual_multiply(_kernel_power(-2, P.dim), P.grid))


def expectation(O, rho, s):
    """Mean value Tr(O rho) evaluated through the phase-space overlap rule.

    The rule (1/N) sum O^(-s)(mu, nu) F^(s)(mu, nu) over phase space is, by
    Parseval, sum Tr[S(eta, xi) O] Tr[S(-eta, -xi) rho] over the dual plane:
    K^(s) and K^(-s) meet there in one cell and cancel, so the sum is taken
    without them.  In phase space they do not cancel until the sum, and at
    s = +-1 the grids reach K^(-+1) ~ 1e20 at N = 61, which round-off swamps.
    Leading axes of O and rho are a batch, and the result is then an array.
    """
    O, N = _square(O)
    rho, M = _square(rho)
    if M != N:
        raise _invalid("takes operands of one size N", (O.shape, rho.shape))
    check_order(s)
    # [::-1, ::-1] takes the labels (eta, xi) to (-eta, -xi)
    out = np.sum(_traces(O) * _traces(rho)[..., ::-1, ::-1], axis=(-2, -1))
    return complex(out) if out.ndim == 0 else out


def t_matrix_element(m, n, mu, nu, s, N):
    """Number-basis matrix element <m|T^(s)(mu, nu)|n> on the displaced kernel of `t_op`: O(N^2)."""
    return complex(fock_state(m, N).conj() @ t_op(mu, _integer(nu), s, N) @ fock_state(n, N))


def reconstruct_rho(F, tol=1e-8):
    """Invert a phase-space function back to its density matrix.

    rho = (1/N) sum F^(s)(mu, nu) T^(-s)(mu, nu); flags a non-unit trace.
    Leading axes of the grid are a batch, and every slice is checked.
    """
    rho = _t_sum(F.grid, -check_order(F.s))
    trace = rho.trace(axis1=-2, axis2=-1)
    if abs(trace - 1.0).max() > tol:
        raise FormalismViolation(
            f"reconstructed operator has trace {trace}, expected 1"
        )
    return rho
