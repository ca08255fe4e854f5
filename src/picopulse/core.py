"""Core state/operator types and linear algebra for 2- and 4-level systems.

Conventions used throughout the package:

* Single qubit basis: ``|0> = |down> = (1, 0)``, ``|1> = |up> = (0, 1)``.
* Register basis (dimension 4), fixed order:
  ``{|dd>, |ud>, |du>, |uu>}`` -- i.e. index = 2*(bit of qubit 1) + (bit of
  qubit 2) with qubit 1 on the slow (left) Kronecker factor.
* Single-qubit Hamiltonian in an external field eps(t):
  ``H = -1/2 (Delta sigma_z + eps sigma_x)``.
* Two-qubit Hamiltonian: Kronecker sum of the single-qubit terms plus a
  ``-1/2 J sigma_x (x) sigma_x`` coupling.

States and operators are plain complex numpy arrays; the ``check_*``
helpers enforce the type invariants (normalization, Hermiticity, unitarity,
density-matrix positivity) and are called at module boundaries.
"""

from __future__ import annotations

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

#: |1><0| in the {|0>, |1>} basis (raising operator)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.conj().T

KET_DOWN = np.array([1.0, 0.0], dtype=complex)
KET_UP = np.array([0.0, 1.0], dtype=complex)

# Hamiltonians are linear in their coefficient rows, H = sum_k c_k OP_k, with
# the -1/2 prefactor folded into the operators.  Qubit rows are (delta, eps);
# register rows are (d1, d2, e1, e2, j), i.e. H0(d1, d2) + e1 X1 + e2 X2 + j XX.
_OPERATORS = {
    2: -0.5 * np.stack([SZ, SX]),
    5: -0.5 * np.stack([np.kron(SZ, ID2), np.kron(ID2, SZ),
                        np.kron(SX, ID2), np.kron(ID2, SX), np.kron(SX, SX)]),
}


def _as_complex_array(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=complex)
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_state(psi) -> np.ndarray:
    """Validate a state vector (dimension 2 or 4, unit norm to 1e-12)."""
    psi = _as_complex_array(psi, "state")
    if psi.ndim != 1 or psi.shape[0] not in (2, 4):
        raise ValueError(f"state must have dimension 2 or 4, got shape {psi.shape}")
    nrm2 = float(np.vdot(psi, psi).real)
    if abs(nrm2 - 1.0) > 1e-12:
        raise ValueError(f"state norm^2 = {nrm2!r} deviates from 1 beyond 1e-12")
    return psi


def check_hermitian(h, tol: float = 1e-12) -> np.ndarray:
    h = _as_complex_array(h, "operator")
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] not in (2, 4):
        raise ValueError(f"operator must be square with dimension 2 or 4, got {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > tol:
        raise ValueError("operator is not Hermitian within tolerance")
    return h


def check_unitary(u, tol: float = 1e-10) -> np.ndarray:
    u = _as_complex_array(u, "operator")
    d = u.shape[0]
    defect = np.max(np.abs(u.conj().T @ u - np.eye(d)))
    if defect > tol:
        raise ValueError(f"operator is not unitary: max |U^dag U - I| = {defect:.3e}")
    return u


#: a density matrix's Hermiticity and trace defects, and its most negative eigenvalue
DENSITY_TOL, DENSITY_EIG_TOL = 1e-10, 1e-8


def check_density_matrix(rho) -> np.ndarray:
    rho = _as_complex_array(rho, "density matrix")
    check_hermitian(rho, DENSITY_TOL)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > DENSITY_TOL:
        raise ValueError(f"density matrix trace = {tr!r} deviates from 1 beyond {DENSITY_TOL}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -DENSITY_EIG_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho


def hamiltonians(coeffs) -> np.ndarray:
    """Stacked Hamiltonians from coefficient rows of shape ``(..., 2)`` or ``(..., 5)``.

    A row ``(delta, eps)`` gives ``-1/2 (delta sigma_z + eps sigma_x)``; a row
    ``(d1, d2, e1, e2, j)`` gives the register Hamiltonian.  The result has
    shape ``(..., d, d)``.
    """
    c = np.asarray(coeffs, dtype=float)
    ops = _OPERATORS.get(c.shape[-1] if c.ndim else 0)
    if ops is None:
        raise ValueError(f"coefficient rows must have length 2 or 5, got shape {c.shape}")
    finite = np.isfinite(c).all(axis=-1).ravel()
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"Hamiltonian coefficients must be finite, got row {i} of "
                         f"{finite.size}: {c.reshape(-1, c.shape[-1])[i].tolist()}")
    n, d, _ = ops.shape
    return (c @ ops.reshape(n, d * d)).reshape(c.shape[:-1] + (d, d))


def make_single_qubit_hamiltonian(delta: float, epsilon: float) -> np.ndarray:
    """``H = -1/2 (Delta sigma_z + eps sigma_x)``; entry [0,0] is -Delta/2."""
    return hamiltonians((delta, epsilon))


def make_two_qubit_hamiltonian(d1: float, d2: float, e1: float, e2: float,
                               j: float) -> np.ndarray:
    """4x4 register Hamiltonian in the fixed {|dd>,|ud>,|du>,|uu>} ordering.

    Equals ``H1 (x) I + I (x) H2 - 1/2 J sigma_x (x) sigma_x`` with qubit 1
    on the left Kronecker factor; the overall -1/2 prefactor is kept.
    """
    return hamiltonians((d1, d2, e1, e2, j))


def hermitian_eigendecomposition(h):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix.

    Degenerate eigenvalues keep the solver ordering; the returned columns are
    orthonormal in any case.
    """
    return np.linalg.eigh(check_hermitian(h, tol=1e-10))
