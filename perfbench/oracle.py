"""Independent numerical-radius oracle for checking aradius outputs.

Nothing here imports aradius.  A weight ``A`` is factored by its own
eigendecomposition, an operator is reduced to the ``r x r`` matrix
``L^(1/2) V* T V L^(-1/2)`` on ``ran(A)`` (``V`` the kept eigenvectors,
``L`` their eigenvalues), and the classical radius of a matrix ``M`` is
the maximum over ``theta`` of ``lambda_max(Re(e^(i theta) M))``: a dense
angle grid finds the basins of the maximum and alternating ascent climbs
each one to its top.
"""

from __future__ import annotations

import numpy as np

#: Relative eigenvalue cutoff for the rank of a weight.
RANK_TOL = 1e-10
GRID = 1024
ASCENT_STEPS = 2000


def weight_split(a):
    """``(V, L, K)``: kept eigenvectors and eigenvalues of ``A``, and a kernel basis."""
    a = np.asarray(a, dtype=np.complex128)
    vals, vecs = np.linalg.eigh(0.5 * (a + a.conj().T))
    keep = vals > RANK_TOL * np.max(np.abs(vals))
    return vecs[:, keep], vals[keep], vecs[:, ~keep]


def reduce(a, t):
    """The operator ``T`` in orthonormal coordinates of ``ran(A)`` under ``<.,.>_A``."""
    v, lam, _ = weight_split(a)
    s = np.sqrt(lam)
    return s[:, None] * (v.conj().T @ np.asarray(t, dtype=np.complex128) @ v) / s[None, :]


def pinv_weight(a):
    """Moore-Penrose pseudoinverse of a PSD weight from its eigendecomposition."""
    v, lam, _ = weight_split(a)
    return (v / lam) @ v.conj().T


def block_diag(a, k=2):
    return np.kron(np.eye(k), np.asarray(a, dtype=np.complex128))


def hermitian_part(m, theta):
    phase = np.exp(1j * np.asarray(theta))[..., None, None]
    return 0.5 * (phase * m + np.conj(phase) * m.conj().T)


def radius(m) -> float:
    """Classical numerical radius ``max |x* M x|`` over unit ``x``."""
    m = np.asarray(m, dtype=np.complex128)
    nrm = float(np.linalg.norm(m, 2))
    if nrm == 0.0:
        return 0.0
    delta = 2.0 * np.pi / GRID
    thetas = np.arange(GRID) * delta
    tops = np.linalg.eigvalsh(hermitian_part(m, thetas))[:, -1]
    best = float(np.max(tops))
    # lambda(theta) is nrm-Lipschitz, so the global maximum lies next to a
    # grid local maximum within nrm * delta of the best grid value.
    near = (tops >= np.roll(tops, 1)) & (tops >= np.roll(tops, -1))
    for theta in thetas[near & (tops >= best - nrm * delta)]:
        x = np.linalg.eigh(hermitian_part(m, theta))[1][:, -1]
        value = abs(complex(np.vdot(x, m @ x)))
        for _ in range(ASCENT_STEPS):
            z = complex(np.vdot(x, m @ x))
            x = np.linalg.eigh(hermitian_part(m, -np.angle(z)))[1][:, -1]
            new = abs(complex(np.vdot(x, m @ x)))
            if new <= value * (1.0 + 1e-15):
                value = max(value, new)
                break
            value = new
        best = max(best, value)
    return best


def weighted_radius(a, t) -> float:
    """A-numerical radius of ``T``: the classical radius of its reduction."""
    return radius(reduce(a, t))
