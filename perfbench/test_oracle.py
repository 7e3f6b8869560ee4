"""The benchmark's radius oracle against closed forms.

Run with ``python3 -m pytest perfbench/test_oracle.py``.
"""

import numpy as np
import pytest

import oracle


def jordan(n, s):
    return s * np.eye(n, k=1, dtype=np.complex128)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("s", [1e-6, 1.0, 3.5, 1e6])
def test_jordan_block(n, s):
    expect = s * np.cos(np.pi / (n + 1))
    assert abs(oracle.radius(jordan(n, s)) - expect) <= 1e-12 * expect


@pytest.mark.parametrize("seed", range(6))
def test_hermitian_is_largest_absolute_eigenvalue(seed):
    rng = np.random.default_rng(seed)
    n = 2 + seed
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g + g.conj().T
    expect = np.max(np.abs(np.linalg.eigvalsh(h)))
    assert abs(oracle.radius(h) - expect) <= 1e-12 * expect


@pytest.mark.parametrize("seed", range(6))
def test_normal_is_largest_absolute_eigenvalue(seed):
    rng = np.random.default_rng(100 + seed)
    n = 2 + seed
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = (q * eigs) @ q.conj().T
    expect = np.max(np.abs(eigs))
    assert abs(oracle.radius(m) - expect) <= 1e-12 * expect


def test_weighted_radius_uses_only_the_range_of_the_weight():
    # On diag(d, 0) a kernel-preserving T reduces to diag(sqrt d) T11 diag(1/sqrt d).
    d = np.array([1.0, 4.0])
    a = np.diag(np.concatenate([d, [0.0]]))
    t = np.zeros((3, 3), dtype=np.complex128)
    t[:2, :2] = jordan(2, 2.0)
    t[2, :] = [5.0, -1.0, 7.0]
    core = np.sqrt(d)[:, None] * t[:2, :2] / np.sqrt(d)[None, :]
    expect = 0.5 * abs(core[0, 1])  # radius of [[0, c], [0, 0]] is |c| / 2
    assert abs(oracle.weighted_radius(a, t) - expect) <= 1e-12 * expect
