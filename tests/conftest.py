"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the code paths used by the package:
spectral norms come from power iteration on the Gram matrix, numerical
radii from alternating ascent over the field of values backed by a
golden-section search over an angle grid's best cells (and from a flat
dense angle grid with no refinement), so agreement between package and
oracle is evidence rather than tautology.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from aradius import DegenerateContext, make_context, reduce

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# --------------------------------------------------------------------------
# random input helpers


def cgauss(rng: np.random.Generator, *shape) -> np.ndarray:
    """Standard complex Gaussian array."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    """Random PSD weight, optionally rank-deficient, spectral norm ~1."""
    g = cgauss(rng, n, n)
    if rank is not None and rank < n:
        d = np.zeros(n)
        d[:rank] = rng.uniform(0.5, 2.0, rank)
        a = g.conj().T @ np.diag(d) @ g
    else:
        a = g @ g.conj().T / n + 1e-3 * np.eye(n)
    return a / np.linalg.norm(a, 2)


def random_context(rng: np.random.Generator, n: int, rank: int | None = None):
    return make_context(random_psd(rng, n, rank))


_DEFAULT_RNG = np.random.default_rng


class ShrunkStream:
    """numpy's normal stream of ``seed`` with the values at stream positions ``where`` times ``by``.

    Each ``standard_normal`` call continues the stream, so the same values
    are shrunk whether they are drawn in one array or in pieces.
    """

    def __init__(self, seed, where, by: float):
        self._rng = _DEFAULT_RNG(seed)
        self._where = np.asarray(where)
        self._by = by
        self._pos = 0

    def standard_normal(self, size):
        out = self._rng.standard_normal(size)
        lo, hi = self._pos, self._pos + out.size
        hit = self._where[(self._where >= lo) & (self._where < hi)]
        out.reshape(-1)[hit - lo] *= self._by
        self._pos = hi
        return out


def shrink_stream(monkeypatch, where, by: float) -> None:
    """Make every ``np.random.default_rng(seed)`` a :class:`ShrunkStream` for the test."""
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: ShrunkStream(seed, where, by))


def within(seconds: float, fn, *args):
    """``fn(*args)`` run on a daemon thread, failing the test if it has not returned in ``seconds``."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args)
        except BaseException as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "the call did not return"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


# --------------------------------------------------------------------------
# independent oracles


def radius_lower_reference(ctx, t, samples: int, seed: int):
    """The sampled A-radius lower bound from whole-array draws, one sample at a time.

    It draws each sample's real part, then its imaginary part, as one
    ``(samples, 2, dim)`` array, and takes each sample's quotient in a
    loop.  Only the two projections stay products of all samples at once:
    numpy multiplies a single row by a matrix-vector product, which can
    round differently.  Returns the bound and how many samples were kept.
    """
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((samples, 2, ctx.dim))
    g = parts[:, 0] + 1j * parts[:, 1]
    y = (g @ ctx.v_r.conj()) * ctx.sqrt_lam
    ty = y @ reduce(ctx, t).T
    norms_sq = np.array([np.sum(np.abs(row) ** 2) for row in y])
    numer = np.array([np.abs(np.sum(np.conj(row) * trow)) for row, trow in zip(y, ty)])
    keep = norms_sq > 1e-24 * max(ctx.lam.max(), norms_sq.max())
    if not keep.any():
        raise DegenerateContext("no sample survived seminorm normalization")
    return float(np.max(numer[keep] / norms_sq[keep])), int(keep.sum())


def oracle_spectral_norm(m, iters: int = 600, seed: int = 0) -> float:
    """Largest singular value via power iteration on the Gram matrix."""
    m = np.asarray(m, dtype=np.complex128)
    gram = m.conj().T @ m
    rng = np.random.default_rng(seed)
    v = cgauss(rng, gram.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.real(np.vdot(v, gram @ v))))


def oracle_radius(m, restarts: int = 24, iters: int = 120, seed: int = 0) -> float:
    """Classical numerical radius: the larger of an alternating ascent and :func:`_golden_radius`.

    For a fixed angle the maximizer of ``Re e^{-i t} <Mx, x>`` over unit
    vectors is the top eigenvector of the Hermitian part of
    ``e^{-i t} M``; updating the angle to ``arg <Mx, x>`` and repeating
    climbs to a local maximum of ``|<Mx, x>|``.  The ascent can stall
    where the derivative of ``lambda_max`` in the angle vanishes at a
    local minimum (a real matrix at angle 0, say), so the golden-section
    search over the best grid cells backs it up.
    """
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    best = 0.0
    starts = [cgauss(rng, n) for _ in range(restarts)] + [e for e in np.eye(n)]
    for x in starts:
        x = np.asarray(x, dtype=np.complex128)
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        x = x / nx
        for _ in range(iters):
            val = complex(np.vdot(x, m @ x))
            theta = 0.0 if val == 0 else np.angle(val)
            h = 0.5 * (np.exp(-1j * theta) * m + np.exp(1j * theta) * m.conj().T)
            vals, vecs = np.linalg.eigh(h)
            x_new = vecs[:, -1]
            if np.linalg.norm(x_new - x) < 1e-14 or np.linalg.norm(x_new + x) < 1e-14:
                x = x_new
                break
            x = x_new
        best = max(best, abs(complex(np.vdot(x, m @ x))))
    return max(float(best), _golden_radius(m))


def _top_eigenvalues(m, thetas) -> np.ndarray:
    """``lambda_max`` of the Hermitian part of ``e^{-i t} M`` at each angle ``t`` of ``thetas``.

    The Hermitian parts are solved about 2**20 entries at a time.
    """
    step = max(1, 2**20 // m.size)
    tops = []
    for lo in range(0, len(thetas), step):
        phases = np.exp(-1j * thetas[lo : lo + step])[:, None, None]
        h = 0.5 * (phases * m[None, :, :] + np.conj(phases) * m.conj().T[None, :, :])
        tops.append(np.linalg.eigvalsh(h)[:, -1])
    return np.concatenate(tops)


def _golden_radius(m, k: int = 1024, cells: int = 4, steps: int = 60) -> float:
    """Numerical radius by golden-section maximization of ``lambda_max`` on a ``k``-angle grid's best cells.

    Each of the ``cells`` best grid angles brackets its two neighbouring
    cells, and ``steps`` golden-section steps shrink every bracket at once
    to the rounding level of the angle.  Every value is ``lambda_max`` at
    an angle, so the result is the radius up to rounding from below.
    """
    m = np.asarray(m, dtype=np.complex128)
    grid = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    tops = _top_eigenvalues(m, grid)
    mid = grid[np.argsort(tops)[-cells:]]
    lo, hi = mid - 2.0 * np.pi / k, mid + 2.0 * np.pi / k
    ratio = 0.5 * (np.sqrt(5.0) - 1.0)
    for _ in range(steps):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        at_a, at_b = np.split(_top_eigenvalues(m, np.concatenate([a, b])), 2)
        left = at_a >= at_b  # the maximum lies in [lo, b]
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
    return float(max(tops.max(), _top_eigenvalues(m, 0.5 * (lo + hi)).max()))


def oracle_radius_grid(m, k: int = 16384) -> float:
    """Numerical radius from a flat dense angle grid, no refinement.

    Batched eigensolves of the Hermitian parts ``H_t`` for ``k`` equally
    spaced angles; the maximum top eigenvalue is the radius up to the
    quadratic grid error.
    """
    m = np.asarray(m, dtype=np.complex128)
    return float(np.max(_top_eigenvalues(m, np.linspace(0.0, 2.0 * np.pi, k, endpoint=False))))


def half_factors(ctx):
    """``A^{1/2}`` and its pseudoinverse, rebuilt from ``v_r`` and ``sqrt_lam``."""
    vh = ctx.v_r.conj().T
    return (ctx.v_r * ctx.sqrt_lam) @ vh, (ctx.v_r / ctx.sqrt_lam) @ vh


def a_unit_vector(ctx, rng: np.random.Generator) -> np.ndarray:
    """Random vector normalized to A-norm one (range component kept)."""
    from aradius import vec_seminorm

    for _ in range(64):
        x = ctx.range_proj @ cgauss(rng, ctx.dim)
        nx = vec_seminorm(ctx, x)
        if nx > 1e-8:
            return x / nx
    raise AssertionError("could not draw an A-unit vector")


# --------------------------------------------------------------------------
# fixtures


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def identity_ctx():
    return make_context(np.eye(3))


@pytest.fixture
def diag_ctx():
    return make_context(np.diag([1.0, 2.0]))


@pytest.fixture
def rank1_ctx():
    return make_context(np.ones((2, 2)))


# --------------------------------------------------------------------------
# acceptance summary lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one verdict line per acceptance criterion."""
    lines = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            tag = name.replace("test_criterion_", "")
            num, _, label = tag.partition("_")
            verdict = "PASS" if status == "passed" else "FAIL"
            lines[int(num)] = (
                f"criterion {num} [{verdict}] {label.replace('_', ' ')}"
            )
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num in sorted(lines):
            terminalreporter.write_line(lines[num])
