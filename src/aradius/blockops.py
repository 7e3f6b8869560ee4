"""Two-by-two block operator matrices over a doubled weight.

The doubled space carries the weight ``diag(A, A)``; the helpers here
assemble the block shapes the bound checkers quantify over and build the
matching doubled context without re-factorizing.  They serve the audit
and callers: the checkers build the block of reduced blocks directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .linalg import DimensionMismatch, as_matrix
from .semihilbert import SemiInnerContext, _frozen

#: Block names required by each kind, in assembly order.
BLOCK_KINDS: Mapping[str, tuple[str, ...]] = MappingProxyType(
    {
        "antidiag": ("X", "Y"),
        "diag": ("X", "Y"),
        "full": ("F", "X", "Y", "K"),
        "symmetric": ("X", "Y"),
    }
)


@dataclass(frozen=True)
class BlockSpec:
    """A named 2x2 block layout over square blocks of equal dimension."""

    kind: str
    blocks: Mapping[str, np.ndarray]

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        needed = BLOCK_KINDS[self.kind]
        mats = {}
        dim = None
        for name in needed:
            if name not in self.blocks:
                raise DimensionMismatch(f"kind {self.kind!r} requires block {name!r}")
            m = as_matrix(self.blocks[name], square=True)
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise DimensionMismatch("blocks must share one dimension")
            mats[name] = m
        object.__setattr__(self, "blocks", MappingProxyType(mats))

    @classmethod
    def antidiag(cls, x, y) -> "BlockSpec":
        """``[[0, X], [Y, 0]]``"""
        return cls("antidiag", {"X": x, "Y": y})

    @classmethod
    def diag(cls, x, y) -> "BlockSpec":
        """``[[X, 0], [0, Y]]``"""
        return cls("diag", {"X": x, "Y": y})

    @classmethod
    def full(cls, f, x, y, k) -> "BlockSpec":
        """``[[F, X], [Y, K]]``"""
        return cls("full", {"F": f, "X": x, "Y": y, "K": k})

    @classmethod
    def symmetric(cls, x, y) -> "BlockSpec":
        """``[[X, Y], [Y, X]]``"""
        return cls("symmetric", {"X": x, "Y": y})


def assemble(spec: BlockSpec) -> np.ndarray:
    """Assemble the dense ``2n x 2n`` matrix described by ``spec``."""
    b = spec.blocks
    if spec.kind == "antidiag":
        x, y = b["X"], b["Y"]
        zero = np.zeros_like(x)
        return np.block([[zero, x], [y, zero]])
    if spec.kind == "diag":
        x, y = b["X"], b["Y"]
        zero = np.zeros_like(x)
        return np.block([[x, zero], [zero, y]])
    if spec.kind == "symmetric":
        x, y = b["X"], b["Y"]
        return np.block([[x, y], [y, x]])
    return np.block([[b["F"], b["X"]], [b["Y"], b["K"]]])


def dsum_context(ctx: SemiInnerContext, k: int = 2) -> SemiInnerContext:
    """Context for the k-fold direct sum weight ``diag(A, ..., A)``.

    All factors are assembled blockwise from the existing ones, so no
    new factorization (and no new rank decision) happens.
    """
    if k < 1:
        raise ValueError("k must be positive")
    eye = np.eye(k)
    return SemiInnerContext(
        a=_frozen(np.kron(eye, ctx.a)),
        a_pinv=_frozen(np.kron(eye, ctx.a_pinv)),
        a_half=_frozen(np.kron(eye, ctx.a_half)),
        a_half_pinv=_frozen(np.kron(eye, ctx.a_half_pinv)),
        range_proj=_frozen(np.kron(eye, ctx.range_proj)),
        rank=k * ctx.rank,
        rank_tol=ctx.rank_tol,
        v_r=_frozen(np.kron(eye, ctx.v_r)),
        sqrt_lam=_frozen(np.tile(ctx.sqrt_lam, k)),
    )
