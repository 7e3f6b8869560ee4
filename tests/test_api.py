"""The public API takes no option that changes no result or has one value."""

import argparse
import dataclasses
import inspect

import aradius
from aradius import SemiInnerContext
from aradius.cli import _build_parser


def _parameters():
    for name in aradius.__all__:
        obj = getattr(aradius, name)
        if not callable(obj):
            continue
        try:
            yield name, inspect.signature(obj).parameters
        except ValueError:  # exception classes built on builtins
            continue


def test_no_public_callable_takes_max_dim_or_an_unused_tol():
    # Every tolerance is a module constant: RANK_TOL, STRUCTURE_RTOL.
    for name, params in _parameters():
        assert "max_dim" not in params, name
        assert "rank_tol" not in params, name
        assert "tol" not in params, name


def test_no_cli_command_has_a_tol_flag():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, cmd_parser in sub.choices.items():
        flags = {flag for action in cmd_parser._actions for flag in action.option_strings}
        assert "--tol" not in flags, command
        assert "--rank-tol" not in flags, command


def test_a_weight_context_stores_only_its_factorization():
    assert [f.name for f in dataclasses.fields(SemiInnerContext)] == ["a", "v_r", "lam"]
    for name in ("rank", "sqrt_lam", "a_pinv", "range_proj"):
        assert isinstance(getattr(SemiInnerContext, name), property), name
