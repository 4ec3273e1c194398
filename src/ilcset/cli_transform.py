"""The part of the command-line front end that only ``transform`` uses:
the transform document, written in ``json.dumps(indent=2)``'s text."""

from __future__ import annotations

import functools
import json
import math

import numpy as np


def _json_list(item: str, count: int, level: int) -> str:
    """json.dumps(indent=2)'s text of a list of count items, each item's text
    at nesting level + 1, for the list at nesting level."""
    if not count:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join([item] * count) + "\n" + "  " * level + "]"


def _json_object(items: list, level: int) -> str:
    """json.dumps(indent=2)'s text of an object of (key, value text) items,
    each value's text at nesting level + 1, for the object at nesting level."""
    pad = "\n" + "  " * (level + 1)
    return ("{" + pad + ("," + pad).join(f"{json.dumps(key)}: {text}" for key, text in items)
            + "\n" + "  " * level + "}")


@functools.lru_cache(maxsize=32)
def _array_layout(shape: tuple, level: int) -> str:
    """json.dumps(indent=2)'s text of an array of this shape at nesting
    level, with %s in place of each number."""
    if not shape:
        return "%s"
    return _json_list(_array_layout(shape[1:], level + 1), shape[0], level)


def _number_text(a: np.ndarray) -> tuple:
    """The JSON text of each number of a in C order, from one pass of the C
    encoder: float repr, NaN and +-Infinity as json.dumps(indent=2) writes them."""
    if not a.size:
        return ()
    return tuple(json.dumps(a.ravel().tolist())[1:-1].split(", "))


def _step_text(*stacks: np.ndarray) -> tuple:
    """The number text of stacks that share a leading step axis, step by step:
    step 0's numbers of each stack in turn, then step 1's, and so on."""
    steps = len(stacks[0])
    return _number_text(np.concatenate(
        [a.reshape(steps, math.prod(a.shape[1:])).astype(object) for a in stacks], axis=1))


def _transform_json(transform, square) -> str:
    """transform's document for one iteration's square plant, in
    json.dumps(indent=2)'s text: every step's blocks, then the square plant's
    B and w on the transform's steps, its D (null for "gamma") and its v."""
    steps = transform.steps
    stacks = {"col_perm": transform.col_perm, "matrix": transform.T,
              "inverse": transform.Tinv, "gain_product": transform.gain_products}
    block = _json_object([("k", "%s")] + [(key, _array_layout(a.shape[1:], 3))
                                          for key, a in stacks.items()], 2)
    blocks = _json_list(block, steps, 1) % _step_text(np.arange(steps), *stacks.values())
    Dstar = None if transform.kind == "gamma" else square.D[:steps]
    transformed = _json_object(
        [(key, "null" if a is None else _array_layout(a.shape, 2) % _number_text(a))
         for key, a in (("Bstar", square.B[:steps]), ("Dstar", Dstar),
                        ("wstar", square.w[:steps]), ("vstar", square.v),
                        ("gain_star", transform.gain_products))], 1)
    return _json_object([("kind", json.dumps(transform.kind)), ("p", json.dumps(transform.p)),
                         ("m", json.dumps(transform.m)), ("steps", json.dumps(steps)),
                         ("iteration", "0"), ("blocks", blocks),
                         ("transformed", transformed)], 0)
