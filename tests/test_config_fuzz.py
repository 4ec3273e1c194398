"""Seeded fuzz of the config pipeline: mutated preset documents through
`cli.main` for every command, in process.

Whatever a mutation does, a command exits 0, 1 or 2 and raises nothing; a
config error (exit 2) writes nothing to stdout and one ``config error:``
line to stderr, whose path names a place in the document or its parent.
And every leaf a document holds is read: changing it changes what `run`
writes, but for the one leaf the README documents as unused.
"""

import copy
import json
import random

import pytest

from ilcset.cli import main
from ilcset.config import MODES
from ilcset.presets import preset_config

SEED = 20261022
CASES = 100
# Written into the JSON text as the bare literal 1e999, which json.load
# reads as an infinite float.
HUGE = "__1e999__"
VALUES = (None, True, False, 0, -1, 3, 2 ** 70, 0.5, 1e300, float("nan"), float("inf"),
          HUGE, "1e999", "nan", "", "0", "-0", "k", "2*k", "1e-300", "1/0", "exp(k)^8",
          "٣", "３", "2²", "x" * 40, [], [[]], [["1"], ["1", "2"]], ["1", ["2"]],
          [[float("nan")]], {}, {"E": []}, "direct-gamma", "transformed-xi")
NEW_KEYS = ("extra", "amplitude", "Xi2", "iteration", "modes", "structured_d",
            "ｎ", "", "N ", "A/0", "x~1")


def walk(rnd: random.Random, doc: dict) -> tuple:
    """A random place in doc, as a tuple of keys and indices: each step
    goes one level deeper with probability 0.8, so sections are picked
    about as often as grid cells."""
    path, node = (), doc
    while isinstance(node, (dict, list)) and node and (not path or rnd.random() < 0.8):
        step = rnd.choice(list(node) if isinstance(node, dict) else range(len(node)))
        path, node = path + (step,), node[step]
    return path


def at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def mutate(rnd: random.Random, doc: dict) -> None:
    """Apply one random mutation to doc in place: replace a value, delete
    a key or element, or add a key."""
    path = walk(rnd, doc)
    parent, value = at(doc, path[:-1]), copy.deepcopy(rnd.choice(VALUES))
    kind = rnd.choice(("replace", "replace", "delete", "add"))
    if kind == "add":
        parent = parent if isinstance(parent, dict) else doc
        parent[rnd.choice(NEW_KEYS + tuple(parent))] = value
    elif kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def resolves(doc, segments) -> bool:
    for segment in segments:
        if isinstance(doc, dict) and segment in doc:
            doc = doc[segment]
        elif isinstance(doc, list) and segment.isdigit() and int(segment) < len(doc):
            doc = doc[int(segment)]
        else:
            return False
    return True


def error_path(line: str) -> list:
    """The JSON Pointer of a ``config error:`` line, as its decoded segments."""
    path = line.removeprefix("config error: ").split(": ", 1)[0]
    return [] if path == "/" else [segment.replace("~1", "/").replace("~0", "~")
                                   for segment in path.split("/")[1:]]


def mutated_docs():
    rnd = random.Random(SEED)
    for case in range(CASES):
        doc = preset_config(("example1", "example2")[case % 2])
        doc["system"]["N"] = 6
        for _ in range(rnd.choice((1, 1, 1, 2))):
            mutate(rnd, doc)
        yield doc


@pytest.mark.parametrize("command", [
    ["run", "--iterations", "2"],
    ["run", "--iterations", "2", "--verify-set"],
    ["check"],
    ["transform"],
], ids=["run", "run-verify-set", "check", "transform"])
def test_mutated_presets_exit_cleanly(command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    statuses = []
    for doc in mutated_docs():
        path.write_text(json.dumps(doc).replace(f'"{HUGE}"', "1e999"), encoding="utf-8")
        status = main(command + ["--config", str(path)])
        out, err = capsys.readouterr()
        statuses.append(status)
        assert status in (0, 1, 2), (doc, err)
        if status == 2:
            assert out == "", doc
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: "), err
            seen = copy.deepcopy(doc)
            if "--iterations" in command:  # the flag's value, as the CLI puts it
                seen.setdefault("run", {})
                if isinstance(seen["run"], dict):
                    seen["run"]["iterations"] = 2
            segments = error_path(lines[0])
            assert resolves(seen, segments) or resolves(seen, segments[:-1]), (lines[0], doc)
    # Both outcomes are exercised.
    assert statuses.count(2) >= CASES // 4 and statuses.count(2) < CASES


def leaf_docs() -> dict:
    """Documents whose every leaf some output depends on.  A nonzero u0
    drives the third input, which both presets' gains leave silent (their
    third row is zero): with u0 = 0, B's and D's third columns would change
    nothing that run writes."""
    docs = {}
    for name, u0 in (("example1", ["0.1", "0.2", "0.3"]), ("example2", ["0.1", "0.2", "0.3"]),
                     ("structured", ["0.1", "0.2"])):
        doc = STRUCTURED if name == "structured" else preset_config(name)
        doc = copy.deepcopy(doc)
        doc["system"]["N"] = 6
        # In the document, not by --iterations, which would override the leaf.
        doc["run"].update(iterations=2, u0=u0)
        docs[name] = doc
    return docs


# README's structured_D example, with an amplitude for D beside structured_D.
STRUCTURED = {
    "system": {
        "n": 1, "m": 2, "p": 1, "N": 50,
        "A": [["0.2"]], "B": [["0.5", "0.2*sin(0.3*k)"]],
        "C": [["1"]], "D": [["1", "0.5"]],
        "w": ["0"], "v": ["0"], "r": ["sin(0.1*k)"], "x0": [0],
    },
    "uncertainty": {
        "seed": 7,
        "amplitudes": {"A": 0.0002, "w": 0.0002, "D": 0.0002},
        "structured_D": {"E": [[0.01]], "F": [["0.01", "0"]]},
    },
    "gains": {"Xi": [["0.8"], ["0"]]},
    "run": {"mode": "direct-xi", "iterations": 200, "record_every": 1},
}
# The leaves a document accepts but does not read: D's amplitude beside
# structured_D, which is D's whole nonrepetitive part.
UNREAD = {("structured", ("uncertainty", "amplitudes", "D"))}


def leaves(node, path=()):
    """Each scalar of node with its path, as (path, value)."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from leaves(child, path + (key,))
    else:
        yield path, node


def changed(path: tuple, value):
    """value changed once: the next mode, an expression plus 0.5, an
    integer plus 1, a float doubled (0.5 for 0)."""
    if path == ("run", "mode"):
        return MODES[(MODES.index(value) + 1) % len(MODES)]
    if isinstance(value, str):
        return f"({value})+0.5"
    if isinstance(value, int):
        return value + 1
    return 2 * value if value else 0.5


def test_every_accepted_leaf_is_read(tmp_path, capsys):
    path, out = tmp_path / "doc.json", tmp_path / "out.csv"
    written = (out, tmp_path / "out_traj.csv")

    def outcome(doc) -> tuple:
        for file in written:
            file.unlink(missing_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
        status = main(["run", "--config", str(path), "--record-trajectories", "all",
                       "--out", str(out)])
        return (status, *capsys.readouterr(),
                *(file.read_bytes() if file.exists() else None for file in written))

    unread, count = set(), 0
    for name, doc in leaf_docs().items():
        base = outcome(doc)
        assert base[0] == 0, base
        for where, value in leaves(doc):
            mutated = copy.deepcopy(doc)
            at(mutated, where[:-1])[where[-1]] = changed(where, value)
            count += 1
            if outcome(mutated) == base:
                unread.add((name, where))
    assert unread == UNREAD
    assert count > 150
