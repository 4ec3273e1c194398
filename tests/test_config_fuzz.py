"""Seeded fuzz of the config pipeline: mutated preset documents through
`cli.main` for every command, in process.

Whatever a mutation does, a command exits 0, 1 or 2 and raises nothing; a
config error (exit 2) writes nothing to stdout and one ``config error:``
line to stderr, whose path names a place in the document or its parent.
"""

import copy
import json
import random

import pytest

from ilcset.cli import main
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
            "ｎ", "", "N ")


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
    """The path of a ``config error:`` line, as its segments."""
    path = line.removeprefix("config error: ").split(": ", 1)[0]
    return [] if path == "/" else path.split("/")[1:]


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
