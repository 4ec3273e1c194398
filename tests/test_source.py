"""Limits on the package's source files themselves."""

import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ilcset"
# CPython's parser grows its token array by doubling.  A module compiled
# from source with more tokens than this pays the next doubling, about
# 224 KB of peak memory at import (tracemalloc of compile()), and every
# invocation compiles from source when no bytecode is cached.
PARSER_TOKEN_STEP = 4096
_UNCOUNTED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)


def parser_tokens(path: pathlib.Path) -> int:
    """The tokens of a source file, comments and blank lines not counted."""
    with open(path, "rb") as fh:
        return sum(tok.type not in _UNCOUNTED for tok in tokenize.tokenize(fh.readline))


def test_every_module_fits_the_parser_token_step():
    counts = {path.name: parser_tokens(path) for path in sorted(SRC.glob("*.py"))}
    assert "cli.py" in counts
    over = {name: count for name, count in counts.items() if count > PARSER_TOKEN_STEP}
    assert not over, f"modules over {PARSER_TOKEN_STEP} parser tokens: {over}"
