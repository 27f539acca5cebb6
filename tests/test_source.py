"""Source-level guards on the trdeg package."""

import ast
from pathlib import Path

import trdeg


def test_no_assert_in_package():
    # python -O strips assert statements, so an internal check written as one
    # silently disappears; checks raise InternalInconsistencyError instead.
    # A bare AssertionError would also escape the CLI's TrdegError handler.
    sources = sorted(Path(trdeg.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert found == []
