"""Every script under ``examples/`` must at least load.

Nothing else imports the examples, so one that names a function this
repo has since deleted would only fail in a reader's hands.  All of them
guard their work with ``if __name__ == "__main__"``; loading one under
another run name executes its imports and definitions and nothing more.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples")
    .glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_loads(path):
    namespace = runpy.run_path(str(path), run_name="examples")
    assert callable(namespace.get("main"))
