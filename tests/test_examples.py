"""Every script in ``examples/`` still imports against the current API.

Each example is loaded with ``runpy.run_path(..., run_name="example")`` so
its ``main()`` does not run, in a fresh interpreter: ``custom_scenario.py``
registers a dataset, a partitioner and a sampler on import, and those
registrations must not leak into this test session.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))
SRC = str(Path(repro.__file__).resolve().parents[1])


def test_examples_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    code = (
        "import runpy, sys; "
        "namespace = runpy.run_path(sys.argv[1], run_name='example'); "
        "assert callable(namespace['main'])"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
