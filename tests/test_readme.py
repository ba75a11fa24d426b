"""The README's Python examples run: a deleted or renamed name that they
still call fails here, on each kernel backend."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)


def test_the_readme_has_python_examples():
    assert _python_blocks()


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_each_python_example_of_the_readme_runs(backend, capsys, index):
    exec(compile(_python_blocks()[index], f"README.md python block {index}", "exec"), {})
