"""The package's public surface: the export list and the README's tour."""

import re
from pathlib import Path

import indexlab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from indexlab import *", namespace)
    for name in indexlab.__all__:
        assert namespace[name] is getattr(indexlab, name)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
