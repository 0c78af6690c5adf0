"""The README's Library section is the contract of the public API: its example
runs, and it names every export of the package."""

import re
from pathlib import Path

import doptdesign

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", library_section(), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["result"].converged
    assert 0.0 <= namespace["cert"].gap <= namespace["cert"].n_d * 1e-6


def test_readme_library_names_every_export():
    section = library_section()
    missing = [
        name
        for name in doptdesign.__all__
        if not re.search(rf"\b{re.escape(name)}\b", section)
    ]
    assert not missing, f"exports the README Library section does not name: {missing}"
