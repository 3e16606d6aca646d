"""README's examples, run as printed, so a renamed or deleted public name fails a test."""

import re
from pathlib import Path

from fwflow.cli import _PRESETS, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    assert blocks, "README has no python block"
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_certify_example_prints_readme_lines(capsys):
    # the example prints its first rows, then "..."
    example = re.search(r"^\$ fwflow (certify [^\n]*)\n(.*?)^\.\.\.$", README, re.S | re.M)
    assert example, "README has no fwflow certify example"
    argv, lines = example.group(1).split(), example.group(2).splitlines()
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[: len(lines)] == lines


def test_preset_list_names_every_preset():
    section = re.search(r"^## Experiment presets\n(.*?)^## ", README, re.S | re.M)
    assert section, "README has no Experiment presets section"
    names = re.findall(r"^- `([^`]+)` — ", section.group(1), re.M)
    assert sorted(names) == sorted(_PRESETS)
