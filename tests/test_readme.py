"""The README's library sketch runs as written on a small synthetic task."""

from __future__ import annotations

import os
import re

from fbetamax.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_sketch_runs(tmp_path, monkeypatch, capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--seed", "0", "--s", "3", "--d", "12", "--train-size", "200",
                 "--test-size", "50", "--out-dir", "data"]) == 0
    capsys.readouterr()
    exec(compile(blocks[0], README, "exec"), {})
    mean_f = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= mean_f <= 1.0
