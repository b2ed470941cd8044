"""The README's library quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def quick_start() -> str:
    """The first python block of README.md."""
    with open(README) as fh:
        return re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1)


def test_quick_start_runs(capsys):
    ns = {}
    exec(compile(quick_start(), README, "exec"), ns)
    # the printed integral of q_r is the O(h^3) edge term the comment states
    assert 0.0 < -float(capsys.readouterr().out) < 1e-8
    assert len(ns["lines"]) == 9
