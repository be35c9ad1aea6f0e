"""README's ``## Library`` Python block runs as written, on a small click corpus in
a temporary directory, so the API it shows cannot drift from the code."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"

#: Two order-2 families through a shared middle node: every order-2 state is
#: visited, with shares far above the block's 0.02.
CLICKS = "home,search,cart;3\nhome,search,help;1\nads,search,cart;1\nads,search,exit;2\nhome;1\n"


def library_block() -> str:
    """The first Python block under ``## Library``."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clicks.paths").write_text(CLICKS, encoding="utf-8")
    scope: dict = {}
    exec(compile(library_block(), str(README), "exec"), scope)
    m2, again, edges, net = scope["m2"], scope["again"], scope["edges"], scope["net"]
    assert m2.node_index[0] == ["ads", "cart", "exit", "help", "home", "search"]
    assert len(edges.rows) and all(len(m2.states[r]) == 2 for r in edges.rows.tolist())
    assert net.nodes == m2.node_index[0] and len(net.counts) == 5
    assert again.states == m2.states and np.array_equal(again.probs, m2.probs)
    assert m2.state_keys == ["|".join(s) for s in m2.states] == again.state_keys
    assert "('home', 'search')" in capsys.readouterr().out
