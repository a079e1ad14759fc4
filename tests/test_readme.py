"""README's code runs as written."""

import ast
import re
from pathlib import Path

from swnopt.pnml import write_pnml

from .fixtures import parallel_choice_swn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    swn = parallel_choice_swn()
    (tmp_path / "net.pnml").write_bytes(write_pnml(swn))
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), "README.md (Library quickstart)", "exec"), {})
    value, weights = capsys.readouterr().out.split(" ", 1)
    weights = ast.literal_eval(weights)
    assert float(value) <= 1e-3  # the log's two traces are both in the net's language
    assert list(weights) == list(swn.wn.net.transitions)
    assert max(weights.values()) == 1.0
