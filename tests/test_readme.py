"""README's code runs as written, and every flag it gives swnopt exists."""

import argparse
import ast
import re
from pathlib import Path

from swnopt import cli
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


def _swnopt_flags(text: str) -> set[str]:
    """Every ``--flag`` README gives to swnopt: on its ``swnopt ...`` command
    lines (continuations joined) and anywhere in its Command line section."""
    commands = [line for line in re.sub(r"\\\n", " ", text).splitlines() if line.lstrip().startswith("swnopt ")]
    section = re.search(r"^## Command line\n(.*?)(?=^## )", text, re.S | re.M).group(1)
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(commands + [section])))


def _cli_options() -> set[str]:
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {flag for parser in subparsers.choices.values() for action in parser._actions for flag in action.option_strings}


def test_readme_names_only_flags_the_command_line_has():
    text = README.read_text(encoding="utf-8")
    flags = _swnopt_flags(text)
    assert {"--net", "--out-convergence", "--coverage", "--max-trace-len", "--case-col"} <= flags
    assert flags - _cli_options() == set()
    # a README that still named a removed option would fail
    stale = text.replace("## Command line\n", "## Command line\n\n`--prob-floor` bounds the unfolding.\n")
    assert _swnopt_flags(stale) - _cli_options() == {"--prob-floor"}
