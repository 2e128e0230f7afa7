"""The README's library example and command lines run and print what their comments say."""

import ast
import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np

from decfem import Cochain, abstr, cli, cochain_to_json, load_mesh

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_values_match_its_comments():
    source = library_example()
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    lines = source.splitlines()
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            continue
        line = lines[node.lineno - 1]
        comment = line.split("#", 1)[1].strip()
        value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        if comment.startswith("~"):  # a roundoff-sized error
            assert 0 <= value <= 1e-12, line
        else:
            assert value == ast.literal_eval(comment), line
        checked.append(comment)
    assert checked == ["[1, 1, 0]", "[1, 1, 0]", "~1e-15", "~1e-15"]


def command_lines() -> list:
    text = README.read_text()
    section = text[text.index("## Command-line use"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


def test_command_lines_exit_zero_and_betti_prints_its_comment(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    # The cup line's inputs: a 0- and a 1-cochain of the square.
    ac = abstr(load_mesh(Path("fixtures/square.json").read_text()))
    for name, p in (("a.json", 0), ("b.json", 1)):
        values = np.arange(ac.num_simplices(p), dtype=float)
        Path(name).write_text(json.dumps(cochain_to_json(Cochain(ac, p, values))))
    commands = []
    for line in command_lines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "decfem", line
        capsys.readouterr()
        assert cli.main(argv[1:]) == 0, line
        if argv[1] == "betti":
            assert capsys.readouterr().out == comment.strip() + "\n", line
        commands.append(argv[1])
    assert commands == ["info", "betti", "generators", "harmonic", "hodge", "solve", "converge", "cup", "verify"]
