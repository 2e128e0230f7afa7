"""The README's library example runs and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
