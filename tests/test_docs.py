"""Documentation and bench wrappers that name library code stay in step with it."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_prints_its_comments(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert expected, "the example documents no printed line"
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_bench_span_targets_resolve():
    # bench/spans.py wraps library functions and methods by name; a renamed or
    # deleted target would only surface when a traced bench run starts.
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("TIMED", "TIMED_METHODS")
    }
    assert tables["TIMED"] and tables["TIMED_METHODS"]
    for module, name in tables["TIMED"]:
        target = getattr(importlib.import_module(f"hahnforge.{module}"), name, None)
        assert callable(target), (module, name)
    for module, cls, method in tables["TIMED_METHODS"]:
        owner = getattr(importlib.import_module(f"hahnforge.{module}"), cls, None)
        assert callable(getattr(owner, method, None)), (module, cls, method)
