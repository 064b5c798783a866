"""The README documents exactly the guards the code can trip."""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _limits_raised_in_src():
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "SizeGuard"):
                continue
            for kw in node.keywords:
                if kw.arg == "limit":
                    # a computed name would escape this check
                    assert isinstance(kw.value, ast.Constant), path
                    names.add(kw.value.value)
    return names


def _limits_in_readme_guard_table():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| `limit` | raised by | extra key |") + 2
    names = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names.add(re.match(r"\| `(\w+)` \|", line).group(1))
    return names


def test_readme_guard_table_names_every_limit_in_src():
    raised = _limits_raised_in_src()
    assert "max_contexts" in raised
    assert _limits_in_readme_guard_table() == raised
