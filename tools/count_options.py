"""Count the optional values of the package and its source lines.

Usage (from the repository root)::

    python tools/count_options.py            # the total, then the src/ line count
    python tools/count_options.py --list     # also every optional value, one a line
    python tools/count_options.py --modules  # also the src/ lines of every module

An optional value is a value a caller may leave out:

* a function or method parameter with a default (positional or keyword-only);
* a dataclass field with a plain default or a ``field(default=...)`` or
  ``field(default_factory=...)``.

``field(repr=False)`` and other ``field`` calls without a default are
required and not counted. The source is parsed, not imported, so the count
needs no dependency. Lines are the physical lines of every ``*.py`` file
under ``src/``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _field_has_default(value: ast.expr) -> bool:
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def optional_values(tree: ast.AST) -> list[str]:
    """Names of the optional values in one module, as ``owner.name``."""
    found: list[str] = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                 if d is not None]
                found.extend(f"{owner}{child.name}({a.arg})" for a in with_default)
                visit(child, f"{owner}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    found.extend(f"{owner}{child.name}.{stmt.target.id}"
                                 for stmt in child.body
                                 if isinstance(stmt, ast.AnnAssign)
                                 and isinstance(stmt.target, ast.Name)
                                 and stmt.value is not None
                                 and _field_has_default(stmt.value))
                visit(child, f"{owner}{child.name}.")

    visit(tree, "")
    return found


def count(src: Path = SRC) -> tuple[list[str], dict[str, int]]:
    """(every optional value as ``module:owner.name``, the physical lines of
    every module)."""
    values: list[str] = []
    lines: dict[str, int] = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        module = path.relative_to(src).with_suffix("").as_posix().replace("/", ".")
        lines[module] = len(text.splitlines())
        values.extend(f"{module}:{name}" for name in optional_values(ast.parse(text)))
    return values, lines


def main(argv: list[str]) -> int:
    values, lines = count()
    if "--list" in argv:
        for name in values:
            print(name)
    if "--modules" in argv:
        for module, n in lines.items():
            print(f"{module} {n}")
    print(f"optional values {len(values)}")
    print(f"src lines {sum(lines.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
