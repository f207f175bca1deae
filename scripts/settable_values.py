"""List the settable values of src/energynet: every parameter with a default
and every dataclass field with a default.

Each is printed as `file:line owner.name = default`, in file order, and the
last line is `total: N`.  A dataclass field counts when its class is
decorated with `dataclass` (bare or called) and the field has a value, unless
that value is a `field(...)` call with neither `default` nor
`default_factory`.

Usage:
    python scripts/settable_values.py              # the package
    python scripts/settable_values.py PATH ...     # these files or directories
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "energynet"


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _field_has_default(value):
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def settable_values(source):
    """(line, 'owner.name = default') for each settable value in source, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            pairs += [(k, d) for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [(arg.lineno, f"{owner}.{arg.arg} = {ast.unparse(d)}") for arg, d in pairs]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            found += [
                (stmt.lineno, f"{node.name}.{stmt.target.id} = {ast.unparse(stmt.value)}")
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and _field_has_default(stmt.value)
            ]
    return sorted(found)


def main(argv):
    paths = [Path(p) for p in argv] or [PACKAGE]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for path in files:
        shown = path.resolve().relative_to(ROOT) if path.resolve().is_relative_to(ROOT) else path
        for line, text in settable_values(path.read_text()):
            print(f"{shown}:{line} {text}")
            total += 1
    print(f"total: {total}")


if __name__ == "__main__":
    main(sys.argv[1:])
