"""Count the AST statements of each module of the poleplace package.

    python3 scripts/count_statements.py [SRC_DIR]

Prints, per module of SRC_DIR (default: src/poleplace next to this script's
directory), the number of `ast.stmt` nodes with docstrings excluded, then
the total.  A docstring is the leading string-literal expression statement
of a module, class or function body.
"""

import ast
import sys
from pathlib import Path


def is_docstring(node, parent):
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                            ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def count_statements(source):
    tree = ast.parse(source)
    count = 0
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, ast.stmt) and not is_docstring(child, parent):
                count += 1
    return count


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "poleplace"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = count_statements(path.read_text())
        total += count
        print(f"{path.name:16} {count:5d}")
    print(f"{'total':16} {total:5d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
