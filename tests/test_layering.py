"""Modules of the package use only each other's public names.

A name with a leading underscore belongs to the module that defines it: a
second module that imports it, or reads it off the module object, has
taken over a decision the owner should make once. Every module under
``src/shorsim`` is parsed, and each such use is reported with its place.
A module whose own name has a leading underscore is internal to the
package, not to a module, so importing it is allowed.
"""

import ast
from pathlib import Path

PACKAGE = "shorsim"
SRC = Path(__file__).resolve().parent.parent / "src" / PACKAGE
MODULES = sorted(SRC.glob("*.py"))
MODULE_NAMES = {p.stem for p in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def _package_module(node: ast.ImportFrom):
    """The package module named by ``from ... import``, else None.

    Returns "" for the package's ``__init__`` (``from . import x``).
    """
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module:
        head, _, rest = node.module.partition(".")
        if head == PACKAGE:
            return rest
    return None


def private_uses(path: Path) -> list[str]:
    """Every use in ``path`` of another package module's private name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    own = path.stem
    aliases = {}  # local name -> package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node)
            if source is None:
                continue
            for a in node.names:
                if source == "" and a.name in MODULE_NAMES:
                    # ``from . import spectrum``: the name is a module.
                    aliases[a.asname or a.name] = a.name
                elif source != own and _private(a.name):
                    found.append(f"{path.name}:{node.lineno} imports "
                                 f"{source or PACKAGE}.{a.name}")
        elif isinstance(node, ast.Import):
            for a in node.names:
                head, _, rest = a.name.partition(".")
                if head == PACKAGE and rest and a.asname:
                    aliases[a.asname] = rest
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and aliases[node.value.id] != own
                and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} reads "
                         f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {
        "numtheory", "spectrum", "pipeline", "auditor", "cli"
    }


def test_no_module_uses_another_modules_private_names():
    found = [use for path in MODULES for use in private_uses(path)]
    assert found == []


def test_checker_flags_private_import_and_attribute(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from . import numtheory as nt, spectrum, _hidden\n"
        "from .spectrum import _kernel, build_spectrum\n"
        "from shorsim.pipeline import _mirrored\n"
        "spectrum._require_instance_range(15, 7)\n"
        "nt.order_oracle(7, 15)\n"
        "nt._helper\n"
    )
    assert sorted(private_uses(path)) == [
        "probe.py:1 imports shorsim._hidden",
        "probe.py:2 imports spectrum._kernel",
        "probe.py:3 imports pipeline._mirrored",
        "probe.py:4 reads spectrum._require_instance_range",
        "probe.py:6 reads numtheory._helper",
    ]
