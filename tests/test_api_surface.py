"""Guards on the toolkit's public surface and its documented command lines."""

import ast
import dataclasses
import inspect
import shlex
from functools import cached_property
from pathlib import Path
from types import FunctionType

import anisotl
from anisotl import cli

ROOT = Path(__file__).resolve().parents[1]

# Public names that no module of the toolkit calls and that stay on
# purpose: each checks a claim of the paper or is a test's reference.
ALLOWED_UNREFERENCED = {
    "atom_field": "one explicit atom, the reference for FrameSystem's atom rows",
    "check_submeanvalue": "checks the sub-mean-value inequality of Peetre maximal fields",
    "dilate_field": "exact lattice dilation, the reference for dilation covariance of norms",
    "group_inv": "group law, checked against group_mul and modular",
    "group_mul": "group law, checked for associativity and translation covariance",
    "hl_maximal": "the anisotropic Hardy-Littlewood operator of the maximal inequalities",
    "modular": "modular function of the scaling group",
    "quasi_regular": "quasi-regular representation, the reference for wavelet covariance",
    "reconstruct": "Calderon synthesis, the reference for the discrete reproducing formula",
    "synthesis": "superposition of explicit atoms, the reference for FrameSystem.synthesis",
}


# Public methods and properties ("Class.member") that no module of the
# toolkit loads as an attribute and that stay on purpose.
ALLOWED_UNREFERENCED_MEMBERS: dict[str, str] = {}


def _referenced_names() -> set[str]:
    """Names loaded in any module but __init__.py, outside the definition
    of a function or class of that name."""
    names: set[str] = set()

    def walk(node, inside: frozenset):
        for child in ast.iter_child_nodes(node):
            own = inside
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                own = inside | {child.name}
            if isinstance(child, ast.Name) and child.id not in inside:
                names.add(child.id)
            walk(child, own)

    for path in sorted((ROOT / "src" / "anisotl").glob("*.py")):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text()), frozenset())
    return names


def test_public_functions_and_classes_are_used_by_the_toolkit():
    public = {
        name
        for name in anisotl.__all__
        if inspect.isfunction(getattr(anisotl, name)) or inspect.isclass(getattr(anisotl, name))
    }
    unreferenced = public - _referenced_names()
    assert sorted(unreferenced - set(ALLOWED_UNREFERENCED)) == []
    # the allow-list names only public names that still need it
    assert sorted(set(ALLOWED_UNREFERENCED) - unreferenced) == []


def _loaded_attributes() -> set[str]:
    """Attribute names loaded (obj.name) in any module of the toolkit."""
    return {
        node.attr
        for path in sorted((ROOT / "src" / "anisotl").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_public_members_are_used_by_the_toolkit():
    # every public method or property of a public class, inherited ones
    # included, is loaded as an attribute somewhere in the toolkit
    kinds = (FunctionType, property, cached_property, classmethod, staticmethod)
    members = {
        f"{klass.__name__}.{name}"
        for cls in (getattr(anisotl, n) for n in anisotl.__all__)
        if inspect.isclass(cls)
        for klass in cls.__mro__
        if klass.__module__.startswith("anisotl.")
        for name, value in vars(klass).items()
        if not name.startswith("_") and isinstance(value, kinds)
    }
    loaded = _loaded_attributes()
    unreferenced = {m for m in members if m.rsplit(".", 1)[1] not in loaded}
    assert sorted(unreferenced - set(ALLOWED_UNREFERENCED_MEMBERS)) == []
    assert sorted(set(ALLOWED_UNREFERENCED_MEMBERS) - unreferenced) == []


def test_public_dataclass_fields_are_read_by_the_toolkit():
    # a field that no module loads as an attribute is stored for nobody
    fields = {
        f"{cls.__name__}.{f.name}"
        for cls in (getattr(anisotl, n) for n in anisotl.__all__)
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls)
        for f in dataclasses.fields(cls)
    }
    loaded = _loaded_attributes()
    assert sorted(f for f in fields if f.rsplit(".", 1)[1] not in loaded) == []


def test_readme_cli_block_parses(monkeypatch):
    # every command line of the README's CLI block is accepted; the
    # subcommands themselves are replaced by no-ops
    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        monkeypatch.setattr(cli, name, lambda args: 0)
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("anisotl ")]
    assert lines
    for line in lines:
        try:
            code = cli.main(shlex.split(line, comments=True)[1:])
        except SystemExit as exc:
            code = exc.code
        assert code == 0, line
