"""Every record field in the package is read outside tests, and no record is writable.

A record is a class with a `typing.NamedTuple` base or a `@dataclass`
decorator. A field counts as read when its name appears as a loaded
attribute in `src/anosovlab` or `bench/`, other than an attribute of an
imported name (`util.kernel_basis` is a function, not the field
`kernel_basis`). A field that is written but never read is unread data: it
goes, or it sits on the allowlist below with the reason a test reads it.
"""

import ast
import importlib

import pytest
from test_callers import PACKAGE, ROOT, _trees

# fields kept although only tests read them, one reason each
ALLOWED = {
    "PatchReconstruction.recovered":
        "the recovered h^-1 images, which the patch Newton pin compares bit for bit",
    "HeteroclinicDatum.r_base": "the base point of the datum, checked to lie on W^s_loc(p)",
    "HeteroclinicDatum.backward_distance":
        "the integer-check distance to the orbit of q, bounded by a datum test and pinned",
    "ReturnLedger.gaps":
        "the stable gaps, checked to contract at the stable rate and pinned by the return pins",
    "CoboundarySolution.obstruction_spread": "the planted spread the livshits acceptance bounds",
    "SpectralBlock.multiplicity":
        "the algebraic multiplicity, checked to be 1 on codimension-one catalog spectra",
    "SpectralData.eigenvalues":
        "the eigenvalues with multiplicity, checked as roots of the characteristic polynomial",
    "MatchingKernelReport.kernel_basis":
        "the ambient kernel basis, checked against the gradient rows it annihilates",
}


def _name(node) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def _is_record(node: ast.ClassDef) -> bool:
    """A class with a `NamedTuple` base or a `@dataclass` decorator."""
    if any(_name(base) == "NamedTuple" for base in node.bases):
        return True
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _name(target) == "dataclass":
            return True
    return False


def _records():
    """(module name, class node) of each record class in the package."""
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_record(node):
                yield path.stem, node


def _field_names(node: ast.ClassDef) -> list[str]:
    return [member.target.id for member in node.body
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)]


def _fields():
    """(Class.field, field) of each annotated field of each record in the package."""
    for _, node in _records():
        for name in _field_names(node):
            yield f"{node.name}.{name}", name


def _imported_names(tree) -> set[str]:
    """Names an `import` binds in a module: `util` in `util.kernel_basis` is not a record."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def _read_attributes() -> set[str]:
    reads = set()
    for _, tree in _trees(PACKAGE, ROOT / "bench"):
        modules = _imported_names(tree)
        reads |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)
        }
    return reads


def test_every_field_is_read():
    read = _read_attributes()
    assert [key for key, name in _fields() if name not in read and key not in ALLOWED] == []


def test_allowlist_entries_exist_and_are_unread():
    read = _read_attributes()
    fields = dict(_fields())
    assert [key for key in ALLOWED if key not in fields or fields[key] in read] == []


RECORDS = sorted((node.name, module, _field_names(node)) for module, node in _records())


@pytest.mark.parametrize("name, module, fields", RECORDS, ids=[r[0] for r in RECORDS])
def test_record_fields_are_read_only(name, module, fields):
    cls = getattr(importlib.import_module(f"anosovlab.{module}"), name)
    # no validating __init__ runs: a frozen dataclass refuses assignment on a bare instance too
    record = cls._make([None] * len(fields)) if hasattr(cls, "_make") else object.__new__(cls)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
