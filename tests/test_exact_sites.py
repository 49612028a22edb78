"""Floats become exact in one place, and Fractions stay off the orbit paths.

`intlinalg.dyadic` is the package's one float-to-exact conversion, so no
other function calls `as_integer_ratio`. Exact points are integer
numerators over one den, so `Fraction(` is called only where exact
rationals are the data themselves: the exact polynomial code, the flow
translation, `translate_flow` and `_parse_fraction`, each listed below
with its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anosovlab"

# (module.function, the call it makes), one reason each
ALLOWED = {
    ("intlinalg.dyadic", "as_integer_ratio"):
        "the one float-to-exact conversion: a float is its mantissa over a power of two",
    ("intlinalg.char_poly", "Fraction"):
        "Faddeev-LeVerrier divides traces by k, exact polynomial code",
    ("spectral.poly_deriv", "Fraction"): "exact polynomial code: the zero polynomial",
    ("spectral.poly_divmod", "Fraction"): "exact polynomial code: quotient coefficients",
    ("spectral._poly_gcd", "Fraction"): "exact polynomial code: Euclid over Q",
    ("spectral._square_free_part", "Fraction"): "exact polynomial code: p / gcd(p, p')",
    ("spectral._root_multiplicities", "Fraction"):
        "exact polynomial code: the derivatives that count a root's multiplicity",
    ("mpspec.MPSplitting.__init__", "Fraction"):
        "exact polynomial code: r(x) = p(x) / (x - lambda) and p'(lambda) over Q",
    ("flow.SuspensionFlow.__init__", "Fraction"):
        "the flow translation keeps the config's rationals, such as 1/7",
    ("pcf.translate_flow", "Fraction"): "the planted translation vector and its image",
    ("experiments._parse_fraction", "Fraction"): "reads a config rational such as '1/7'",
}
CALLS = ("Fraction", "as_integer_ratio")


def _calls(node, where):
    """(where, name) for each call of a name in CALLS under node, where
    being the dotted name of the innermost function or class around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls(child, f"{where}.{child.name}")
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in CALLS:
                yield where, name
        yield from _calls(child, where)


def _sites():
    for path in sorted(PACKAGE.glob("*.py")):
        yield from _calls(ast.parse(path.read_text(), filename=str(path)), path.stem)


def test_exact_conversions_stay_at_their_sites():
    assert sorted(set(_sites()) - set(ALLOWED)) == []


def test_allowlist_entries_are_still_needed():
    assert sorted(set(ALLOWED) - set(_sites())) == []
