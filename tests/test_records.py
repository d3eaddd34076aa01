"""The records are named tuples: immutable, validated on every way in, and
cheap to import."""

import ast
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import A8_NEG, NINE_ONE_SEIFERT, TREFOIL_SEIFERT

A2 = [[2, 1], [1, 2]]
from wittlink import (PretzelKnot, SearchWindow, WittClassQ, analyze_knot,
                      diagonalize, discriminant_form, factorize,
                      finite_witt_zero, form_from_rows, gauss_sum,
                      rational_witt_class, search, seifert_from_rows,
                      symmetric_window, verify_main_theorem)
from wittlink import diophantine, discriminant, forms, knots, witt
from wittlink.errors import (DegenerateError, DegenerateParameterError,
                             InvalidSeifertError, NotIntegerError,
                             NotSquareError, NotSymmetricError, ZeroEntryError)
from wittlink.forms import IntegerSymmetricForm, report


def _one_of_each():
    f = form_from_rows(A8_NEG)
    s = seifert_from_rows(NINE_ONE_SEIFERT)
    return [f, diagonalize(f), report(f), factorize(12),
            rational_witt_class(f), finite_witt_zero(3),
            discriminant_form(f), gauss_sum(f), verify_main_theorem(f),
            s, PretzelKnot(3, 5, -2), analyze_knot(s),
            symmetric_window(5, 4, 5),
            search(symmetric_window(5, 4, 5), -1)[0]]


def test_every_record_is_covered_and_its_fields_are_read_only():
    records = _one_of_each()
    defined = {obj for module in (forms, witt, discriminant, knots,
                                  diophantine)
               for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, tuple)
               and obj.__module__ == module.__name__}
    assert {type(r) for r in records} == defined and len(defined) == 14
    for rec in records:
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))


@pytest.mark.parametrize("good, change, error, message", [
    (PretzelKnot(3, 5, -2), {"r": 1}, DegenerateParameterError,
     "r must be even"),
    (PretzelKnot(3, 5, -2), {"q": 4}, DegenerateParameterError,
     "p and q must be odd"),
    (WittClassQ((-3, 2)), {"entries": (0, 2)}, ZeroEntryError,
     "Witt class entries must be nonzero"),
    (SearchWindow((-1, 1), (-1, 1), (-2, 2), 3), {"q_range": (2, 1)},
     ValueError, "empty range"),
    (SearchWindow((-1, 1), (-1, 1), (-2, 2), 3), {"m_max": 0},
     ValueError, "m_max must be at least 1"),
    (SearchWindow((-3, 3), (-3, 3), (-2, 2), 5), {"p_range": (-3.0, 3.0)},
     NotIntegerError, "non-integer window bound -3.0"),
    (SearchWindow((-3, 3), (-3, 3), (-2, 2), 5), {"m_max": True},
     NotIntegerError, "non-integer window bound True"),
    (SearchWindow((-3, 3), (-3, 3), (-2, 2), 5), {"r_range": (-2, "2")},
     NotIntegerError, "non-integer window bound '2'"),
    (form_from_rows(A2), {"gram": ((2, 1), (5, 2))}, NotSymmetricError,
     "gram[0][1] = 1 != gram[1][0] = 5"),
    (form_from_rows(A2), {"gram": ((2, 1), (1, 2.0))}, NotIntegerError,
     "non-integer Gram entry 2.0"),
    (form_from_rows(A2), {"n": 5}, NotSquareError,
     "n = 5 but there are 2 rows"),
    (seifert_from_rows(TREFOIL_SEIFERT), {"entries": ((1, 0), (0, 1))},
     InvalidSeifertError, "det(S - S^T) must be 1"),
    (seifert_from_rows(TREFOIL_SEIFERT), {"entries": ((-1, True), (0, -1))},
     InvalidSeifertError, "non-integer Seifert entry True"),
])
def test_replace_checks_as_construction_does(good, change, error, message):
    with pytest.raises(error) as direct:
        type(good)(**{**good._asdict(), **change})
    with pytest.raises(error) as replaced:
        good._replace(**change)
    assert str(direct.value) == str(replaced.value) == message
    assert good._replace() == good
    if isinstance(good, IntegerSymmetricForm):
        # det != 0 is checked by the elimination, on the first read of minors
        singular = good._replace(gram=((2, 2), (2, 2)))
        with pytest.raises(DegenerateError,
                           match="^Gram matrix has determinant 0$"):
            singular.minors


def test_records_compare_as_their_fields():
    f = form_from_rows(A8_NEG)
    assert report(f) == (8, 9, -8, True)
    assert report(f)._asdict() == {"rank": 8, "determinant": 9,
                                   "signature": -8, "is_even": True}
    # the Gauss sum too: its value is (denominator, terms) and no more
    g = gauss_sum(f)
    assert g == (g.denominator, g.terms) == (
        9, ((0, 3), (4, 2), (10, 2), (16, 2)))
    assert g._asdict() == {"denominator": 9, "terms": g.terms}


def test_minors_are_eliminated_once(monkeypatch):
    calls = []
    real = forms._eliminate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(forms, "_eliminate", counted)
    f = form_from_rows(A8_NEG)
    assert [f.minors for _ in range(3)] == [f.minors] * 3
    assert f.minors[-1] == 9 and len(calls) == 1
    # a form rebuilt by _replace carries no cache of the old one
    g = f._replace(gram=f.gram)
    assert g.minors == f.minors and len(calls) == 2


GUARD = """
import io
import sys
sys.path.insert(0, sys.argv[1])
import wittlink.cli
if sys.argv[3:]:
    sys.stdout = io.StringIO()
    code = wittlink.cli.main(sys.argv[3:])
    sys.stdout = sys.__stdout__
    assert code == 0, code
print(wittlink.__file__)
print(*sorted(set(sys.argv[2].split()) & set(sys.modules)))
"""


def _loaded_by_import(*names, argv=()):
    """Which of ``names`` importing the CLI, and then running it on
    ``argv`` if one is given, loads, without site (so nothing is
    preloaded)."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", GUARD, str(src),
                           " ".join(names), *argv], capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    module, loaded = proc.stdout.splitlines()
    assert Path(module).resolve().is_relative_to(src)
    return loaded


def test_import_loads_no_dataclasses_inspect_or_typing():
    """Importing the CLI loads none of the heavy modules that records as
    dataclasses or typing.NamedTuple would pull in."""
    assert _loaded_by_import("dataclasses", "inspect", "typing") == ""


def test_import_loads_no_fractions():
    """The library holds its rationals as integers, so importing the CLI
    loads neither ``fractions`` nor the ``numbers`` and ``decimal`` it
    would pull in; only the accessors typed as Fractions load it."""
    assert _loaded_by_import("fractions", "numbers", "decimal") == ""


def test_import_loads_every_layer_module():
    """Importing the CLI loads each layer module that the benchmark's
    tracer wraps right after that import, so a package that defers its
    submodules fails here."""
    layers = ["wittlink." + name for name in (
        "_mat", "cli", "diophantine", "discriminant", "forms", "knots",
        "witt")]
    assert _loaded_by_import(*layers) == " ".join(layers)


@pytest.mark.parametrize("argv, loaded", [
    ("", ""),
    ("dioph --pq 9 --r 8 --m 9", ""),
    ("dioph --verify --pq 9 --r 8 --m 9", ""),
    ("knot --seifert {dir}/k.json", "json"),
    ("knot --seifert {dir}/k.csv", "csv json"),
    ("gauss --gram {dir}/g.json", "json"),
    ("gauss --approx --gram {dir}/g.json", "cmath json"),
])
def test_json_csv_and_cmath_load_only_where_they_are_used(tmp_path, argv,
                                                          loaded):
    """Start-up loads none of them: ``json`` loads for JSON input or
    output, ``csv`` for CSV Seifert input, ``cmath`` for ``--approx``."""
    (tmp_path / "k.json").write_text(json.dumps({"seifert":
                                                 NINE_ONE_SEIFERT}))
    (tmp_path / "k.csv").write_text(
        "".join(",".join(map(str, row)) + "\n" for row in NINE_ONE_SEIFERT))
    (tmp_path / "g.json").write_text(json.dumps({"gram": A8_NEG}))
    argv = [arg.format(dir=tmp_path) for arg in argv.split()]
    assert _loaded_by_import("json", "csv", "cmath", argv=argv) == loaded


def test_readme_quick_start_runs_and_its_comments_hold():
    """The README "Library quick start" block runs as written, and each
    expression it shows has the value its comment gives."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Library quick start")[1].split("```python\n")[1]
    tree = ast.parse(block.split("```")[0])
    scope, shown = {}, []
    for node in tree.body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README",
                                      "eval"), scope))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), scope)
    entries, columns, linking, rep = shown[0], shown[2], shown[3], shown[4]
    assert entries == tuple(Fraction(-k - 2, k + 1) for k in range(8))
    assert all(type(e) is Fraction for e in entries)
    c, d = scope["c"], scope["d"]
    assert (c.entries[:2], c.entries[-1]) == ((-42, -30), -2)
    assert shown[1] is True  # boundary_is_zero(c)
    assert (d.orders, d.denominator, d.link) == ((9,), 9, ((1,),))
    assert columns == ((1, 1, 1, 1, 1, 1, 1, -8),)
    assert linking == ((Fraction(1, 9),),)
    assert (rep.theorem_applies, rep.signature, rep.conclusion_holds) == (
        True, -8, True)
