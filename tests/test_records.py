"""The records are named tuples: immutable, validated on every way in, and
cheap to import."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import A8_NEG, NINE_ONE_SEIFERT
from wittlink import (PretzelKnot, SearchWindow, WittClassQ, analyze_knot,
                      diagonalize, discriminant_form, factorize,
                      finite_witt_zero, form_from_rows, gauss_sum,
                      rational_witt_class, search, seifert_from_rows,
                      symmetric_window, verify_main_theorem)
from wittlink import diophantine, discriminant, forms, knots, witt
from wittlink.errors import (DegenerateParameterError, NotIntegerError,
                             ZeroEntryError)
from wittlink.forms import report


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
])
def test_replace_checks_as_construction_does(good, change, error, message):
    with pytest.raises(error) as direct:
        type(good)(**{**good._asdict(), **change})
    with pytest.raises(error) as replaced:
        good._replace(**change)
    assert str(direct.value) == str(replaced.value) == message
    assert good._replace() == good


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
import sys
sys.path.insert(0, sys.argv[1])
import wittlink.cli
print(wittlink.__file__)
print(*sorted(set(sys.argv[2:]) & set(sys.modules)))
"""


def _loaded_by_import(*names):
    """Which of ``names`` importing the CLI loads, without site (so nothing
    is preloaded)."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", GUARD, str(src),
                           *names], capture_output=True, text=True,
                          timeout=30)
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
