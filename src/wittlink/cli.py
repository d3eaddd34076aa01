"""Command-line surface: ingest matrices, run the pipelines, emit reports.

All numeric output is exact (rationals rendered as "num/den" strings);
floating approximations appear only behind --approx.  Reports are JSON with
sorted keys so identical invocations are byte-identical; dioph emits CSV
records.  Exit codes: 0 success, 1 domain or internal error (with a
machine-readable error object on stdout), 2 usage error; a reader that
closes stdout early ends any command with exit 0.
"""

from __future__ import annotations

# json and csv are imported where they are used, not here: dioph reads and
# writes neither, and only CSV Seifert input reads csv
import argparse
import functools
import math
import os
import sys

from . import diophantine, discriminant, forms, knots, witt
from .errors import WittLinkError


def _emit(obj) -> None:
    import json
    # every report is a fresh tree built here, so it can hold no cycle
    print(json.dumps(obj, sort_keys=True, check_circular=False))


def _read_key(path, key):
    """``data[key]`` of the JSON object in the file at ``path``."""
    import json
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or key not in data:
        raise WittLinkError(f'expected a JSON object with a "{key}" key')
    return data[key]


def _load_gram(path) -> forms.IntegerSymmetricForm:
    return forms.form_from_rows(_read_key(path, "gram"))


def _load_seifert(path) -> knots.SeifertMatrix:
    if path.endswith(".csv"):
        import csv
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [[int(x) for x in row] for row in csv.reader(fh) if row]
        return knots.seifert_from_rows(rows)
    return knots.seifert_from_rows(_read_key(path, "seifert"))


def _finite_class_json(c: witt.FiniteWittClass) -> dict:
    return {"prime": c.prime, "rank_parity": c.rank_parity,
            "disc_square": c.disc_is_square, "zero": c.zero}


def _cmd_analyze(args) -> int:
    f = _load_gram(args.gram)
    rep = discriminant.verify_main_theorem(f, group_bound=args.bound_group)
    _emit({**rep._asdict(), "rank": f.n})
    return 0


def _ratio(x: int, d: int) -> str:
    """x/d as "num/den" in lowest terms with den > 0, as a Fraction prints."""
    g = math.gcd(x, d) if d > 0 else -math.gcd(x, d)
    return f"{x // g}/{d // g}"


def _cmd_diag(args) -> int:
    minors, tails = forms._transition(_read_key(args.gram, "gram"))
    pivots = list(zip(minors, minors[1:]))
    out = {"entries": [_ratio(b, a) for a, b in pivots],
           "transition": [[_ratio(x, d) for x in row]
                          for row, d in zip(tails, minors)]}
    if args.approx:
        # int / int is correctly rounded, so this is float(Fraction(b, a))
        out["entries_approx"] = [b / a for a, b in pivots]
    _emit(out)
    return 0


def _cmd_boundary(args) -> int:
    m = _load_gram(args.gram).minors
    # _residue, not boundary_at_prime: the primes come out proved
    entries, primes = witt._square_classes(zip(m[1:], m))
    classes = [_finite_class_json(witt._residue(entries, p)) for p in primes]
    _emit({"witt_entries": list(entries), "classes": classes,
           "boundary_zero": all(k["zero"] for k in classes)})
    return 0


def _cmd_disc(args) -> int:
    f = _load_gram(args.gram)
    d = discriminant.discriminant_form(f)
    n = d.denominator
    _emit({"orders": list(d.orders),
           "linking": [[[x // (g := math.gcd(x, n)), n // g] for x in row]
                       for row in d.link],
           "group_order": d.group_order(),
           "metabolizer": discriminant._metabolizer(f, args.bound_group, d)})
    return 0


def _cmd_gauss(args) -> int:
    # Everything is computed before the first write, so an error still
    # prints as one error object.  The report is the bytes _emit would
    # write, with the body of "terms", the last key, streamed one slice of
    # the dense table at a time by discriminant._term_texts.
    import json
    f = _load_gram(args.gram)
    n, table, check, shared = discriminant._gauss_table(f, args.bound_det)
    out = {"denominator": n, "terms": [], "check": check}
    if args.approx:
        z = discriminant._approx(n, discriminant._terms(n, table))
        out["approx"] = [z.real, z.imag]
    sys.stdout.write(
        json.dumps(out, sort_keys=True, check_circular=False)[:-2])
    sys.stdout.writelines(discriminant._term_texts(n, table, shared))
    sys.stdout.write("]}\n")
    return 0


def _cmd_knot(args) -> int:
    s = _load_seifert(args.seifert)
    _emit(knots.analyze_knot(s)._asdict())
    return 0


def _cmd_pretzel(args) -> int:
    k = knots.PretzelKnot(p=args.p, q=args.q, r=args.r)
    c = knots.pretzel_witt_class(k)
    sig = knots.pretzel_signature(k) if args.p + args.q != 0 else None
    _emit({"p": k.p, "q": k.q, "r": k.r,
           "determinant": knots.pretzel_determinant(k),
           "witt_entries": list(c.entries),
           "boundary_zero": witt.boundary_is_zero(c),
           "signature": sig})
    return 0


def _cmd_dioph(args) -> int:
    if args.verify and args.sign == 1:
        _parser().error("dioph --verify checks the sign -1 equation only")
    w = diophantine.symmetric_window(args.pq, args.r, args.m)
    if args.verify:
        if diophantine.verify_negative_restriction(w):
            sys.stdout.write("restriction holds\n")
            return 0
        _emit({"error": {"type": "restriction_violated",
                         "message": "a solution with p+q != 0 mod 8 exists"}})
        return 1
    sys.stdout.writelines(
        diophantine.csv_chunks(w, args.sign, dedupe=args.dedupe))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittlink",
        description="Exact linking-form vanishing tests and signature "
                    "divisibility checks for even integer forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def gram_cmd(name, helptext):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--gram", required=True,
                       help='JSON file {"gram": [[...]]} with integer rows')
        return p

    p = gram_cmd("analyze", "run the full vanishing/signature pipeline")
    p.add_argument("--bound-group", type=int,
                   default=discriminant.DEFAULT_GROUP_BOUND)
    p.set_defaults(func=_cmd_analyze)

    p = gram_cmd("diag", "dump the exact congruence diagonalization")
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=_cmd_diag)

    p = gram_cmd("boundary", "residue classes at every relevant prime")
    p.set_defaults(func=_cmd_boundary)

    p = gram_cmd("disc", "discriminant group, linking matrix, metabolizer")
    p.add_argument("--bound-group", type=int,
                   default=discriminant.DEFAULT_GROUP_BOUND)
    p.set_defaults(func=_cmd_disc)

    p = gram_cmd("gauss", "exact Gauss sum and the signature identity check")
    p.add_argument("--bound-det", type=int,
                   default=discriminant.DEFAULT_DET_BOUND)
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=_cmd_gauss)

    p = sub.add_parser("knot", help="analyze a knot given a Seifert matrix")
    p.add_argument("--seifert", required=True,
                   help='JSON {"seifert": [[...]]} or CSV of integer rows')
    p.set_defaults(func=_cmd_knot)

    p = sub.add_parser("pretzel", help="closed-form pretzel knot invariants")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=_cmd_pretzel)

    p = sub.add_parser("dioph", help="window search for pq+pr+qr = (+-)m^2")
    p.add_argument("--sign", type=int, choices=(1, -1), default=-1)
    p.add_argument("--pq", type=int, required=True,
                   help="bound for |p| and |q| (odd values)")
    p.add_argument("--r", type=int, required=True,
                   help="bound for |r| (even values)")
    p.add_argument("--m", type=int, required=True, help="bound for odd m")
    p.add_argument("--verify", action="store_true",
                   help="check p+q = 0 mod 8 over all sign=-1 solutions "
                        "(a usage error with --sign 1)")
    p.add_argument("--dedupe", action="store_true",
                   help="keep only records with p <= q")
    p.set_defaults(func=_cmd_dioph)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Built on the first call to main, not at import: parsing leaves the
    # parser unchanged, so a long-lived caller of main reuses it.
    return build_parser()


def _run(args) -> int:
    """Run one command; an error is printed as a structured object, exit 1."""
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # the reader has gone, which is not bad input: see main
    except WittLinkError as exc:
        error = {"type": exc.code, "message": str(exc)}
    except (OSError, KeyError, TypeError, ValueError,
            OverflowError) as exc:  # an --approx value beyond the float range
        error = {"type": "input", "message": str(exc)}
    except ArithmeticError as exc:
        # A failed internal consistency check (a theorem contradicted, a
        # non-integral overlattice) is a defect, not bad input, but it is
        # still reported as structured output.
        error = {"type": "internal", "message": str(exc)}
    _emit({"error": error})
    return 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (`wittlink ... | head`), which ends the run
        # quietly, not an error.  Point stdout's fd at devnull so that the
        # flush at exit cannot raise again (the recipe in the docs of the
        # signal module).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    return code


if __name__ == "__main__":
    raise SystemExit(main())
