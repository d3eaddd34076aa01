"""Command-line surface: ingest matrices, run the pipelines, emit reports.

All numeric output is exact (rationals rendered as "num/den" strings);
floating approximations appear only behind --approx.  Reports are JSON with
sorted keys so identical invocations are byte-identical; dioph emits CSV
records.  Exit codes: 0 success, 1 domain or internal error (with a
machine-readable error object on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import diophantine, discriminant, forms, knots, witt
from .errors import WittLinkError


def _frac_str(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _read_key(path, key):
    """``data[key]`` of the JSON object in the file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or key not in data:
        raise WittLinkError(f'expected a JSON object with a "{key}" key')
    return data[key]


def _load_gram(path) -> forms.IntegerSymmetricForm:
    return forms.form_from_rows(_read_key(path, "gram"))


def _load_seifert(path) -> knots.SeifertMatrix:
    if path.endswith(".csv"):
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
    _emit({**vars(rep), "rank": f.n})
    return 0


def _cmd_diag(args) -> int:
    f = _load_gram(args.gram)
    d = forms.diagonalize(f)
    out = {"entries": [_frac_str(e) for e in d.entries],
           "transition": [[_frac_str(x) for x in row] for row in d.transition]}
    if args.approx:
        out["entries_approx"] = [float(e) for e in d.entries]
    _emit(out)
    return 0


def _cmd_boundary(args) -> int:
    f = _load_gram(args.gram)
    c = witt.rational_witt_class(f)
    classes = [_finite_class_json(witt.boundary_at_prime(c, p))
               for p in witt.relevant_primes(c)]
    _emit({"witt_entries": list(c.entries), "classes": classes,
           "boundary_zero": all(k["zero"] for k in classes)})
    return 0


def _cmd_disc(args) -> int:
    f = _load_gram(args.gram)
    d = discriminant.discriminant_form(f)
    meta = None
    if discriminant.metabolizer_may_exist(f, args.bound_group):
        found = discriminant.find_metabolizer(d, bound=args.bound_group)
        meta = [list(g) for g in found] if found is not None else None
    out = {"orders": list(d.orders),
           "linking": [[[x.numerator, x.denominator] for x in row]
                       for row in d.linking],
           "group_order": d.group_order(),
           "metabolizer": meta}
    _emit(out)
    return 0


def _cmd_gauss(args) -> int:
    f = _load_gram(args.gram)
    g = discriminant.gauss_sum(f, enum_bound=args.bound_det)
    out = {"denominator": g.denominator, "terms": g.terms,
           "check": discriminant.gauss_sum_matches(f, g)}
    if args.approx:
        z = g.approx()
        out["approx"] = [z.real, z.imag]
    _emit(out)
    return 0


def _cmd_knot(args) -> int:
    s = _load_seifert(args.seifert)
    _emit(vars(knots.analyze_knot(s)))
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
    try:
        sys.stdout.write("p,q,r,m,sign,p_plus_q_mod_8\n")
        sys.stdout.writelines(
            diophantine.csv_chunks(w, args.sign, dedupe=args.dedupe))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (`dioph ... | head`), which ends the run, not
        # an error.  Point stdout's fd at devnull so that the flush at exit
        # cannot raise again (the recipe in the docs of the signal module).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except WittLinkError as exc:
        _emit({"error": {"type": exc.code, "message": str(exc)}})
        return 1
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _emit({"error": {"type": "input", "message": str(exc)}})
        return 1
    except ArithmeticError as exc:
        # A failed internal consistency check (rho exhausted, a theorem
        # contradicted, a non-integral overlattice) is a defect, not bad
        # input, but it is still reported as structured output.
        _emit({"error": {"type": "internal", "message": str(exc)}})
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
