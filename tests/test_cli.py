import csv
import io
import json
import math
import re
import subprocess
import sys
import time

import pytest

from conftest import (A8_NEG, DENSE_24, NINE_ONE_SEIFERT, TREFOIL_SEIFERT,
                      enumerate_gauss_terms, fraction_diagonalize)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "wittlink", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def a8_json(tmp_path):
    path = tmp_path / "a8neg.json"
    path.write_text(json.dumps({"gram": A8_NEG}))
    return str(path)


@pytest.fixture
def k91_json(tmp_path):
    path = tmp_path / "k9_1.json"
    path.write_text(json.dumps({"seifert": NINE_ONE_SEIFERT}))
    return str(path)


def test_analyze(a8_json):
    code, out, _ = run_cli("analyze", "--gram", a8_json)
    assert code == 0
    rep = json.loads(out)
    assert rep["signature"] == -8
    assert rep["det"] == 9
    assert rep["theorem_applies"] is True
    assert rep["conclusion_holds"] is True
    assert rep["metabolizer"] == [[3]]


def test_diag_exact_strings(a8_json):
    code, out, _ = run_cli("diag", "--gram", a8_json)
    assert code == 0
    rep = json.loads(out)
    assert rep["entries"] == ["-2/1", "-3/2", "-4/3", "-5/4", "-6/5",
                              "-7/6", "-8/7", "-9/8"]
    assert "entries_approx" not in rep
    code, out, _ = run_cli("diag", "--gram", a8_json, "--approx")
    assert "entries_approx" in json.loads(out)


def test_diag_prints_the_fraction_oracle(tmp_path, capsys, rng):
    """diag --approx prints "num/den" of every Fraction of the Fraction
    elimination, entries and transition matrix, and the float of each
    entry: on random forms, a third with a zero diagonal, and on a dense
    rank-24 one."""
    from conftest import random_mixed_even_rows
    from wittlink import cli

    def ratio(x):
        return f"{x.numerator}/{x.denominator}"

    forms = [random_mixed_even_rows(rng) for _ in range(30)] + [DENSE_24]
    for i, rows in enumerate(forms):
        path = tmp_path / f"f{i}.json"
        path.write_text(json.dumps({"gram": rows}))
        assert cli.main(["diag", "--gram", str(path), "--approx"]) == 0
        d = fraction_diagonalize(rows)
        assert json.loads(capsys.readouterr().out) == {
            "entries": list(map(ratio, d.entries)),
            "transition": [list(map(ratio, row)) for row in d.transition],
            "entries_approx": list(map(float, d.entries))}


def test_boundary(a8_json):
    code, out, _ = run_cli("boundary", "--gram", a8_json)
    rep = json.loads(out)
    assert rep["boundary_zero"] is True
    primes = [c["prime"] for c in rep["classes"]]
    assert primes == [2, 3, 5, 7]
    for c in rep["classes"]:
        assert set(c) == {"prime", "rank_parity", "disc_square", "zero"}
        assert c["zero"] is True


def test_disc(a8_json):
    code, out, _ = run_cli("disc", "--gram", a8_json)
    rep = json.loads(out)
    assert rep["orders"] == [9]
    assert rep["linking"] == [[[1, 9]]]
    assert rep["metabolizer"] == [[3]]
    assert rep["group_order"] == 9


def test_disc_respects_group_bound(a8_json):
    code, out, _ = run_cli("disc", "--gram", a8_json, "--bound-group", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["orders"] == [9]
    assert rep["metabolizer"] is None


def test_disc_linking_is_the_reduced_fraction(rng, tmp_path, capsys):
    """disc prints each linking value from the integer table, x over N
    reduced by gcd(x, N): on random forms that is [numerator, denominator]
    of each Fraction of DiscriminantForm.linking, zeros as [0, 1]; and it
    prints the cyclic orders in the order of that table."""
    from conftest import random_mixed_even_rows
    from wittlink import cli, discriminant_form, form_from_rows
    reduced = full = 0
    for i in range(60):
        rows = random_mixed_even_rows(rng, max_rank=8)
        path = tmp_path / f"f{i}.json"
        path.write_text(json.dumps({"gram": rows}))
        assert cli.main(["disc", "--gram", str(path),
                         "--bound-group", "1"]) == 0
        d = discriminant_form(form_from_rows(rows))
        want = [[[x.numerator, x.denominator] for x in row]
                for row in d.linking]
        rep = json.loads(capsys.readouterr().out)
        assert rep["linking"] == want
        assert rep["orders"] == list(d.orders)
        dens = [x.denominator for row in d.linking for x in row]
        reduced += any(den < d.denominator for den in dens)
        full += d.denominator in dens
    assert reduced >= 10 and full >= 30


def test_gauss(a8_json):
    code, out, _ = run_cli("gauss", "--gram", a8_json)
    rep = json.loads(out)
    assert rep["check"] is True
    assert rep["denominator"] == 9
    assert sum(c for _, c in rep["terms"]) == 9
    assert "approx" not in rep
    code, out, _ = run_cli("gauss", "--gram", a8_json, "--approx")
    rep2 = json.loads(out)
    assert rep2["terms"] == rep["terms"]
    assert abs(rep2["approx"][0] - 3) < 1e-9


def test_gauss_bound_det(a8_json):
    code, out, _ = run_cli("gauss", "--gram", a8_json, "--bound-det", "5")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "determinant_too_large"


def test_knot_json(k91_json):
    code, out, _ = run_cli("knot", "--seifert", k91_json)
    assert code == 0
    rep = json.loads(out)
    assert rep["boundary_zero"] is True
    assert rep["signature"] == -8


def test_knot_csv(tmp_path):
    path = tmp_path / "trefoil.csv"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(TREFOIL_SEIFERT)
    path.write_text(buf.getvalue())
    code, out, _ = run_cli("knot", "--seifert", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["signature"] == -2 and rep["determinant"] == 3
    assert rep["boundary_zero"] is False


def test_pretzel():
    code, out, _ = run_cli("pretzel", "3", "5", "-2")
    assert code == 0
    rep = json.loads(out)
    assert rep["determinant"] == -1
    assert rep["boundary_zero"] is True
    assert rep["signature"] == -8


def _pretzel_report(p, q, r):
    """The pretzel report from the closed-form signature, the determinant
    and the class <p, q, r, pqr>."""
    from conftest import closed_form_pretzel_signature
    from wittlink import (PretzelKnot, boundary_is_zero, pretzel_determinant,
                          pretzel_witt_class)
    k = PretzelKnot(p, q, r)
    c = pretzel_witt_class(k)
    sig = closed_form_pretzel_signature(p, q, r) if p + q else None
    return json.dumps({"p": p, "q": q, "r": r,
                       "determinant": pretzel_determinant(k),
                       "witt_entries": list(c.entries),
                       "boundary_zero": boundary_is_zero(c),
                       "signature": sig}, sort_keys=True) + "\n"


def test_pretzel_prints_the_closed_form_report(capsys):
    """pretzel prints byte for byte the report of the closed forms on every
    valid triple with |p|, |q| <= 15 and |r| <= 14, and on four more; at
    r = 0 the class has a <0> entry and the command fails."""
    from conftest import pretzel_window
    from wittlink import cli
    triples = pretzel_window(15, 14) + [(-613, 13, -236), (3, 7, 6),
                                        (1, 1, 2), (5, -5, 4)]
    for p, q, r in triples:
        code = cli.main(["pretzel", str(p), str(q), str(r)])
        out = capsys.readouterr().out
        if r:
            assert (code, out) == (0, _pretzel_report(p, q, r)), (p, q, r)
        else:
            assert code == 1, (p, q, r)
            assert json.loads(out)["error"]["type"] == "degenerate_parameter"


def test_dioph_csv():
    code, out, _ = run_cli("dioph", "--sign", "-1", "--pq", "5", "--r", "4",
                           "--m", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "q", "r", "m", "sign", "p_plus_q_mod_8"]
    body = rows[1:]
    assert ["3", "5", "-2", "1", "-1", "0"] in body
    assert all(row[5] == "0" for row in body)
    code2, out2, _ = run_cli("dioph", "--sign", "-1", "--pq", "5", "--r", "4",
                             "--m", "3")
    assert code2 == 0 and out2 == out


def test_dioph_verify():
    code, out, _ = run_cli("dioph", "--sign", "-1", "--pq", "9", "--r", "10",
                           "--m", "9", "--verify")
    assert code == 0
    assert out.strip() == "restriction holds"


def test_dioph_verify_full_window():
    code, out, _ = run_cli("dioph", "--sign", "-1", "--pq", "99", "--r", "100",
                           "--m", "99", "--verify")
    assert code == 0
    assert out.strip() == "restriction holds"


def test_dioph_verify_reports_a_violation(monkeypatch, capsys):
    from wittlink import cli, diophantine
    monkeypatch.setattr(diophantine, "verify_negative_restriction",
                        lambda w: False)
    assert cli.main(["dioph", "--pq", "9", "--r", "10", "--m", "9",
                     "--verify"]) == 1
    assert capsys.readouterr().out == (
        '{"error": {"message": "a solution with p+q != 0 mod 8 exists", '
        '"type": "restriction_violated"}}\n')


def test_dioph_stream_matches_search_records(capsys):
    from wittlink import cli, search, symmetric_window
    # m below pq drops the p + q = 0 rows of |p| > m; r 0 leaves one even
    # r; every sign -1 window holds p + q = 0 pairs.
    for pq, r, m in ((5, 4, 3), (9, 10, 3), (9, 0, 9), (13, 12, 1),
                     (13, 6, 25), (11, 0, 1)):
        for sign in (1, -1):
            for dedupe in (False, True):
                argv = ["dioph", "--sign", str(sign), "--pq", str(pq),
                        "--r", str(r), "--m", str(m)]
                assert cli.main(argv + ["--dedupe"] * dedupe) == 0
                want = io.StringIO()
                writer = csv.writer(want, lineterminator="\n")
                writer.writerow(["p", "q", "r", "m", "sign", "p_plus_q_mod_8"])
                writer.writerows(
                    (x.p, x.q, x.r, x.m, x.sign, x.p_plus_q_mod_8)
                    for x in search(symmetric_window(pq, r, m), sign, dedupe))
                assert capsys.readouterr().out == want.getvalue(), argv


def test_dioph_memory_does_not_grow_with_rows():
    import contextlib
    import os
    import tracemalloc
    from wittlink import cli
    # 88780 rows, 1.8 MB of CSV: holding them all as records and one
    # string peaks near 21 MiB, streaming them near 1.2 MiB.  --dedupe
    # keeps no image with p > q waiting, and peaks near 0.4 MiB.
    peaks = {}
    for extra in ((), ("--sign", "1"), ("--dedupe",)):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = cli.main(["dioph", "--pq", "199", "--r", "200",
                                 "--m", "199", *extra])
                _, peaks[extra] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peaks[extra] < 4 * 2 ** 20, extra
    assert peaks[("--dedupe",)] < peaks[()] / 2


def read_then_close(*args, size):
    """Read ``size`` bytes of a CLI run's stdout, close the pipe, and return
    the first bytes, the exit code and stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "wittlink", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(size)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return head, proc.wait(timeout=60), err


@pytest.mark.parametrize("extra", ((), ("--sign", "1"), ("--dedupe",)),
                         ids=("sign-1", "sign1", "dedupe"))
def test_dioph_closed_pipe_exits_quietly(extra):
    header = b"p,q,r,m,sign,p_plus_q_mod_8\n"
    assert read_then_close("dioph", *extra, "--pq", "399", "--r", "400",
                           "--m", "399", size=len(header)) == (header, 0, b"")


@pytest.mark.parametrize("sign", ("-1", "1"))
def test_dioph_dedupe_is_the_full_stream_cut_to_p_at_most_q(sign, capsys):
    """dioph --dedupe writes the header and the rows of the full stream with
    p <= q, byte for byte, on a window wider than any dioph window of the
    golden corpus."""
    from wittlink import cli
    argv = ["dioph", "--sign", sign, "--pq", "149", "--r", "150",
            "--m", "149"]
    assert cli.main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines(keepends=True)
    assert cli.main(argv + ["--dedupe"]) == 0
    kept = [row for row in rows
            if int(row.split(",")[0]) <= int(row.split(",")[1])]
    assert len(rows) > len(kept) > 0
    assert capsys.readouterr().out == header + "".join(kept)


def test_gauss_closed_pipe_exits_quietly(tmp_path):
    # about 4 MB of terms: the writer is still busy when the reader goes
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({"gram": [[600, 1], [1, 1000]]}))
    assert read_then_close("gauss", "--gram", str(path),
                           size=10) == (b'{"check": ', 0, b"")


def test_determinism(a8_json):
    for args in (("analyze", "--gram", a8_json),
                 ("disc", "--gram", a8_json),
                 ("gauss", "--gram", a8_json),
                 ("dioph", "--sign", "1", "--pq", "7", "--r", "6", "--m", "9")):
        out1 = run_cli(*args)
        out2 = run_cli(*args)
        assert out1 == out2


def test_reports_reparse(a8_json, k91_json):
    for args in (("analyze", "--gram", a8_json),
                 ("diag", "--gram", a8_json),
                 ("boundary", "--gram", a8_json),
                 ("disc", "--gram", a8_json),
                 ("gauss", "--gram", a8_json),
                 ("knot", "--seifert", k91_json),
                 ("pretzel", "3", "7", "6")):
        code, out, _ = run_cli(*args)
        assert code == 0
        json.loads(out)


def _readme_schema_keys(command):
    """The keys of ``command``'s report in the README "Output schemas"."""
    from pathlib import Path
    readme = Path(__file__).resolve().parents[1] / "README.md"
    schemas = readme.read_text(encoding="utf-8").split("### Output schemas")[1]
    block = re.search(rf"\n`{command}`(.*?)\n\n`\w+`:", schemas, re.S)
    return set(re.findall(r'"(\w+)":', block.group(1)))


def test_report_keys_are_the_readme_schemas(tmp_path, capsys):
    """analyze and knot print the fields of their report records: exactly
    the keys the README promises, with and without a metabolizer and a
    signature mod 8."""
    from wittlink import cli
    analyze = _readme_schema_keys("analyze")
    knot = _readme_schema_keys("knot")
    assert "rank" in analyze and "murasugi_class" in knot
    for i, rows in enumerate((A8_NEG, [[2, 1], [1, 2]])):
        path = tmp_path / f"g{i}.json"
        path.write_text(json.dumps({"gram": rows}))
        assert cli.main(["analyze", "--gram", str(path)]) == 0
        assert set(json.loads(capsys.readouterr().out)) == analyze
    for i, rows in enumerate((NINE_ONE_SEIFERT, TREFOIL_SEIFERT)):
        path = tmp_path / f"s{i}.json"
        path.write_text(json.dumps({"seifert": rows}))
        assert cli.main(["knot", "--seifert", str(path)]) == 0
        assert set(json.loads(capsys.readouterr().out)) == knot


def test_error_exit_codes(tmp_path):
    code, out, _ = run_cli("analyze", "--gram", str(tmp_path / "missing.json"))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "input"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"gram": [[1, 2], [3, 4]]}))
    code, out, _ = run_cli("analyze", "--gram", str(bad))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "not_symmetric"

    # symmetric matrices whose entries are not all integers
    for i, rows in enumerate(([[0.5]], [[True]], [[2, 1], [1, 2.0]])):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps({"gram": rows}))
        code, out, _ = run_cli("analyze", "--gram", str(bad))
        assert code == 1
        assert json.loads(out)["error"]["type"] == "not_integer", rows

    degenerate = tmp_path / "deg.json"
    degenerate.write_text(json.dumps({"gram": [[1, 1], [1, 1]]}))
    code, out, _ = run_cli("analyze", "--gram", str(degenerate))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "degenerate"

    code, _, _ = run_cli("no-such-command")
    assert code == 2
    code, _, _ = run_cli("analyze")
    assert code == 2
    code, _, _ = run_cli("gauss", "--gram", str(bad), "--jobs", "2")
    assert code == 2
    # --verify checks only the -m^2 equation
    code, out, err = run_cli("dioph", "--sign", "1", "--verify", "--pq", "9",
                             "--r", "10", "--m", "9")
    assert code == 2 and out == "" and "--verify" in err

    code, out, _ = run_cli("pretzel", "2", "3", "4")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "degenerate_parameter"


def test_analyze_skips_search_when_no_metabolizer_exists(tmp_path):
    # A2^7 + (-A2): |G| = 3^8 is a square and odd, but the boundary does not
    # vanish, so no metabolizer exists; the residue test answers without a
    # search.
    a2 = [[2, -1], [-1, 2]]
    blocks = [a2] * 7 + [[[-x for x in row] for row in a2]]
    rows = [[0] * 16 for _ in range(16)]
    for k, block in enumerate(blocks):
        for i in range(2):
            rows[2 * k + i][2 * k:2 * k + 2] = block[i]
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"gram": rows}))
    start = time.perf_counter()
    code, out, _ = run_cli("analyze", "--gram", str(path))
    assert time.perf_counter() - start < 5
    assert code == 0
    rep = json.loads(out)
    assert rep["det"] == 3 ** 8 and rep["signature"] == 12
    assert rep["boundary_zero"] is False and rep["metabolizer"] is None


def test_analyze_dense_rank_24_needs_no_large_primality_proof(tmp_path):
    from wittlink import determinant, form_from_rows
    path = tmp_path / "dense24.json"
    path.write_text(json.dumps({"gram": DENSE_24}))
    code, out, _ = run_cli("analyze", "--gram", str(path))
    assert code == 0, out
    rep = json.loads(out)
    f = form_from_rows(DENSE_24)
    assert rep["det"] == determinant(f)
    entries = fraction_diagonalize(DENSE_24).entries
    assert rep["signature"] == sum(1 if e > 0 else -1 for e in entries)
    assert rep["boundary_zero"] is False


@pytest.fixture(scope="module")
def dense24_boundary(tmp_path_factory):
    path = tmp_path_factory.mktemp("dense24") / "dense24.json"
    path.write_text(json.dumps({"gram": DENSE_24}))
    code, out, _ = run_cli("boundary", "--gram", str(path))
    assert code == 0, out
    return json.loads(out)


def test_boundary_dense_rank_24(dense24_boundary):
    """boundary answers on DENSE_24, and its table is checked here without
    the program's factoring: each entry times D_k D_(k-1) is a square, it is
    square-free over the printed primes, and each printed prime is prime."""
    from wittlink import is_prime
    rep = dense24_boundary
    entries = rep["witt_entries"]
    primes = [k["prime"] for k in rep["classes"]]
    matched = []
    for a in fraction_diagonalize(DENSE_24).entries:
        v = a.numerator * a.denominator
        hit = [e for e in set(entries)
               if e * v > 0 and math.isqrt(e * v) ** 2 == e * v]
        assert len(hit) == 1, a
        matched += hit
    assert sorted(matched) == entries
    assert primes == sorted(set(primes)) and 2 in primes
    for e in entries:
        rest = abs(e)
        for p in primes:
            if rest % p == 0:
                rest //= p
                assert rest % p, (e, p)
        assert rest == 1, e
    assert all(p == 2 or any(e % p == 0 for e in entries) for p in primes)
    assert all(is_prime(p) for p in primes)
    assert rep["boundary_zero"] is False


def test_boundary_dense_rank_24_agrees_with_sympy(dense24_boundary):
    sympy = pytest.importorskip("sympy")
    parts = []
    for a in fraction_diagonalize(DENSE_24).entries:
        odd = [p for x in (a.numerator, a.denominator)
               for p, e in sympy.factorint(abs(x)).items() if e % 2]
        parts.append(math.prod(odd, start=1 if a > 0 else -1))
    assert dense24_boundary["witt_entries"] == sorted(parts)
    primes = sorted({2}.union(*(sympy.primefactors(e) for e in parts)))
    assert [k["prime"] for k in dense24_boundary["classes"]] == primes


def test_boundary_factors_the_reduced_entry(tmp_path):
    """<2P> + <2Q>: the minor 4PQ leaves the cofactor PQ, above the
    Miller-Rabin certification bound, but its entry 4PQ / 2P reduces to 2Q
    before it is factored.  The output is pinned byte for byte."""
    p, q = 2000000000003, 2000000000123
    path = tmp_path / "2p2q.json"
    path.write_text(json.dumps({"gram": [[2 * p, 0], [0, 2 * q]]}))
    code, out, _ = run_cli("boundary", "--gram", str(path))
    assert code == 0
    assert out == (
        '{"boundary_zero": false, "classes": [{"disc_square": null, '
        '"prime": 2, "rank_parity": 0, "zero": true}, {"disc_square": false, '
        '"prime": 2000000000003, "rank_parity": 1, "zero": false}, '
        '{"disc_square": false, "prime": 2000000000123, "rank_parity": 1, '
        '"zero": false}], "witt_entries": [4000000000006, 4000000000246]}\n')


def test_boundary_answers_past_a_refuted_cofactor(tmp_path, capsys):
    """diag(2, 2 * 1000003 * P), P = 4000000000000000037: trial division
    leaves the cofactor 1000003 * P, above the Miller-Rabin certification
    bound, which base 2 refutes, so boundary answers (exit 0) with a class
    at the prime 1000003."""
    from wittlink import cli
    path = tmp_path / "composite.json"
    path.write_text(json.dumps({"gram": [[2, 0],
                                         [0, 8000024000000000074000222]]}))
    assert cli.main(["boundary", "--gram", str(path)]) == 0
    classes = json.loads(capsys.readouterr().out)["classes"]
    assert 1000003 in [c["prime"] for c in classes]


def test_psi_12_form_has_a_vanishing_boundary(tmp_path):
    """diag(2 psi_12, 146 psi_12, 2, 146) is <2, 146> twice over, up to
    the square psi_12^2 (psi_12 = 399165290221 * 798330580441, a strong
    pseudoprime to every prime base through 37): its boundary is zero, at
    each prime factor of psi_12 too."""
    psi = 318665857834031151167461
    path = tmp_path / "psi12.json"
    path.write_text(json.dumps({"gram": [[2 * psi, 0, 0, 0],
                                         [0, 146 * psi, 0, 0],
                                         [0, 0, 2, 0], [0, 0, 0, 146]]}))
    for command in ("analyze", "boundary"):
        code, out, _ = run_cli(command, "--gram", str(path))
        assert code == 0
        assert json.loads(out)["boundary_zero"] is True, command
    classes = json.loads(out)["classes"]
    assert [c["prime"] for c in classes] == [2, 73, 399165290221,
                                             798330580441]
    assert all(c["zero"] for c in classes)


def test_gauss_enumerates_once(a8_json, tmp_path, monkeypatch, capsys):
    """One dense Gauss table per op, and within it one histogram per prime
    dividing |G|: |G| = 9 for A8, in closed form, and 30 = 2 * 3 * 5 for
    <2> + A2 + [[2, 1], [1, -2]], walked at 2 and in closed form at 3, 5.
    The ring check of the phase runs on the walked component only."""
    from wittlink import cli, discriminant
    calls = []
    served = []
    real = discriminant._gauss_table
    real_walk = discriminant._walk
    real_closed = discriminant._homogeneous_counts
    real_phase = discriminant._component_phase

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def counted_walk(quad, link2, orders, mod, leaf):
        served.append(("walk", list(orders)))
        return real_walk(quad, link2, orders, mod, leaf)

    def counted_closed(quad, link2, p, a):
        served.append(("closed", p))
        return real_closed(quad, link2, p, a)

    def counted_phase(table, p, e):
        served.append(("phase", p))
        return real_phase(table, p, e)

    monkeypatch.setattr(discriminant, "_gauss_table", counted)
    monkeypatch.setattr(discriminant, "_walk", counted_walk)
    monkeypatch.setattr(discriminant, "_homogeneous_counts", counted_closed)
    monkeypatch.setattr(discriminant, "_component_phase", counted_phase)
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"gram": [[2, 0, 0, 0, 0], [0, 2, -1, 0, 0],
                                          [0, -1, 2, 0, 0], [0, 0, 0, 2, 1],
                                          [0, 0, 0, 1, -2]]}))
    for path, want in ((a8_json, [("closed", 3)]),
                       (str(mixed), [("walk", [2]), ("phase", 2),
                                     ("closed", 3), ("closed", 5)])):
        calls.clear()
        served.clear()
        assert cli.main(["gauss", "--gram", path]) == 0
        assert json.loads(capsys.readouterr().out)["check"] is True
        assert len(calls) == 1
        assert served == want


def _emitted_gauss_report(rows, approx):
    """The gauss report as one json.dumps of the public GaussSumValue."""
    from wittlink import discriminant, form_from_rows
    f = form_from_rows(rows)
    g = discriminant.gauss_sum(f)
    out = {"check": discriminant.gauss_sum_matches(f, g),
           "denominator": g.denominator, "terms": g.terms}
    if approx:
        z = g.approx()
        out["approx"] = [z.real, z.imag]
    return json.dumps(out, sort_keys=True) + "\n"


# A8, whose table is shorter than one slice; 601199 = 29 * 20731, a table
# merged from two components; and the lone prime 599999.
STREAMED_FORMS = (A8_NEG, [[600, 1], [1, 1002]], [[600, 1], [1, 1000]])


@pytest.mark.parametrize("approx", (False, True))
@pytest.mark.parametrize("rows", STREAMED_FORMS, ids=("a8", "f3", "f2"))
def test_gauss_stream_is_the_emitted_report(rows, approx, tmp_path, capsys):
    """The streamed gauss report is byte for byte the one json.dumps of the
    whole report gives, with and without --approx."""
    from wittlink import cli
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"gram": rows}))
    argv = ["gauss", "--gram", str(path)] + ["--approx"] * approx
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == _emitted_gauss_report(rows, approx)


# A8, 4 terms in a table of 9; <2> + A2 + [[2, 1], [1, -2]], 12 terms in
# a table of 60; U, whose trivial group has the one term [0, 1];
# diag(2, 2048), a walked p = 2 table of step 1 with r up to 4095; and
# [[2, 1], [1, 1000]], det 1999, a table of step 2 with r up to 3996.
SLICED_FORMS = (A8_NEG, [[2, 0, 0, 0, 0], [0, 2, -1, 0, 0], [0, -1, 2, 0, 0],
                         [0, 0, 0, 2, 1], [0, 0, 0, 1, -2]],
                [[0, 1], [1, 0]], [[2, 0], [0, 2048]], [[2, 1], [1, 1000]])


@pytest.mark.parametrize("digits", (1, 2, 3))
def test_gauss_stream_skips_empty_slices(digits, tmp_path, monkeypatch,
                                         capsys):
    """With the terms cut at r = K 10^D for D = 1, 2 and 3, the stream is
    still the emitted report, with and without --approx: at D = 1 slices
    cut the tables mid-way, some hold no term and heads reach K = 409, at
    D = 2 they reach K = 40, and the offsets are never those cached for
    another D."""
    from wittlink import cli, discriminant
    monkeypatch.setattr(discriminant, "_DIGITS", digits)
    for i, rows in enumerate(SLICED_FORMS):
        path = tmp_path / f"f{i}.json"
        path.write_text(json.dumps({"gram": rows}))
        for approx in (False, True):
            argv = ["gauss", "--gram", str(path)] + ["--approx"] * approx
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == _emitted_gauss_report(
                rows, approx), (rows, digits)


def test_gauss_widest_report_is_the_whole_report(tmp_path, capsys):
    """[[1000, 1], [1, 1100]], det 1099999, under --bound-det 2000000: its r
    run up to near 2N = 2199998, so slice heads reach four digits, and the
    streamed report is the one json.dumps gives of the report built
    whole."""
    from wittlink import cli, discriminant, form_from_rows
    rows = [[1000, 1], [1, 1100]]
    path = tmp_path / "f4.json"
    path.write_text(json.dumps({"gram": rows}))
    assert cli.main(["gauss", "--gram", str(path),
                     "--bound-det", "2000000"]) == 0
    f = form_from_rows(rows)
    g = discriminant.gauss_sum(f, enum_bound=2 * 10 ** 6)
    assert g.terms[-1][0] // 10 ** discriminant._DIGITS > 2000
    assert capsys.readouterr().out == json.dumps(
        {"check": discriminant.gauss_sum_check(f, enum_bound=2 * 10 ** 6),
         "denominator": g.denominator, "terms": g.terms},
        sort_keys=True) + "\n"


def test_gauss_stream_is_the_emitted_report_on_generated_forms(tmp_path):
    """On block sums of up to three even blocks <2k> and [[2a, b], [b, 2c]]
    with 1 <= |det| <= 3000, and terms cut at r = K 10^D for D = 1, 2, 3,
    the streamed report is the one json.dumps gives, with and without
    --approx, and its terms are those of the whole-group enumeration,
    which shares no code with the slices.  Among the forms
    are walked p = 2 components, odd components of mixed orders such as
    (3, 9), and tables merged from several components."""
    import contextlib
    import functools
    import itertools
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from wittlink import (cli, determinant, direct_sum, discriminant,
                          form_from_rows)
    entry = st.integers(-6, 6)
    one = st.integers(-40, 40).filter(bool).map(lambda k: [[2 * k]])
    two = st.tuples(entry, entry, entry).filter(
        lambda t: 4 * t[0] * t[2] != t[1] ** 2).map(
        lambda t: [[2 * t[0], t[1]], [t[1], 2 * t[2]]])
    seen = set()
    names = itertools.count()
    default = discriminant._DIGITS

    @hypothesis.settings(derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.lists(one | two, min_size=1, max_size=3),
                      st.integers(1, 3))
    @hypothesis.example([[[2]], [[2, -1], [-1, 2]], [[2, 1], [1, -2]]], 1)
    @hypothesis.example([[[6]], [[18]]], 2)
    @hypothesis.example([[[2, 1], [1, 8]], [[10]]], 1)
    def check(blocks, digits):
        f = functools.reduce(direct_sum, map(form_from_rows, blocks))
        hypothesis.assume(0 < abs(determinant(f)) <= 3000)
        rows = f.rows()
        components = list(discriminant._primary_components(
            discriminant.discriminant_form(f)))
        for p, _, orders, width, _, _ in components:
            if orders[0] != width:
                seen.add("walked 2" if p == 2 else "mixed odd")
        if len(components) > 1:
            seen.add("merged")
        path = tmp_path / f"f{next(names)}.json"
        path.write_text(json.dumps({"gram": rows}))
        for approx in (False, True):
            want = _emitted_gauss_report(rows, approx)
            argv = ["gauss", "--gram", str(path)] + ["--approx"] * approx
            buf = io.StringIO()
            discriminant._DIGITS = digits
            try:
                with contextlib.redirect_stdout(buf):
                    assert cli.main(argv) == 0
            finally:
                discriminant._DIGITS = default
            assert buf.getvalue() == want, (rows, digits, approx)
        assert [tuple(t) for t in json.loads(want)["terms"]] == list(
            enumerate_gauss_terms(rows)), rows

    check()
    assert seen == {"walked 2", "mixed odd", "merged"}


def test_gauss_memory_is_bounded_by_the_table(tmp_path):
    import contextlib
    import os
    import tracemalloc
    from wittlink import cli
    # 300000 terms, 3.7 MiB of JSON: a tuple per term and one encoded
    # string peaked near 35 MiB; the dense table of 599999 counts is
    # 0.6 MiB, one byte each, and the stream holds one slice of terms
    # beside it.
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({"gram": [[600, 1], [1, 1000]]}))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(["gauss", "--gram", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 15 * 2 ** 20


class _NullWriter:
    """A stdout that keeps nothing."""

    def write(self, text):
        return len(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)

    def flush(self):
        pass


def gauss_peak(rows):
    """The tracemalloc peak, in bytes, of ``gauss --gram`` on ``rows`` in a
    process that has run it once, with stdout sent to a null writer."""
    import contextlib
    import tempfile
    import tracemalloc
    from wittlink import cli
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/gram.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"gram": rows}, fh)
        with contextlib.redirect_stdout(_NullWriter()):
            assert cli.main(["gauss", "--gram", path]) == 0
            tracemalloc.start()
            try:
                assert cli.main(["gauss", "--gram", path]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()


def test_gauss_table_holds_one_byte_per_count():
    """Every count of the dense tables of [[600, 1], [1, 1000]] (599999
    entries, counts up to 2) and [[600, 1], [1, 1002]] (two primes,
    29 * 20731, counts up to 4) is below 256, so each table is a bytearray
    and a warm gauss peaks below 1.5 and 2 MiB; as lists of 8-byte entries
    they peaked at 4.61 and 5.23 MiB, and as bytearrays near 0.60 and
    0.78 MiB."""
    for rows, bound in (([[600, 1], [1, 1000]], 1.5),
                        ([[600, 1], [1, 1002]], 2)):
        assert gauss_peak(rows) < bound * 2 ** 20, rows


def test_metabolizer_search_reads_integer_tables(a8_json, tmp_path,
                                                  monkeypatch, capsys):
    """disc and analyze find their metabolizers without the Fraction
    linking_value: on A8, on A1^8 and on the two-prime
    <2> + <6> + <-2> + <-6> (|G| = 144)."""
    from wittlink import cli, discriminant

    def no_fractions(*args):
        raise AssertionError("linking_value called")

    monkeypatch.setattr(discriminant, "linking_value", no_fractions)
    paths = [a8_json]
    for name, diag in (("a1_8", [2] * 8), ("two_prime", [2, 6, -2, -6])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"gram": [
            [x if i == j else 0 for j in range(len(diag))]
            for i, x in enumerate(diag)]}))
        paths.append(str(path))
    for path in paths:
        found = []
        for cmd in ("disc", "analyze"):
            assert cli.main([cmd, "--gram", path]) == 0
            found.append(json.loads(capsys.readouterr().out)["metabolizer"])
        assert found[0] == found[1] and found[0], path


def test_internal_error_is_structured(a8_json, monkeypatch, capsys):
    from wittlink import cli, discriminant

    def contradiction(*args, **kwargs):
        raise ArithmeticError("signature 4 not divisible by 8")

    monkeypatch.setattr(discriminant, "verify_main_theorem", contradiction)
    assert cli.main(["analyze", "--gram", a8_json]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "internal",
                   "message": "signature 4 not divisible by 8"}


def test_main_reuses_one_parser_without_carrying_options(a8_json, monkeypatch,
                                                          capsys):
    from wittlink import cli

    def fresh(argv):
        args = cli.build_parser().parse_args(argv)
        assert args.func(args) == 0
        return capsys.readouterr().out

    builds = []
    real_build = cli.build_parser
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or real_build())
    # Each flag is set in one call and left out of the next call of the
    # same subcommand.
    sequence = [
        ["dioph", "--sign", "1", "--pq", "7", "--r", "6", "--m", "9",
         "--dedupe"],
        ["dioph", "--sign", "1", "--pq", "7", "--r", "6", "--m", "9"],
        ["gauss", "--gram", a8_json, "--approx"],
        ["diag", "--gram", a8_json, "--approx"],
        ["gauss", "--gram", a8_json],
        ["dioph", "--pq", "9", "--r", "10", "--m", "9", "--verify"],
        ["diag", "--gram", a8_json],
        ["dioph", "--pq", "5", "--r", "4", "--m", "3"],
        ["analyze", "--gram", a8_json, "--bound-group", "1"],
        ["analyze", "--gram", a8_json],
    ]
    outputs = []
    for argv in sequence:
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert len(builds) == 1
    monkeypatch.setattr(cli, "build_parser", real_build)
    for argv, out in zip(sequence, outputs):
        assert out == fresh(argv)
    assert outputs[0] != outputs[1]
    assert outputs[2] != outputs[4]
    assert outputs[5] == "restriction holds\n" != outputs[7]
    assert outputs[8] != outputs[9]


# (gram, extra args, terms, elements), one large form a line:
# f2: Z/599999 has rank 1, so each slice after the first is one join;
# xmx991, X + (-X) for X = [[4, 1], [1, 248]] of det 991: (Z/991)^2 has even
#   rank, so every term after the first has the one count 990;
# f3, 601199 = 29 * 20731: the merged table, on the interleaved path;
# c3x12, det -3^12, cyclic of order 531441: the closed form recurses to the
#   multiples of p^2 six times over;
# f4, det 1099999 = 29 * 83 * 457 above the default bound of 10^6: the
#   table checks itself under the caller's bound.
LARGE_GAUSS = {
    "f2": ([[600, 1], [1, 1000]], (), 300000, 599999),
    "xmx991": ([[4, 1, 0, 0], [1, 248, 0, 0], [0, 0, -4, -1],
                [0, 0, -1, -248]], (), 991, 982081),
    "f3": ([[600, 1], [1, 1002]], (), 155490, 601199),
    "c3x12": ([[2, 731], [731, 1460]], (), 199291, 531441),
    "f4": ([[1000, 1], [1, 1100]], ("--bound-det", "2000000"), 144270,
           1099999),
}


@pytest.mark.parametrize("name", LARGE_GAUSS)
def test_gauss_large_report_is_one_checked_object(name, tmp_path, capsys):
    """The whole streamed gauss report of each large form is one JSON
    object: the check holds, its terms count all the elements, and stdout
    is byte for byte json.dumps of that object, so a wrong separator or
    digit padding fails here."""
    from wittlink import cli
    rows, extra, terms, elements = LARGE_GAUSS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"gram": rows}))
    assert cli.main(["gauss", "--gram", str(path), *extra]) == 0
    raw = capsys.readouterr().out
    rep = json.loads(raw)
    assert rep["check"] is True
    assert len(rep["terms"]) == terms
    assert sum(c for _, c in rep["terms"]) == elements
    assert json.dumps(rep, sort_keys=True) + "\n" == raw


def test_gauss_check_holds_for_non_square_det_near_a_million(tmp_path):
    # det 599999, a prime: the plain float sum misses
    # sqrt|det| * e^(2 pi i sigma/8) by about 1.3e-9 here; the exact check
    # holds.
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({"gram": [[600, 1], [1, 1000]]}))
    code, out, _ = run_cli("gauss", "--gram", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["denominator"] == 599999 and rep["check"] is True


def test_gauss_terms_near_a_million_equal_the_whole_group_enumeration():
    """Six definite binary forms with |det| near 10^6 and cyclic groups:
    one prime component (599999), two and three primes (29 * 20731,
    83 * 7253, 7 * 47 * 1831), and a 3-part of odd exponent (3^3 * 23333)
    or even exponent (3^2 * 70199).  terms equal the one-loop enumeration
    and the exact check holds."""
    from wittlink import (determinant, form_from_rows, gauss_sum,
                          gauss_sum_check, gauss_sum_matches)
    cases = [([[600, 1], [1, 1000]], 599999),
             ([[600, 1], [1, 1002]], 29 * 20731),
             ([[602, 1], [1, 1000]], 83 * 7253),
             ([[700, 3], [3, 900]], 3 ** 3 * 23333),
             ([[600, 1], [1, 1004]], 7 * 47 * 1831),
             ([[702, 3], [3, 900]], 3 ** 2 * 70199)]
    for rows, det in cases:
        f = form_from_rows(rows)
        assert determinant(f) == det
        g = gauss_sum(f)
        assert g.terms == enumerate_gauss_terms(rows), rows
        assert gauss_sum_matches(f, g), rows
        assert gauss_sum_check(f) == gauss_sum_matches(f, g), rows


def test_gauss_sum_check_memory_is_bounded_by_the_table():
    """gauss_sum_check reads the phase and the group order off the dense
    table: no terms tuple.  On [[600, 1], [1, 1000]] the table is 0.6 MiB
    and the check peaks near it; building the 300000 terms as well peaked
    near 34.5 MiB."""
    import tracemalloc
    from wittlink import form_from_rows, gauss_sum_check
    f = form_from_rows([[600, 1], [1, 1000]])
    tracemalloc.start()
    try:
        holds = gauss_sum_check(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert holds is True
    assert peak < 10 * 2 ** 20


def test_gauss_sum_matches_memory_is_near_the_check():
    """gauss_sum_matches compares the terms as they stream from the table,
    so on [[600, 1], [1, 1000]] its peak stays near gauss_sum_check's
    0.6 MiB; building f's 300000 terms as a tuple peaked at 32.6 MiB."""
    import tracemalloc
    from wittlink import (form_from_rows, gauss_sum, gauss_sum_check,
                          gauss_sum_matches)
    f = form_from_rows([[600, 1], [1, 1000]])
    g = gauss_sum(f)
    peaks = []
    for check in (lambda: gauss_sum_check(f), lambda: gauss_sum_matches(f, g)):
        tracemalloc.start()
        try:
            assert check() is True
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_gauss_prints_the_enumerated_terms_byte_for_byte(tmp_path, capsys):
    """On two- and three-prime groups near 10^6, gauss prints exactly the
    sorted-key JSON of the whole-group enumeration, whose terms are in
    increasing residue order, and --approx adds a value within
    1e-6 sqrt|det| of their fsum."""
    import math

    from conftest import fsum_gauss_value
    from wittlink import GaussSumValue, cli, discriminant_form, form_from_rows
    for i, rows in enumerate(([[600, 1], [1, 1002]], [[600, 1], [1, 1004]])):
        path = tmp_path / f"f{i}.json"
        path.write_text(json.dumps({"gram": rows}))
        f = form_from_rows(rows)
        n = discriminant_form(f).denominator
        terms = enumerate_gauss_terms(rows)
        assert cli.main(["gauss", "--gram", str(path)]) == 0
        assert capsys.readouterr().out == json.dumps(
            {"check": True, "denominator": n, "terms": terms},
            sort_keys=True) + "\n"
        assert cli.main(["gauss", "--gram", str(path), "--approx"]) == 0
        rep = json.loads(capsys.readouterr().out)
        want = fsum_gauss_value(GaussSumValue(n, terms))
        assert abs(complex(*rep.pop("approx")) - want) <= 1e-6 * math.sqrt(
            abs(f.minors[-1]))
        assert rep == {"check": True, "denominator": n,
                       "terms": [list(t) for t in terms]}


def test_diag_reports_bad_input_as_validation_does(tmp_path, capsys):
    """diag, which validates inside its one elimination, prints the error
    object and exit code that form_from_rows gives analyze: for a ragged,
    a non-symmetric, a non-integer and a singular matrix."""
    from wittlink import cli
    path = tmp_path / "bad.json"
    for rows, kind in (([[2, 1]], "not_square"),
                       ([[1, 2], [3, 4]], "not_symmetric"),
                       ([[2, 1], [1, 2.0]], "not_integer"),
                       ([[1, 1], [1, 1]], "degenerate"),
                       ([[0, 0, 0], [0, 2, 1], [0, 1, 2]], "degenerate")):
        path.write_text(json.dumps({"gram": rows}))
        assert cli.main(["diag", "--gram", str(path)]) == 1
        out = capsys.readouterr().out
        assert cli.main(["analyze", "--gram", str(path)]) == 1
        assert capsys.readouterr().out == out
        assert json.loads(out)["error"]["type"] == kind, rows
    path.write_text(json.dumps({"gram": [[1, 1], [1, 1]]}))
    cli.main(["diag", "--gram", str(path)])
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        "Gram matrix has determinant 0")


def test_disc_skips_search_when_no_metabolizer_exists(tmp_path):
    # The form of test_analyze_skips_search_when_no_metabolizer_exists:
    # disc shares analyze's gate, so it answers without a search.
    rows = [[0] * 16 for _ in range(16)]
    for k in range(8):
        s = 1 if k < 7 else -1
        rows[2 * k][2 * k:2 * k + 2] = [2 * s, -s]
        rows[2 * k + 1][2 * k:2 * k + 2] = [-s, 2 * s]
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"gram": rows}))
    proc = subprocess.run([sys.executable, "-m", "wittlink", "disc", "--gram",
                           str(path)], capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["orders"] == [3] * 8 and rep["metabolizer"] is None


def test_analyze_tests_the_residues_once(tmp_path, monkeypatch, capsys):
    """A2 + (-A2): |det| = 9 is an odd square within the group bound, so
    the metabolizer gate needs the residue verdict.  analyze hands it the
    one its decision computed, and disc, which decides nothing, computes it
    in the gate: each calls boundary_zero_from_minors once, under whichever
    module's name."""
    from wittlink import cli, discriminant, witt
    calls = []
    real = witt.boundary_zero_from_minors

    def counted(minors):
        calls.append(minors)
        return real(minors)

    for module in (witt, discriminant):
        monkeypatch.setattr(module, "boundary_zero_from_minors", counted)
    path = tmp_path / "a2_a2neg.json"
    path.write_text(json.dumps({"gram": [[2, -1, 0, 0], [-1, 2, 0, 0],
                                         [0, 0, -2, 1], [0, 0, 1, -2]]}))
    for cmd in ("analyze", "disc"):
        calls.clear()
        assert cli.main([cmd, "--gram", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["metabolizer"] == [[1, 1]]
        assert len(calls) == 1, cmd


def test_no_metabolizer_on_an_even_square_det(tmp_path, monkeypatch, capsys):
    """diag(3^6, 2, 2): |det| = 2916 is an even square within the group
    bound, but the residue at 3 does not vanish, so no metabolizer exists
    and neither analyze nor disc calls find_metabolizer."""
    from wittlink import cli, discriminant
    calls = []
    real = discriminant.find_metabolizer

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(discriminant, "find_metabolizer", counted)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"gram": [[(3 if i < 6 else 2) * (i == j)
                                          for j in range(8)]
                                         for i in range(8)]}))
    assert cli.main(["analyze", "--gram", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["det"] == 2916
    assert rep["boundary_zero"] is False and rep["metabolizer"] is None
    assert cli.main(["disc", "--gram", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["metabolizer"] is None
    assert calls == []


def test_disc_above_the_group_bound_tests_no_residue(tmp_path, capsys):
    """diag(2M, 2M), M = 2^89 - 1 prime: |det| = 4M^2 ~ 1.5 * 10^54 is
    above the group bound, so disc prints a null metabolizer without the
    residue verdict, which analyze needs and cannot certify at sqrt|det| =
    2M."""
    from wittlink import cli
    m = 2 ** 89 - 1
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"gram": [[2 * m, 0], [0, 2 * m]]}))
    assert cli.main(["disc", "--gram", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["group_order"] == 4 * m * m and rep["metabolizer"] is None
    assert cli.main(["analyze", "--gram", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "certification_bound"


def test_disc_finds_a_metabolizer_above_the_default_group_bound(tmp_path,
                                                                capsys):
    """X + -X, X = [[2, 1], [1, 52]] of det 103, has |G| = 103^2 > 10^4, so
    disc prints a null metabolizer by default; under --bound-group 100000
    it prints generators of a subgroup of order 103 on which the linking
    form vanishes."""
    from fractions import Fraction

    from wittlink import cli
    path = tmp_path / "xmx.json"
    path.write_text(json.dumps({"gram": [[2, 1, 0, 0], [1, 52, 0, 0],
                                         [0, 0, -2, -1], [0, 0, -1, -52]]}))
    assert cli.main(["disc", "--gram", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["metabolizer"] is None
    assert cli.main(["disc", "--gram", str(path),
                     "--bound-group", "100000"]) == 0
    rep = json.loads(capsys.readouterr().out)
    orders, link, gens = rep["orders"], rep["linking"], rep["metabolizer"]
    assert gens
    span = {(0,) * len(orders)}
    for g in gens:
        while True:
            grown = span | {tuple((a + b) % d for a, b, d in
                                  zip(x, g, orders)) for x in span}
            if grown == span:
                break
            span = grown
    assert len(span) == 103
    k = range(len(orders))
    assert not any(sum(Fraction(*link[i][j]) * x[i] * y[j]
                       for i in k for j in k) % 1
                   for x in gens for y in gens)


def test_pretzel_stops_at_the_rho_budget(capsys):
    """The pretzel class factors p*q*r; the cofactor p*q of two 19-digit
    primes is composite and above the Miller-Rabin bound, and Pollard
    rho's step budget runs out on it, so the command stops with a
    certification_bound error (exit 1), in seconds, not minutes."""
    from wittlink import cli
    start = time.perf_counter()
    assert cli.main(["pretzel", "4000000000000000037", "5000000000000000003",
                     "2"]) == 1
    assert time.perf_counter() - start < 120
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "certification_bound"


def test_approx_beyond_the_float_range_is_bad_input(tmp_path, capsys):
    """An entry too large for a float fails diag --approx as input, not as
    a failed internal check; the exact report is unchanged."""
    from fractions import Fraction

    from wittlink import cli
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gram": [[2, 1], [1, 10 ** 400]]}))
    assert cli.main(["diag", "--gram", str(path), "--approx"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "input"
    assert cli.main(["diag", "--gram", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["entries"] == ["2/1", str(Fraction(2 * 10 ** 400 - 1, 2))]


def test_one_elimination_per_form(tmp_path, monkeypatch, capsys):
    """Every form is eliminated once: validation runs the symmetric
    elimination and every command reads its minors, except diag, whose one
    elimination, on an identity for the transition matrix, also validates
    and is printed from its integers, not through diagonalize."""
    from collections import Counter

    from wittlink import cli, forms, knots
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(forms, "pivot_minors")
    count(forms, "diagonalize")
    count(forms, "_eliminate")
    count(knots, "_pfaffian")
    # det 9 (odd square) and det -4 (even square): analyze and disc both
    # search for a metabolizer on these.
    for i, rows in enumerate((A8_NEG, [[0, 2], [2, 0]])):
        path = tmp_path / f"form{i}.json"
        path.write_text(json.dumps({"gram": rows}))
        for cmd in ("analyze", "gauss", "boundary", "disc", "diag"):
            calls.clear()
            assert cli.main([cmd, "--gram", str(path)]) == 0
            assert calls == Counter(pivot_minors=int(cmd != "diag"),
                                    diagonalize=0, _eliminate=1), cmd
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"seifert": NINE_ONE_SEIFERT}))
    calls.clear()
    assert cli.main(["knot", "--seifert", str(path)]) == 0
    assert calls == Counter(pivot_minors=1, _pfaffian=1, _eliminate=1)
    # pretzel eliminates its Goeritz form once and has no Seifert matrix
    calls.clear()
    assert cli.main(["pretzel", "3", "5", "-2"]) == 0
    assert calls == Counter(pivot_minors=1, _eliminate=1)
    capsys.readouterr()


RUN_EVERY_COMMAND = """
import sys
before = {id(m) for m in sys.modules.values()}
import wittlink
from wittlink.cli import main
gram, seifert = sys.argv[1:]
for argv in (["analyze", "--gram", gram], ["diag", "--gram", gram],
             ["boundary", "--gram", gram], ["disc", "--gram", gram],
             ["gauss", "--gram", gram],
             ["knot", "--seifert", seifert],
             ["pretzel", "3", "5", "-2"], ["dioph", "--pq", "5", "--r", "4",
                                          "--m", "5", "--dedupe"],
             ["dioph", "--pq", "5", "--r", "4", "--m", "5", "--verify"]):
    assert main(argv) == 0, argv
# Compare module objects, not names: an alias of a module loaded before is
# not a new load.
print(*sorted({name.partition(".")[0] for name, m in sys.modules.items()
               if id(m) not in before}), file=sys.stderr)
"""


def test_runtime_loads_only_the_standard_library(tmp_path):
    import os
    from pathlib import Path
    gram = tmp_path / "g.json"
    gram.write_text(json.dumps({"gram": A8_NEG}))
    seifert = tmp_path / "s.json"
    seifert.write_text(json.dumps({"seifert": TREFOIL_SEIFERT}))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", RUN_EVERY_COMMAND, str(gram),
                           str(seifert)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stderr.split()
    assert "wittlink" in loaded
    # every command runs in one process: no worker pool is started
    assert "multiprocessing" not in loaded
    assert [m for m in loaded
            if m != "wittlink" and m not in sys.stdlib_module_names] == []
