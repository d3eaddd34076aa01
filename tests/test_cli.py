import csv
import io
import json
import subprocess
import sys
import time

import pytest

from conftest import (A8_NEG, NINE_ONE_SEIFERT, TREFOIL_SEIFERT,
                      fraction_diagonalize)


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
    # string peaks near 21 MiB, streaming them near 1 MiB.
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(["dioph", "--pq", "199", "--r", "200",
                             "--m", "199"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2 ** 20


def test_dioph_closed_pipe_exits_quietly():
    proc = subprocess.Popen([sys.executable, "-m", "wittlink", "dioph",
                             "--pq", "399", "--r", "400", "--m", "399"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"p,q,r,m,sign,p_plus_q_mod_8\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


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
    for rows in ([[0.5]], [[True]], [[2, 1], [1, 2.0]]):
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
    # vanish, so no metabolizer exists; the exhaustive search over this group
    # runs for minutes, the residue test answers at once.
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


# A dense rank-24 even form, entries in [-3, 3].  Square-free parts of its
# diagonal entries have cofactors above the Miller-Rabin certification bound.
DENSE_24 = [
    [0, -3, 1, 1, 3, 3, 3, 3, 1, 2, 2, 1, -2, -1, 2, -1, 0, -3, 2, 0, 2, -3, 3, -2],
    [-3, 2, 1, -1, 2, 3, 1, 3, 0, -1, 0, 2, 0, 2, 3, 1, -1, -2, -1, -1, 2, -1, 3, -1],
    [1, 1, -4, 0, 3, -2, 3, 2, -2, 3, -3, -2, 2, -3, -2, -1, -3, -3, -3, 2, 0, 2, 3, -3],
    [1, -1, 0, 2, 0, 3, -2, 3, -3, -1, -3, 2, 2, 0, -2, -1, -2, -3, 2, -2, -1, -1, -2, 3],
    [3, 2, 3, 0, -4, -2, -2, 3, 1, -2, -2, 1, 2, 1, -3, -1, 1, 2, 0, -2, 0, -2, 1, -1],
    [3, 3, -2, 3, -2, -4, -1, 3, 3, -3, 0, 2, 0, -1, 1, 3, 2, -2, -2, -2, -1, -1, 0, 1],
    [3, 1, 3, -2, -2, -1, -6, 0, 0, -3, -2, 3, -3, -3, -2, -1, -3, -2, 3, 1, 0, 2, -1, -2],
    [3, 3, 2, 3, 3, 3, 0, 2, -1, 1, 0, 3, 2, 2, -1, 1, -2, 0, -3, 1, 2, 2, 2, -3],
    [1, 0, -2, -3, 1, 3, 0, -1, -4, 2, -2, 0, -2, 2, -3, 0, 2, 3, 2, -2, 1, 3, -3, -3],
    [2, -1, 3, -1, -2, -3, -3, 1, 2, 0, 1, 1, -2, -3, -1, -1, -1, -2, 1, 2, 1, -1, -2, 2],
    [2, 0, -3, -3, -2, 0, -2, 0, -2, 1, -2, -2, 0, 1, -3, 1, -2, 2, -1, -3, -1, 1, -3, -2],
    [1, 2, -2, 2, 1, 2, 3, 3, 0, 1, -2, 2, 3, 2, 0, 2, -3, 3, -2, 2, 1, 3, -2, -3],
    [-2, 0, 2, 2, 2, 0, -3, 2, -2, -2, 0, 3, 6, 0, 1, 0, -2, 1, 3, 3, -3, 0, 3, -2],
    [-1, 2, -3, 0, 1, -1, -3, 2, 2, -3, 1, 2, 0, -4, 1, -1, 3, -2, 0, -1, -2, -3, -3, -2],
    [2, 3, -2, -2, -3, 1, -2, -1, -3, -1, -3, 0, 1, 1, 2, 1, 1, 0, 0, 0, 0, 2, 0, 1],
    [-1, 1, -1, -1, -1, 3, -1, 1, 0, -1, 1, 2, 0, -1, 1, 4, -1, 3, -3, -1, -3, 0, 0, -1],
    [0, -1, -3, -2, 1, 2, -3, -2, 2, -1, -2, -3, -2, 3, 1, -1, -6, 1, -1, -1, 2, -1, -3, 3],
    [-3, -2, -3, -3, 2, -2, -2, 0, 3, -2, 2, 3, 1, -2, 0, 3, 1, 2, 1, 3, 1, -1, 2, -2],
    [2, -1, -3, 2, 0, -2, 3, -3, 2, 1, -1, -2, 3, 0, 0, -3, -1, 1, -6, -2, -1, 1, 0, -1],
    [0, -1, 2, -2, -2, -2, 1, 1, -2, 2, -3, 2, 3, -1, 0, -1, -1, 3, -2, -4, -1, -2, -1, 3],
    [2, 2, 0, -1, 0, -1, 0, 2, 1, 1, -1, 1, -3, -2, 0, -3, 2, 1, -1, -1, -6, -3, -3, -3],
    [-3, -1, 2, -1, -2, -1, 2, 2, 3, -1, 1, 3, 0, -3, 2, 0, -1, -1, 1, -2, -3, 4, -3, 0],
    [3, 3, 3, -2, 1, 0, -1, 2, -3, -2, -3, -2, 3, -3, 0, 0, -3, 2, 0, -1, -3, -3, 0, 3],
    [-2, -1, -3, 3, -1, 1, -2, -3, -3, 2, -2, -3, -2, -2, 1, -1, 3, -2, -1, 3, -3, 0, 3, 2]]


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


def test_gauss_enumerates_once(a8_json, tmp_path, monkeypatch, capsys):
    """One gauss_sum per op, and within it one histogram per prime dividing
    |G|: |G| = 9 for A8, in closed form, and 30 = 2 * 3 * 5 for
    <2> + A2 + [[2, 1], [1, -2]], walked at 2 and in closed form at 3, 5."""
    from wittlink import cli, discriminant
    calls = []
    served = []
    real = discriminant.gauss_sum
    real_walk = discriminant._component_counts
    real_closed = discriminant._homogeneous_counts

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    def counted_walk(quad, link, orders, mod):
        served.append(("walk", orders))
        return real_walk(quad, link, orders, mod)

    def counted_closed(quad, link, p, a, mod):
        served.append(("closed", p))
        return real_closed(quad, link, p, a, mod)

    monkeypatch.setattr(discriminant, "gauss_sum", counted)
    monkeypatch.setattr(discriminant, "_component_counts", counted_walk)
    monkeypatch.setattr(discriminant, "_homogeneous_counts", counted_closed)
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"gram": [[2, 0, 0, 0, 0], [0, 2, -1, 0, 0],
                                          [0, -1, 2, 0, 0], [0, 0, 0, 2, 1],
                                          [0, 0, 0, 1, -2]]}))
    for path, want in ((a8_json, [("closed", 3)]),
                       (str(mixed), [("walk", [2]), ("closed", 3),
                                     ("closed", 5)])):
        calls.clear()
        served.clear()
        assert cli.main(["gauss", "--gram", path]) == 0
        assert json.loads(capsys.readouterr().out)["check"] is True
        assert len(calls) == 1
        assert served == want


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


def test_disc_skips_search_when_no_metabolizer_exists(tmp_path):
    # The form of test_analyze_skips_search_when_no_metabolizer_exists:
    # disc shares analyze's gate, so it answers without the exhaustive search.
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


def test_one_elimination_per_form(tmp_path, monkeypatch, capsys):
    """Validation runs the one symmetric elimination; every command reads
    its minors, and only diag runs the elimination a second time, on an
    identity, for the transition matrix."""
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
            assert calls == Counter(pivot_minors=1,
                                    diagonalize=int(cmd == "diag"),
                                    _eliminate=1 + (cmd == "diag")), cmd
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"seifert": NINE_ONE_SEIFERT}))
    calls.clear()
    assert cli.main(["knot", "--seifert", str(path)]) == 0
    assert calls == Counter(pivot_minors=1, _pfaffian=1, _eliminate=1)
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
