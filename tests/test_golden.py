"""Byte identity of the CLI on a fixed corpus: stdout and exit code of
every op against the digests committed in ``tests/golden.json``.

The corpus is built here from a fixed seed with the conftest builders:
all eight subcommands and their flags (``--approx``, ``--dedupe``,
``--verify``, the ``--bound-*`` refusals), the error paths (an odd form, a
missing file, bad JSON, a usage error, ``certification_bound``), closed-form,
walked and merged ``gauss`` components, ``disc``/``analyze`` with a
metabolizer, without one and above the bound, and ``knot``, ``analyze``
and ``disc`` at the ranks 14 to 24 of the benchmark.  Each op runs in process
through ``cli.main`` in a scratch directory, with relative file names, so
no path reaches stdout.  The file holds one sha256 per subcommand and one
short digest per op, so a failure names the subcommand and the first op
that differs.

Regenerate the file, after a deliberate output change, with

    PYTHONPATH=src python tests/test_golden.py

and name the outputs that changed, and why, in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

from conftest import (A8_NEG, DENSE_24, E8, HYPERBOLIC, NINE_ONE_SEIFERT,
                      NINE_ONE_SYM, SEIFERT_6_3, TREFOIL_SEIFERT,
                      pretzel_window, random_dense_even_rows,
                      random_even_form_rows, random_mixed_even_rows,
                      random_seifert_rows)
from wittlink import cli

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
SEED = 20261019

D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def _diagonal(*entries):
    return [[x if i == j else 0 for j in range(len(entries))]
            for i, x in enumerate(entries)]


def _block_sum(*blocks):
    n = sum(map(len, blocks))
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(b)] = row
        at += len(b)
    return rows


# gauss forms whose 2-primary or mixed odd components are walked
WALKED = {
    "a1x12": _diagonal(*[2] * 12),
    "a1x16": _diagonal(*[2] * 16),
    "u2": [[0, 2], [2, 0]],
    "v2": [[4, 2], [2, 4]],
    "d6_18": _diagonal(6, 18),
    "d6_54_18": _diagonal(6, 54, 18),
    "d4_a1x3": _block_sum(D4, _diagonal(2, 2, 2)),
    "m4": [[-4]],
    "d8_24_2": _diagonal(8, 24, 2),
}

FIXED = {
    "a8neg": A8_NEG,
    "e8": E8,
    "nine_one": NINE_ONE_SYM,
    "hyperbolic": HYPERBOLIC,
    "diag2m2": _diagonal(2, -2),
    "a2_plus_a2": _block_sum([[2, -1], [-1, 2]], [[2, -1], [-1, 2]]),
    "a2_minus_a2": _block_sum([[2, -1], [-1, 2]], [[-2, 1], [1, -2]]),
    "merged": [[600, 1], [1, 1002]],
    "big_prime": [[600, 1], [1, 1000]],
    "dense24": DENSE_24,
    "odd": [[1, 0], [0, 3]],
    "cert": _diagonal(2, 2 * (2 ** 89 - 1)),
}


def _write_inputs(directory, rng):
    """Write the corpus' input files into ``directory``; return the names of
    the gram files and of the Seifert files."""
    grams = dict(WALKED, **FIXED)
    for i in range(40):
        grams[f"even{i}"] = random_even_form_rows(rng, rng.randint(1, 6),
                                                  entry_bound=6)
    for i in range(20):
        grams[f"odddet{i}"] = random_even_form_rows(
            rng, 2 * rng.randint(1, 2), entry_bound=4, odd_det=True,
            max_abs_det=10 ** 4)
    for i in range(60):
        grams[f"mixed{i}"] = random_mixed_even_rows(rng, max_rank=10)
    for i in range(6):
        grams[f"dense{i}"] = random_dense_even_rows(rng, rng.choice((12, 16)))
    seiferts = {"nine_one": NINE_ONE_SEIFERT, "trefoil": TREFOIL_SEIFERT,
                "six_three": SEIFERT_6_3}
    for i in range(30):
        seiferts[f"random{i}"] = random_seifert_rows(rng, rng.randint(1, 5))
    for name, rows in grams.items():
        (directory / f"{name}.json").write_text(json.dumps({"gram": rows}))
    for name, rows in seiferts.items():
        (directory / f"s_{name}.json").write_text(
            json.dumps({"seifert": rows}))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(TREFOIL_SEIFERT)
    (directory / "trefoil.csv").write_text(buf.getvalue())
    (directory / "badjson.json").write_text('{"gram": [[2, 1], [1, 2]')
    (directory / "nogram.json").write_text('{"seifert": [[2]]}')
    (directory / "notsym.json").write_text('{"gram": [[2, 1], [3, 2]]}')
    return ([f"{name}.json" for name in sorted(grams)],
            [f"s_{name}.json" for name in sorted(seiferts)] + ["trefoil.csv"])


def _a_chain(n, sign=1):
    """sign times the Cartan matrix of A_n, of determinant (n + 1) sign^n."""
    return [[sign * (2 if i == j else -1 if abs(i - j) == 1 else 0)
             for j in range(n)] for i in range(n)]


def _scramble(rng, rows):
    """rows under 2n random symmetric shears: a unimodular congruence."""
    n = len(rows)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        for row in rows:
            row[i] += c * row[j]
    return rows


def _write_large_inputs(directory, rng):
    """Write the inputs at decide's ranks, drawn after every draw of the
    corpus above, so that none of its digests moves: Seifert matrices of
    genus 7 to 12, and even forms X + (-X) of rank 16 to 24, three with a
    determinant within the metabolizer search bound; return the names of
    the gram files and of the Seifert files."""
    grams = {"a8_a8neg": _block_sum(_a_chain(8), _a_chain(8, -1)),
             "a12_a12neg": _block_sum(_a_chain(12), _a_chain(12, -1)),
             "a10_a10neg_scrambled": _scramble(
                 rng, _block_sum(_a_chain(10), _a_chain(10, -1)))}
    for n in (8, 10, 12):
        x = random_dense_even_rows(rng, n)
        grams[f"dense{n}_neg_scrambled"] = _scramble(
            rng, _block_sum(x, [[-v for v in row] for row in x]))
    seiferts = {f"genus{g}": random_seifert_rows(rng, g) for g in range(7, 13)}
    for name, rows in grams.items():
        (directory / f"{name}.json").write_text(json.dumps({"gram": rows}))
    for name, rows in seiferts.items():
        (directory / f"s_{name}.json").write_text(
            json.dumps({"seifert": rows}))
    return ([f"{name}.json" for name in grams],
            [f"s_{name}.json" for name in seiferts])


def _ops(grams, seiferts, rng):
    """The corpus as (subcommand, argv) pairs, in a fixed order."""
    ops = []
    for name in grams + ["missing.json", "badjson.json", "nogram.json",
                         "notsym.json"]:
        for cmd in ("analyze", "boundary", "diag", "disc", "gauss"):
            ops.append((cmd, [cmd, "--gram", name]))
        ops.append(("diag", ["diag", "--gram", name, "--approx"]))
        ops.append(("gauss", ["gauss", "--gram", name, "--approx"]))
    for name in ("a8neg.json", "a1x12.json", "d6_54_18.json",
                 "big_prime.json"):
        for bound in ("1", "8", "81", "4096"):
            ops.append(("analyze",
                        ["analyze", "--gram", name, "--bound-group", bound]))
            ops.append(("disc", ["disc", "--gram", name, "--bound-group",
                                 bound]))
            ops.append(("gauss", ["gauss", "--gram", name, "--bound-det",
                                  bound]))
    for name in seiferts + ["missing.json", "badjson.json", "a8neg.json"]:
        ops.append(("knot", ["knot", "--seifert", name]))
    triples = pretzel_window(7, 6)
    for p, q, r in rng.sample(triples, 120) + [(3, -3, 2), (2, 3, 4),
                                                (3, 5, 3), (1, 1, 0)]:
        ops.append(("pretzel", ["pretzel", str(p), str(q), str(r)]))
    for pq, r, m in ((5, 4, 3), (9, 10, 11), (15, 16, 15), (25, 24, 27),
                     (31, 12, 5), (1, 0, 1)):
        window = ["--pq", str(pq), "--r", str(r), "--m", str(m)]
        for flags in ([], ["--sign", "1"], ["--dedupe"],
                      ["--sign", "1", "--dedupe"], ["--verify"],
                      ["--sign", "1", "--verify"]):
            ops.append(("dioph", ["dioph", *flags, *window]))
    ops.append(("gauss", ["gauss", "--gram", "a8neg.json", "--jobs", "2"]))
    ops.append(("pretzel", ["pretzel", "3", "5"]))
    return ops


def _corpus(directory, rng):
    """Write every input into ``directory``; return the corpus' ops."""
    ops = _ops(*_write_inputs(directory, rng), rng)
    grams, seiferts = _write_large_inputs(directory, rng)
    for name in grams:
        for cmd in ("analyze", "disc"):
            ops.append((cmd, [cmd, "--gram", name]))
    for name in seiferts:
        ops.append(("knot", ["knot", "--seifert", name]))
    return ops


def _run(argv):
    """(exit code, stdout) of ``cli.main(argv)``; a usage error exits 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def build_corpus():
    """{"commands": {subcommand: sha256}, "ops": [[argv, digest], ...]} of
    the corpus, run in a fresh scratch directory."""
    rng = random.Random(SEED)
    commands, ops = {}, []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        corpus = _corpus(pathlib.Path(tmp), rng)
        os.chdir(tmp)
        try:
            for cmd, argv in corpus:
                code, stdout = _run(argv)
                record = f"{code}\n{stdout}".encode()
                commands.setdefault(cmd, hashlib.sha256()).update(record)
                ops.append([" ".join(argv),
                            hashlib.sha256(record).hexdigest()[:16]])
        finally:
            os.chdir(cwd)
    return {"commands": {k: h.hexdigest() for k, h in sorted(commands.items())},
            "ops": ops}


def test_cli_output_is_the_golden_corpus():
    want = json.loads(GOLDEN.read_text())
    got = build_corpus()
    assert sorted(got["commands"]) == ["analyze", "boundary", "diag", "dioph",
                                       "disc", "gauss", "knot", "pretzel"]
    assert [op for op, _ in got["ops"]] == [op for op, _ in want["ops"]]
    differ = [op for (op, a), (_, b) in zip(got["ops"], want["ops"]) if a != b]
    changed = sorted(k for k in got["commands"]
                     if got["commands"][k] != want["commands"][k])
    assert not differ and not changed, (
        f"{len(differ)} ops differ in {changed}, first: {differ[:1]}")


# Run in a child without site, so that nothing loads fractions first:
# prints how many of the ops on stdin ran before fractions was loaded.
NO_FRACTIONS = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from wittlink import cli
ops = json.load(sys.stdin)
done = 0
for argv in ops:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    if {"fractions", "decimal"} & set(sys.modules):
        break
    done += 1
print(done)
"""


def test_no_op_loads_fractions(tmp_path):
    """Every op of the corpus, all in one fresh interpreter, leaves
    fractions and decimal unloaded: the decisions and the reports of every
    command, diag's "num/den" strings too, run on integers only."""
    rng = random.Random(SEED)
    ops = [argv for _, argv in _corpus(tmp_path, rng)]
    assert len(ops) == 1322
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", NO_FRACTIONS,
                           str(src)], input=json.dumps(ops), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    done = int(proc.stdout)
    assert done == len(ops), \
        f"fractions or decimal loaded by: {' '.join(ops[done])}"


if __name__ == "__main__":
    corpus = build_corpus()
    GOLDEN.write_text(
        '{"commands": %s,\n"ops": [\n%s\n]}\n' % (
            json.dumps(corpus["commands"], indent=1),
            ",\n".join(map(json.dumps, corpus["ops"]))))
    print(f"{len(corpus['ops'])} ops written to {GOLDEN}", file=sys.stderr)
