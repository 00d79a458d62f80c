"""Byte-for-byte CLI output on fixture algebras.

Each case runs one subcommand with ``--output records`` and compares the
whole of standard output with ``tests/golden/<case>.txt``. The fixtures are
the catalog's L_1^10 over the rationals and a 3-dimensional twisted
Heisenberg algebra reduced mod 3, on every subcommand; a 5-dimensional
twisted Heisenberg algebra over the rationals, with pairwise distinct twist
eigenvalues, under ``structure`` and ``fingerprint``; and three
non-algebras under ``check`` alone, each failing one axiom first (skew,
Jacobi, multiplicativity), which pins the indices of the first violation.
After a deliberate output change, rewrite the expected files with

    PYTHONPATH=src python3 tests/test_cli_golden.py [CASE ...]

which rewrites only the named cases, or every case when none is named.
"""

import contextlib
import io
import os
import sys

import pytest

from bihomlie.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FIXTURES = {"q": "l_1_10.json", "f3": "heis3_mod3.json"}


def _per_fixture(tag, path):
    return [
        ("%s_check" % tag, ["check", path], 0),
        ("%s_der_k1_l1" % tag, ["der", path, "--k", "1", "--l", "1"], 0),
        ("%s_der_normalize" % tag,
         ["der", path, "--lambda", "2", "--mu", "3", "--gamma", "1",
          "--normalize"], 0),
        ("%s_structure" % tag, ["structure", path], 0),
        ("%s_fingerprint" % tag, ["fingerprint", path], 0),
        ("%s_iso_brute" % tag, ["iso", path, path, "--brute", "3"], 0),
    ]


CASES = [case for tag, name in FIXTURES.items()
         for case in _per_fixture(tag, os.path.join(GOLDEN, name))]
CASES.extend(("h5_%s" % command,
              [command, os.path.join(GOLDEN, "twisted_heis5.json")], 0)
             for command in ("structure", "fingerprint"))
CASES.append(("catalog_l_1_13", ["catalog", "--entry", "L_1^13"], 0))
CASES.append(("catalog_l_1_13_k1_l2",
              ["catalog", "--entry", "L_1^13", "--kmax", "1", "--lmax", "2"],
              0))
CASES.extend(("%s_check" % name,
              ["check", os.path.join(GOLDEN, name + ".json")], 1)
             for name in ("skew_fail", "jacobi_fail", "mult_fail"))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--output", "records"])
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv,expected_code", CASES,
                         ids=[case[0] for case in CASES])
def test_records_output_is_byte_identical(name, argv, expected_code):
    code, out = _run(argv)
    assert code == expected_code
    with open(os.path.join(GOLDEN, name + ".txt"), encoding="utf-8",
              newline="") as fh:
        assert out == fh.read()


if __name__ == "__main__":
    names = set(sys.argv[1:])
    unknown = names - {case[0] for case in CASES}
    if unknown:
        sys.exit("unknown cases: %s" % ", ".join(sorted(unknown)))
    for name, argv, _ in CASES:
        if names and name not in names:
            continue
        code, out = _run(argv)
        with open(os.path.join(GOLDEN, name + ".txt"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(out)
        print("%s: exit %d, %d lines" % (name, code, out.count("\n")),
              file=sys.stderr)
