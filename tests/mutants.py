"""A committed catalogue of mutants of the package, and a serial runner.

Each mutant names one file under src/bihomlie/, one exact snippet in it,
the snippet's replacement, and the tests expected to kill it. The runner
copies src/, tests/ and pyproject.toml into a temporary directory, applies
one mutant there and runs its kill set with pytest, one mutant at a time.
Each pytest run is a child process under a wall-clock timeout and an
address-space limit set in that child only. A mutant is killed when every
test of its kill set fails or errors; "partly" lists the declared tests
that still pass. --suite runs every test instead (but this catalogue's own
check, which a mutated copy always fails) and lists those that fail.

    python tests/mutants.py              # every mutant, its kill set
    python tests/mutants.py A lam-twice  # the named mutants
    python tests/mutants.py --suite A    # every test, not the kill set

pytest does not collect this file. tests/test_mutants.py checks only that
every snippet occurs exactly once in its file, so a refactor that moves a
snippet updates this catalogue in the same change.
"""

import argparse
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 240
MEMORY_BYTES = 2 * 1024 ** 3

Mutant = namedtuple("Mutant", "name file snippet replacement kill_set why")

CERTIFICATE = "tests/test_certificate.py::"
DIGEST = "tests/test_digest.py::test_digest_of_every_result_is_pinned"

MUTANTS = (
    Mutant(
        "A", "derivations.py",
        "            x = nullspace_basis(_matrix(system, field))\n",
        "            x = nullspace_basis(_matrix(system, field))\n"
        "            if n >= 10 and (lam, mu, gamma) != (1, 1, 1) "
        "and len(x) > 1:\n"
        "                x = x[:-1]\n",
        (CERTIFICATE + "test_certificate_on_twisted_heisenberg_up_to_n17",),
        "drops the last nullspace vector of a solve at n >= 10 off (1,1,1)"),
    Mutant(
        "B", "derivations.py",
        "            x = nullspace_basis(_matrix(system, field))\n",
        "            x = nullspace_basis(_matrix(system, field))\n"
        "            if n >= 6 and (lam, mu, gamma) != (1, 1, 1) "
        "and len(x) > 1:\n"
        "                x = x[:-1]\n",
        (CERTIFICATE + "test_certificate_on_twisted_heisenberg_up_to_n17",
         DIGEST),
        "mutant A from n >= 6"),
    Mutant(
        "lam-twice", "derivations.py",
        "zip((lam * scale, -mu, -gamma),",
        "zip((2 * lam * scale, -mu, -gamma),",
        (CERTIFICATE + "test_certificate_on_the_pinned_samples",
         "tests/test_acceptance.py::test_criterion_1_catalog_table_replay"),
        "lam doubled in the solver's system only"),
    Mutant(
        "mu-gamma-swap", "derivations.py",
        "                [_pullback(constants, d, m) for d in basis],\n"
        "                [_pullback(constants, m, d) for d in basis])",
        "                [_pullback(constants, m, d) for d in basis],\n"
        "                [_pullback(constants, d, m) for d in basis])",
        ("tests/test_derivations.py::"
         "test_commutant_coordinates_match_dense_reference",
         "tests/test_acceptance.py::test_criterion_1_catalog_table_replay"),
        "the mu and gamma blocks swapped"),
    Mutant(
        "mu-argument-swap", "derivations.py",
        "                [_pullback(constants, d, m) for d in basis],\n",
        "                [{(j, i, s): v for (i, j, s), v in "
        "_pullback(constants, m, d).items()} for d in basis],\n",
        ("tests/test_derivations.py::"
         "test_commutant_coordinates_match_dense_reference",
         "tests/test_acceptance.py::test_criterion_1_catalog_table_replay"),
        "[m e_j, d e_i] for [d e_i, m e_j] in the mu block; the identity "
        "stays m-covariant, so only re-verification and the dense "
        "reference see it"),
    Mutant(
        "unreversed-nullspace", "linalg.py",
        "    r, pivots = rref(_matrix([row[::-1] for row in m.entries], "
        "m.field))\n"
        "    basis = []\n"
        "    for f in sorted(set(range(n)).difference(pivots), "
        "reverse=True):\n",
        "    r, pivots = rref(m)\n"
        "    basis = []\n"
        "    for f in sorted(set(range(n)).difference(pivots)):\n",
        (DIGEST, "tests/test_linalg.py::test_nullspace_basis_is_canonical"),
        "the textbook kernel basis, not in rref, wrapped as canonical"),
    Mutant(
        "kernel-vectors-swapped", "derivations.py",
        "            x = nullspace_basis(_matrix(system, field))\n",
        "            x = nullspace_basis(_matrix(system, field))\n"
        "            x[:2] = x[1::-1]\n",
        (DIGEST, "tests/test_cli_golden.py"),
        "the first two kernel vectors of a solve swapped"),
    Mutant(
        "jacobi-divmod-reversed", "algebra.py",
        "        j, k = divmod(jk, n)\n",
        "        k, j = divmod(jk, n)\n",
        ("tests/test_algebra.py::"
         "test_sparse_table_routes_match_dense_reference_on_random_tables",
         DIGEST),
        "the Jacobi table route reads inner(k,j) for inner(j,k), which moves "
        "each total from (i,j,k) to (i,k,j): seen only where the first "
        "violation has three distinct indices"),
    Mutant(
        "commutation-against-itself", "derivations.py",
        "dt, td = _image(d_cols, t_j), _image(t_cols, d_j)",
        "dt, td = _image(d_cols, t_j), _image(d_cols, t_j)",
        ("tests/test_derivations.py::"
         "test_count_members_matches_dimension_f2_f3",),
        "the membership kernel compares d t with itself, so it never "
        "checks that d commutes with the twists"),
    Mutant(
        "census-form-early", "derivations.py",
        "        ending[form[-1][0]].append((form[:-1], form[-1][1]))\n",
        "        ending[max(form[-1][0] - 1, 0)].append("
        "(form[:-1], form[-1][1]))\n",
        ("tests/test_derivations.py::test_census_matches_matrix_reference",),
        "each census form tested one entry before its last entry is set"),
    Mutant(
        "fitting-without-power", "structure.py",
        "    g = f ** f.rows\n",
        "    g = f\n",
        ("tests/test_structure.py::test_decompose_pinned_instances",),
        "decompose's Fitting split by ker f and im f, not their n-th powers"),
    Mutant(
        "complete-without-trace-form", "structure.py",
        "        return None, rank(Matrix(gram, field)) == 1\n",
        "        return None, True\n",
        ("tests/test_structure.py::"
         "test_decompose_irrational_spectrum_incomplete",),
        "decompose certifies a piece over Q without the trace form test"),
    Mutant(
        "table-route-drops-a-constant", "algebra.py",
        "        self._constants = _constants(table)\n",
        "        self._constants = _constants(table)\n"
        "        if self._constants:\n"
        "            del self._constants[max(self._constants)]\n",
        ("tests/test_algebra.py::"
         "test_sparse_table_routes_match_dense_reference_on_heisenberg",),
        "the field-valued constants lose their largest key; the int view "
        "keeps it, so the two routes disagree"),
    Mutant(
        "int-view-drops-a-constant", "algebra.py",
        "    rows = _sparse(plain_rows(row for plane in structure "
        "for row in plane)[1])\n",
        "    rows = _sparse(plain_rows(row for plane in structure "
        "for row in plane)[1])\n"
        "    last = max((i for i, r in enumerate(rows) if r), default=None)\n"
        "    if last is not None:\n"
        "        rows = (*rows[:last], rows[last][:-1], *rows[last + 1:])\n",
        ("tests/test_algebra.py::"
         "test_sparse_table_routes_match_dense_reference_on_heisenberg",),
        "the int view loses one constant; the field-valued constants keep "
        "it, so the two routes disagree"),
)


def occurrences(mutant):
    path = ROOT / "src" / "bihomlie" / mutant.file
    return path.read_text("utf-8").count(mutant.snippet)


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(mutant, suite=False):
    """(failed test ids, or None on a timeout or a stale snippet, and the
    seconds taken) of one mutant's kill set, or of every test."""
    with tempfile.TemporaryDirectory(prefix="bihomlie-mutant-") as tmp:
        tmp = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / "src" / "bihomlie" / mutant.file
        text = target.read_text("utf-8")
        if text.count(mutant.snippet) != 1:
            return None, 0.0
        target.write_text(text.replace(mutant.snippet, mutant.replacement),
                          "utf-8")
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE",
                 "-p", "no:cacheprovider",
                 *(["tests", "--ignore=tests/test_mutants.py"] if suite
                   else mutant.kill_set)],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S, preexec_fn=_limit_child)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    if done.returncode and not failed:
        failed = ["(pytest exit %d)" % done.returncode]
    return failed, time.perf_counter() - start


def survivors(mutant, failed):
    """The tests of the kill set that no failed id belongs to."""
    return [t for t in mutant.kill_set
            if not any(f == t or f.startswith((t + "::", t + "["))
                       for f in failed)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    parser.add_argument("--suite", action="store_true",
                        help="run every test and list those that fail")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error("unknown mutants: %s" % ", ".join(unknown))
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    alive = 0
    for m in chosen:
        failed, seconds = run(m, args.suite)
        if failed is None:
            verdict, notes = "stale/timeout", []
        elif args.suite:
            verdict, notes = ("killed" if failed else "survived"), failed
        else:
            notes = survivors(m, failed)
            verdict = "partly" if notes else "killed"
        alive += verdict != "killed"
        print("%-30s %-16s %6.1f s" % (m.name, verdict, seconds), flush=True)
        for note in notes:
            print("    " + note, flush=True)
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
