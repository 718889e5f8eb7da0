"""Mutant table: one-line changes to the decision rules, the exact
primitives, the searches and the command outputs, each with a tier-1 test
that must fail on it.

    python tests/mutants.py [MUTANT_NAME ...]

Run it from the root of a source checkout.  For each row (all rows, or
those named) the script copies ``src/``, ``tests/``, ``perfbench/`` (read
by the pinned-output tests, never mutated) and ``pyproject.toml`` to a
temporary directory, asserts that the row's old text occurs exactly
once in its file, applies the mutant there and runs the row's test with
pytest on the copy.  A mutant is killed when pytest reports a failed
test (exit code 1).  It survives when the test passes; any other exit
code (a collection error, or a test id that names nothing) is an error,
since it would not show that the test catches the mutant.  The script
prints one line per row and exits 1 when any mutant survived or erred,
2 when a name given matches no row.  A row's test must pass on the
unmutated source, which tier-1 checks.

Tier-1 does not collect this file: its name does not start with
``test_``.  Most rows take a few seconds, most of it pytest start-up.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout root
    old: str  # must occur exactly once in ``path``
    new: str
    test: str  # a pytest node id that must fail on the mutant


DECIDE, EMBEDDING = "src/crnmss/decide.py", "src/crnmss/embedding.py"
WITNESS = "src/crnmss/witness.py"

MUTANTS = [
    # the decision rules
    Mutant(
        "det-opt checker accepts a zero species total",
        DECIDE,
        "        if total <= 0:",
        "        if total < 0:",
        "tests/test_decide.py::test_determinant_optimization_sequestration",
    ),
    Mutant(
        "row rule takes only strictly signed rows",
        DECIDE,
        "(min(row) >= 0 or max(row) <= 0)",
        "(min(row) > 0 or max(row) < 0)",
        "tests/test_decide.py::test_structure_decides_positive_dependence_without_the_lp",
    ),
    Mutant(
        "deficiency one allows a class deficiency of two",
        DECIDE,
        "if any(d > 1 for d in report.per_class):",
        "if any(d > 2 for d in report.per_class):",
        "tests/test_cli.py::test_schema_lists_exactly_the_certificate_kinds_the_stages_emit",
    ),
    Mutant(
        "positive dependence taken to hold for every CFSTR",
        DECIDE,
        "    if facts.fully_open or facts.deficiency.weakly_reversible:",
        "    if facts.cfstr or facts.deficiency.weakly_reversible:",
        "tests/test_cli.py::test_schema_lists_exactly_the_certificate_kinds_the_stages_emit",
    ),
    Mutant(
        "deficiency one without the class-sum check",
        DECIDE,
        "    if sum(report.per_class) != report.total:",
        "    if False:",
        "tests/test_acceptance.py::test_criterion_1_introductory_regressions",
    ),
    Mutant(
        "one-reaction formula counts species the reaction leaves unchanged",
        DECIDE,
        "if bi > ai)",
        "if bi >= ai)",
        "tests/test_families.py::test_expected_verdicts_agree_with_analyze",
    ),
    Mutant(
        "one-reaction formula without the reversible clause",
        DECIDE,
        "    mss = forward > 1 or (reversible and backward > 1)",
        "    mss = forward > 1",
        "tests/test_lift_oracle.py::test_no_verdict_denies_what_an_embedded_network_lifts",
    ),
    Mutant(
        "atom database tries G(m,m)",
        DECIDE,
        "            if 2 <= m < n:",
        "            if 2 <= m <= n:",
        "tests/test_decide.py::test_atom_db_matches_equal_the_full_database_search",
    ),
    Mutant(
        "atom database skips H(m,2)",
        DECIDE,
        "            if m >= 2 and n >= 2:",
        "            if m >= 2 and n >= 3:",
        "tests/test_decide.py::test_atom_db_matches_equal_the_full_database_search",
    ),
    Mutant(
        "minors route calls a zero minor product not injective",
        DECIDE,
        "        if value == 0:\n            continue\n",
        '        if value == 0:\n            return InjectivityReport("not-injective")\n',
        "tests/test_acceptance.py::test_criterion_6_injectivity_route_equivalence",
    ),
    Mutant(
        "CFSTR injectivity needs an orientation below -1",
        DECIDE,
        "if sen_is_relevant(sen)[0] and orientation(sen) < 0:",
        "if sen_is_relevant(sen)[0] and orientation(sen) < -1:",
        "tests/test_stage_soundness.py::test_no_two_stages_conflict_on_random_networks",
    ),
    # square embedded networks and their relevance
    Mutant(
        "relevance asks a total molecularity of two",
        EMBEDDING,
        "    if best < 3:",
        "    if best < 2:",
        "tests/test_embedding.py::test_relevance_conditions",
    ),
    Mutant(
        "relevance without the no-reactant clause",
        EMBEDDING,
        "        if not any(rxn.reactant.coeff(idx) != 0 for rxn in reactions):",
        "        if False:",
        "tests/test_embedding.py::test_relevance_conditions",
    ),
    Mutant(
        "SEN stream without its distinct-restrictions check",
        EMBEDDING,
        "            if len(set(restricted)) == k:",
        "            if True:",
        "tests/test_embedding.py::test_enumerate_sens_requires_distinct_restrictions",
    ),
    # the atom search
    Mutant(
        "atom search reads the highest set bit",
        EMBEDDING,
        "(m & -m).bit_length() - 1",
        "m.bit_length() - 1",
        "tests/test_embedding.py::test_find_embedding_matches_the_list_narrowing_search",
    ),
    Mutant(
        "atom search keeps the mask where the host has no such pair",
        EMBEDDING,
        "by_key.get(want, 0)",
        "by_key.get(want, m)",
        "tests/test_embedding.py::test_find_embedding_matches_the_list_narrowing_search",
    ),
    # structure and exact linear algebra
    Mutant(
        "deficiency applies with more terminal classes than linkage classes",
        "src/crnmss/structure.py",
        "applicable = len(strong) - len(exits) == l",
        "applicable = len(strong) - len(exits) >= l",
        "tests/test_cli.py::test_info_inapplicable_deficiency",
    ),
    Mutant(
        "rank without the gcd division",
        "src/crnmss/linalg.py",
        "rows[i] = [v // g for v in row] if g > 1 else row",
        "rows[i] = row",
        "tests/test_linalg.py::test_rank_rows_stay_within_the_hadamard_bound",
    ),
    # the witness search
    Mutant(
        "witness marks every state nondegenerate",
        WITNESS,
        "nondeg.append(rank_frac(exact_jac) == data.rank)",
        "nondeg.append(True)",
        "tests/test_witness.py::test_degenerate_double_root_flagged",
    ),
    Mutant(
        "witness without the exact-residual gate",
        WITNESS,
        "        if max(abs(v) for v in exact_res) >= EXACT_RESIDUAL_TOL:",
        "        if False:",
        "tests/test_witness.py::test_exact_residual_gate_drops_a_float_root_that_misses_it",
    ),
    Mutant(
        "damping: the first window starts at the last level taken",
        WITNESS,
        "        lo = np.zeros(len(work), dtype=np.intp)",
        "        lo = last[work].astype(np.intp)",
        "tests/test_witness.py::test_block_damping_matches_sequential_halving",
    ),
    Mutant(
        "damping windows grow twofold",
        WITNESS,
        "            hi = np.minimum(4 * lo + 3, len(HALVINGS))",
        "            hi = np.minimum(2 * lo + 1, len(HALVINGS))",
        "tests/test_witness.py::test_damping_windows_evaluate_the_rows_their_rule_names",
    ),
    # command outputs that only the pinned outputs read
    Mutant(
        "check --json indents by one space",
        "src/crnmss/cli.py",
        "print(json.dumps(report, indent=2))",
        "print(json.dumps(report, indent=1))",
        "tests/test_pinned_outputs.py::test_pinned_output[check_corpus-seed0]",
    ),
    Mutant(
        "the minors injectivity note reworded",
        DECIDE,
        '"injectivity fails: minor products of both signs exist"',
        '"injectivity fails: minor products of opposite signs exist"',
        "tests/test_pinned_outputs.py::test_pinned_output[check_corpus-seed0]",
    ),
    Mutant(
        "witness kappa strings rounded to denominators up to 10^9",
        WITNESS,
        '"kappa": [str(k) for k in self.kappa],',
        '"kappa": [str(k.limit_denominator(10**9)) for k in self.kappa],',
        "tests/test_pinned_outputs.py::test_pinned_output[witness_fields-seed0]",
    ),
]


def run(mutant: Mutant) -> tuple[str, float]:
    """The mutant's fate, "killed", "survived" or "error: ...", and the
    seconds its test took."""
    with tempfile.TemporaryDirectory(prefix="crnmss-mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"error: old text occurs {text.count(mutant.old)} times in {mutant.path}", 0.0
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(work / "src")}
        # an installed crnmss must not shadow the mutated copy
        where = subprocess.run(
            [sys.executable, "-c", "import crnmss; print(crnmss.__file__)"],
            cwd=work, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).is_relative_to(work):
            return f"error: crnmss imports from {where}, not from the copy", 0.0
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.test],
            cwd=work, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    if proc.returncode == 1:
        return "killed", seconds
    if proc.returncode == 0:
        return "survived", seconds
    last = (proc.stdout.strip().splitlines() or ["no output"])[-1]
    return f"error: pytest exit {proc.returncode}: {last}", seconds


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS}
    unknown = [name for name in argv if name not in names]
    if unknown:
        print("unknown mutants: " + "; ".join(unknown), file=sys.stderr)
        return 2
    rows = [m for m in MUTANTS if not argv or m.name in argv]
    bad = []
    for mutant in rows:
        fate, seconds = run(mutant)
        print(f"{fate:>8}  {seconds:5.1f} s  {mutant.name}  [{mutant.test}]", flush=True)
        if fate != "killed":
            bad.append(mutant.name)
    print(f"{len(rows) - len(bad)} of {len(rows)} mutants killed")
    if bad:
        print("not killed: " + "; ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
