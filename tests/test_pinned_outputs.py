"""Pinned outputs: one sha256 digest per call set over the exact output of
every ``crnmss`` call in it, run in-process through ``cli.main``.

A verdict, certificate, note, error message or report layout that moves
on any call moves its digest.  The call sets:

* ``check_corpus``: the ``check --json --no-numeric`` calls of the atlas
  and sequestration benchmark corpora (560 per corpus seed);
* ``atoms_on_atlas``: ``atoms - --json`` on the 535 atlas networks, which
  lists every embedded atom with its species and reaction maps where
  ``check`` reports only the first;
* ``witness_fields``: the 12 witness corpus calls, hashed by their exact
  fields only (exit code, check verdict status, and of the witness found
  the number of states, the kappa strings and the nondegenerate and
  stability lists), since the states and residuals are floats;
* ``generate_info_atoms``: ``generate``, plain and ``--fully-open``, for
  atoms 1-11, G/Gbar/H with m, n <= 5 and K with m <= 3, n <= 6 (invalid
  members included), and ``info``/``atoms --json`` on each network
  printed;
* ``text_reports_and_errors``: ``check - --no-numeric`` in text mode on
  the seed-0 atlas and sequestration corpora, and invalid inputs: parse
  errors of each kind through every command that reads a network, empty
  input, a missing file, negative budgets, invalid family members, bad
  ``--kappa`` values and both witness mode errors.

The corpora come from ``perfbench/corpus.py``, loaded by file path.  A
change that moves an output on purpose moves its pin here, and records
the old and new digest in CHANGES.md.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from crnmss import cli

_spec = importlib.util.spec_from_file_location(
    "perfbench_corpus", Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
)
corpus = importlib.util.module_from_spec(_spec)
# dataclasses resolve the string annotations of corpus.Case through sys.modules
sys.modules[_spec.name] = corpus
_spec.loader.exec_module(corpus)


@pytest.fixture
def run(monkeypatch, tmp_path):
    """``run(argv, stdin)`` -> (exit code, stdout, stderr) of one call."""
    # the missing-file call names a relative path that must not exist
    monkeypatch.chdir(tmp_path)

    def run(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return run


# Each call set yields one JSON-serializable record per call, in a fixed order.


def check_corpus(run, seed):
    for workload in ("atlas", "sequestration"):
        for case in corpus.generate(workload, seed):
            yield [case.id, *run(case.argv, case.text)]


def atoms_on_atlas(run, seed):
    for case in corpus.generate("atlas", seed):
        yield [case.id, *run(["atoms", "-", "--json"], case.text)]


def witness_fields(run, seed):
    for case in corpus.generate("witness", seed):
        code, out, _ = run(case.argv, case.text)
        report, status = json.loads(out), None
        if case.argv[0] == "check":
            status, report = report["verdict"]["status"], report["witness"]
        found = None
        if report is not None:
            fields = ("kappa", "nondegenerate", "stability")
            found = [len(report["states"])] + [report[key] for key in fields]
        yield [case.id, code, status, found]


def generate_info_atoms(run):
    members = [["atom", str(i)] for i in range(1, 12)]
    members += [[f, str(m), str(n)] for f in ("G", "Gbar", "H") for m in range(1, 6) for n in range(1, 6)]
    members += [["K", str(m), str(n)] for m in range(1, 4) for n in range(1, 7)]
    for member in members:
        for extra in ([], ["--fully-open"]):
            argv = ["generate", *member, *extra]
            code, out, err = run(argv)
            yield [" ".join(argv), code, out, err]
            if code != 0:
                continue
            for command in ("info", "atoms"):
                sub = [command, "-", "--json"]
                yield [" ".join(argv + ["|"] + sub), *run(sub, out)]


def text_reports_and_errors(run):
    calls = []
    for workload in ("atlas", "sequestration"):
        for case in corpus.generate(workload, 0):
            calls.append((case.id, [a for a in case.argv if a != "--json"], case.text))
    parse_errors = [
        "A ->", "A + 0 -> B", "A -> B-C", "0 A -> B", "600000000 A + 600000000 A -> B",
        "A -> A", "A <-> A", "A -> B\nA -> B", "A B", "A -> B -> C", "A <-> B <-> C",
        "", "# nothing\n\n",
    ]
    for text in parse_errors:
        for command in (["check", "-"], ["info", "-"], ["atoms", "-"], ["witness", "-", "--search"]):
            calls.append(("parse", command, text))
    rates = "0 <-> A\n2 A -> 3 A\n"
    calls.append(("missing", ["check", "no-such-network.txt"], ""))
    calls.append(("budget", ["check", "-", "--budget", "-1"], rates))
    calls.append(("budget", ["check", "-", "--budget", "-1", "--no-numeric"], rates))
    calls.append(("budget", ["witness", "-", "--search", "--budget", "-1"], rates))
    for member in (["atom", "0"], ["atom", "12"], ["atom", "1", "2"], ["G", "2", "2"], ["G", "2"],
                   ["Gbar", "3", "3"], ["H", "1", "1"], ["H", "0", "2"], ["K", "1", "1"], ["K", "2"]):
        calls.append(("family", ["generate", *member], ""))
    for kappa in (["1", "1"], ["1", "1", "1", "1"], ["1", "0", "1"], ["1", "-1", "1"], ["1", "-0.5", "1"],
                  ["1", "1", "1e400"], ["1", "1", "1e-400"], ["1", "abc", "1"], ["1", "1", "nan"],
                  ["1", "1", "inf"]):
        calls.append(("kappa", ["witness", "-", "--kappa", *kappa], rates))
    calls.append(("mode", ["witness", "-"], rates))
    calls.append(("mode", ["witness", "-", "--kappa", "1", "1", "1", "--search"], rates))
    for cid, argv, text in calls:
        yield [cid, " ".join(argv), *run(argv, text)]


# (call set, its arguments after run, records, sha256 over the records)
PINS = [
    (check_corpus, (0,), 560, "3f47559e7ab4a5b4c5a9e2c35e3738555c18233f93656e54e774c3a7c452cb90"),
    (check_corpus, (1,), 560, "17b5a6915b4f937d94045232fb8aac91d174357763eec1fa948ae64eea9de44d"),
    (atoms_on_atlas, (0,), 535, "16f1d339007597e4cc2f80af741c304f64e23d0a084848578538f75ada9977c6"),
    (atoms_on_atlas, (1,), 535, "6f40eab7a4971387af0576b995b54de3e475763d7d28239a04b515e1acb8d2e0"),
    (witness_fields, (0,), 12, "77840b223a262c45754ed52ce185185e2dfdc567ec2d61d3ba9ae4a9f0b5fd80"),
    (witness_fields, (1,), 12, "77ef073dfd50df21082f48a31d138c0ab8387375c21e5ce2306eeb9233cef2a6"),
    (generate_info_atoms, (), 568, "e58bfed31ab26b60a9dd63003b5b09885da1b3105aade247dcb5989b2df65ed4"),
    (text_reports_and_errors, (), 638, "dd272f0124dc71e8fda46831a533d4d723ca46cafeebc53f125535c4a9094302"),
]


@pytest.mark.parametrize(
    "call_set, args, records, sha256",
    PINS,
    ids=[call_set.__name__ + "".join(f"-seed{seed}" for seed in args) for call_set, args, *_ in PINS],
)
def test_pinned_output(run, call_set, args, records, sha256):
    digest, count = hashlib.sha256(), 0
    for record in call_set(run, *args):
        digest.update(json.dumps(record).encode())
        count += 1
    assert (count, digest.hexdigest()) == (records, sha256)
