"""Tests for the command line interface."""

import argparse
import io
import json
import sys
import warnings
from importlib import resources

import jsonschema
import pytest

from crnmss.cli import main
from crnmss.decide import LimitExceeded, _numeric_stage, analyze, network_facts
from crnmss.embedding import fully_open_extension
from crnmss.families import FamilySpec, generate, load_atom
from crnmss.network import parse_network, render_network


def write_net(tmp_path, text):
    path = tmp_path / "net.txt"
    path.write_text(text + "\n")
    return str(path)


def report_schema():
    raw = resources.files("crnmss").joinpath("data/report-schema.json").read_text()
    return json.loads(raw)


def test_info_text(tmp_path, capsys):
    assert main(["info", write_net(tmp_path, "A <-> B")]) == 0
    out = capsys.readouterr().out
    assert "species: 2 (A, B)" in out
    assert "deficiency: 0" in out
    assert "weakly reversible: yes" in out
    assert "fully open: no" in out


def test_info_json(tmp_path, capsys):
    path = write_net(tmp_path, "2 A <-> A + B\nB <-> A")
    assert main(["info", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["network"] == "2 A -> A + B\nA + B -> 2 A\nB -> A\nA -> B"
    structure = data["structure"]
    assert structure["num_species"] == 2
    assert structure["num_complexes"] == 4
    assert structure["num_linkage_classes"] == 2
    assert structure["rank"] == 1
    assert structure["deficiency"] == 1
    assert structure["deficiency_per_class"] == [0, 0]
    assert structure["weakly_reversible"] is True


def test_info_inapplicable_deficiency(tmp_path, capsys):
    assert main(["info", write_net(tmp_path, "A -> B\nA -> C")]) == 0
    assert "deficiency: not applicable" in capsys.readouterr().out


def test_info_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("A -> B\n"))
    assert main(["info", "-"]) == 0
    assert "species: 2 (A, B)" in capsys.readouterr().out


def test_parse_error_exits_2(tmp_path, capsys):
    assert main(["info", write_net(tmp_path, "A -> ->")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "# nothing\n\n"])
@pytest.mark.parametrize(
    "argv",
    [["info", "-"], ["check", "-", "--no-numeric"], ["atoms", "-"], ["witness", "-", "--search"]],
)
def test_empty_input_exits_2(capsys, monkeypatch, argv, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the input holds no reaction\n"


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["info", str(tmp_path / "absent.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_not_multistationary_json(tmp_path, capsys):
    assert main(["check", write_net(tmp_path, "A <-> B"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, report_schema())
    assert report["verdict"]["status"] == "NOT_MULTISTATIONARY"
    assert report["verdict"]["certificate"]["kind"] == "deficiency-zero"
    assert report["witness"] is None


def test_info_and_check_on_a_1000_reaction_cycle(capsys, monkeypatch):
    # X0 -> X1 -> ... -> X999 -> X0; no time limit is asserted, but a
    # structure step that is quadratic or cubic in the size shows up here
    n = 1000
    cycle = "\n".join(f"X{i} -> X{(i + 1) % n}" for i in range(n))
    monkeypatch.setattr(sys, "stdin", io.StringIO(cycle))
    assert main(["info", "-", "--json"]) == 0
    structure = json.loads(capsys.readouterr().out)["structure"]
    assert structure["rank"] == n - 1
    assert structure["deficiency"] == 0
    assert structure["num_linkage_classes"] == 1
    assert structure["weakly_reversible"] is True
    monkeypatch.setattr(sys, "stdin", io.StringIO(cycle))
    assert main(["check", "-", "--no-numeric", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["structure"] == structure
    assert report["verdict"]["status"] == "NOT_MULTISTATIONARY"
    assert report["verdict"]["certificate"]["kind"] == "deficiency-zero"


def test_check_multistationary_json(tmp_path, capsys):
    net = fully_open_extension(generate(FamilySpec("K", 2, 3)))
    path = write_net(tmp_path, render_network(net))
    assert main(["check", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, report_schema())
    assert report["verdict"]["status"] == "MULTISTATIONARY"
    assert report["verdict"]["certificate"]["kind"] == "det-opt"
    assert report["structure"]["is_fully_open"] is True


def test_schema_lists_exactly_the_certificate_kinds_the_stages_emit():
    def fully_open(family, m, n):
        return fully_open_extension(generate(FamilySpec(family, m, n)))

    # one network per kind, each concluded by the stage that emits it; an
    # exact stage concludes on every atom, so the numeric stage runs alone
    nets = [
        parse_network("A <-> B"),
        fully_open("G", 1, 2),
        parse_network("0 -> 2 S2\n2 S2 + 2 S1 -> S2 + 2 S1"),
        fully_open("G", 3, 2),
        fully_open("K", 2, 3),
        load_atom(2),
        fully_open("G", 2, 3),
        parse_network("A -> 0"),
    ]
    verdicts = [analyze(net).verdict.to_json() for net in nets]
    atom = load_atom(1)
    verdicts.append(_numeric_stage(atom, network_facts(atom), 200, 0).verdict.to_json())
    verdict_schema = report_schema()["properties"]["verdict"]
    kinds = set()
    for verdict in verdicts:
        jsonschema.validate(verdict, verdict_schema)
        # certificates hold plain JSON values, so a round trip keeps them
        assert json.loads(json.dumps(verdict)) == verdict
        kinds.add(verdict["certificate"]["kind"])
    schema_kinds = verdict_schema["properties"]["certificate"]["anyOf"][1]["properties"]["kind"]
    assert len(kinds) == len(verdicts)
    assert kinds == set(schema_kinds["enum"])


def test_check_inconclusive_exits_3(tmp_path, capsys):
    # open in A only: injectivity fails but the lifting stages need a
    # fully open network, so nothing concludes
    path = write_net(tmp_path, "A -> 2 A\nA + B -> 0\n0 -> A\nA -> 0\n0 -> B")
    assert main(["check", path]) == 3
    out = capsys.readouterr().out
    assert "verdict: INCONCLUSIVE" in out

    assert main(["check", path, "--json"]) == 3
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, report_schema())
    assert report["verdict"]["certificate"] is None


def test_check_numeric_stage_exhausts_its_budget(capsys, monkeypatch):
    text = "0 <-> A\n0 <-> B\n0 <-> C\n2 A <-> A + B\nA + C <-> B + C\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["check", "-", "--budget", "2"]) == 3
    out = capsys.readouterr().out
    assert "verdict: INCONCLUSIVE" in out
    assert out.endswith("  - numeric search found no multiple steady states within budget 2\n")


def test_check_text_prints_a_multiline_certificate_value_indented(tmp_path, capsys):
    path = write_net(tmp_path, render_network(load_atom(2)))
    assert main(["check", path, "--no-numeric"]) == 0
    out = capsys.readouterr().out
    atom_lines = "".join(f"    {line}\n" for line in render_network(load_atom(2)).splitlines())
    assert "certificate: atom-embedding\n  atom: 2rxn-2\n  atom_network:\n" + atom_lines in out
    assert "  species_map: [0, 1]\n" in out


def test_check_text_prints_the_numeric_witness(capsys, monkeypatch):
    # with no exact stage, atom 1 concludes in the numeric stage
    monkeypatch.setattr("crnmss.decide.STAGES", {})
    monkeypatch.setattr(sys, "stdin", io.StringIO(render_network(load_atom(1))))
    assert main(["check", "-", "--budget", "5"]) == 0
    out = capsys.readouterr().out
    assert "certificate: numeric-witness\n  states: 2\n  nondegenerate_states: 2\n" in out
    # no stage left a note, so the witness closes the report
    kappa, states, *rows = out.splitlines()[-4:]
    assert kappa.startswith("kappa: ") and len(kappa.split(", ")) == 6
    assert states == "states: 2"
    assert all(row.startswith("  [") and "nondegenerate" in row for row in rows)


def test_witness_fully_open_flag_searches_the_extension(capsys, monkeypatch):
    text = "A -> 2 A\nA + B -> 0"
    extension = render_network(fully_open_extension(parse_network(text)))
    outputs = []
    for stdin, flags in ((text, ["--fully-open"]), (extension, [])):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(["witness", "-", "--search", "--budget", "5", *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "states: 2" in outputs[0]


def test_check_fully_open_flag(tmp_path, capsys):
    path = write_net(tmp_path, "2 A -> 3 A")
    assert main(["check", path, "--fully-open"]) == 0
    out = capsys.readouterr().out
    assert "0 -> A" in out
    assert "verdict: MULTISTATIONARY" in out
    assert "certificate: one-reaction-formula" in out


def test_atoms_match(tmp_path, capsys):
    path = write_net(tmp_path, render_network(load_atom(7)))
    assert main(["atoms", path]) == 0
    assert "atom 2rxn-7: species map A->A, B->B" in capsys.readouterr().out

    assert main(["atoms", path, "--json"]) == 0
    matches = json.loads(capsys.readouterr().out)
    assert any(m["atom"] == "2rxn-7" for m in matches)
    match = next(m for m in matches if m["atom"] == "2rxn-7")
    assert match["species_map"] == [0, 1]
    assert "A -> A + B" in match["atom_network"]

    assert main(["atoms", path, "--first"]) == 0
    out = capsys.readouterr().out
    assert out.count("species map") == 1


def test_atoms_no_match_exits_3(tmp_path, capsys):
    net = fully_open_extension(parse_network("A <-> B"))
    path = write_net(tmp_path, render_network(net))
    assert main(["atoms", path]) == 3
    assert "no known multistationary atom embeds" in capsys.readouterr().out
    assert main(["atoms", path, "--json"]) == 3
    assert json.loads(capsys.readouterr().out) == []


def test_generate_family(capsys):
    assert main(["generate", "G", "2", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0 -> A\nA -> 0\n2 A -> 3 A"

    assert main(["generate", "K", "2", "3", "--fully-open"]) == 0
    out = capsys.readouterr().out
    assert "X1 -> 2 X3" in out
    assert "0 -> X1" in out


def test_generate_atom(capsys):
    assert main(["generate", "atom", "7"]) == 0
    assert capsys.readouterr().out.strip() == render_network(load_atom(7))


def test_generate_missing_parameter_exits_2(capsys):
    assert main(["generate", "G", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_generate_atom_with_a_second_parameter_exits_2(capsys):
    assert main(["generate", "atom", "3", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family atom takes one parameter m\n"


def test_witness_kappa_json(tmp_path, capsys):
    net = fully_open_extension(parse_network("A <-> B"))
    path = write_net(tmp_path, render_network(net))
    args = ["witness", path, "--kappa", "1", "1", "2", "2", "3", "5", "--json"]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, report_schema()["properties"]["witness"])
    assert data["kappa"] == ["1", "1", "2", "2", "3", "5"]
    assert len(data["states"]) == 1
    assert abs(data["states"][0][0] - 15 / 17) < 1e-9
    assert abs(data["states"][0][1] - 11 / 17) < 1e-9
    assert data["stability"] == ["stable"]


def test_witness_accepts_rational_kappa(tmp_path, capsys):
    net = generate(FamilySpec("G", 2, 3))
    path = write_net(tmp_path, render_network(net))
    assert main(["witness", path, "--kappa", "1", "3/1", "1"]) == 0
    out = capsys.readouterr().out
    assert "states: 2" in out
    assert "nondegenerate, stable" in out
    assert "nondegenerate, unstable" in out


def test_witness_flag_exclusivity(tmp_path, capsys):
    path = write_net(tmp_path, "0 -> A\nA -> 0\n2 A -> 3 A")
    assert main(["witness", path]) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert main(["witness", path, "--kappa", "1", "1", "1", "--search"]) == 2
    assert capsys.readouterr().err == "error: pass exactly one of --kappa or --search\n"


def test_main_reuses_one_parser_without_carry_over(tmp_path, capsys, monkeypatch):
    def no_new_parser(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_new_parser)
    path = write_net(tmp_path, "0 -> A\nA -> 0\n2 A -> 3 A")
    assert main(["witness", path, "--kappa", "1", "1", "1"]) == 0
    assert "kappa: 1, 1, 1" in capsys.readouterr().out
    # --kappa from the first call must not reach the second
    assert main(["witness", path, "--search", "--budget", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "no multistationary rates found within budget 0\n"
    assert captured.err == ""


def test_witness_kappa_validation(tmp_path, capsys):
    path = write_net(tmp_path, "0 -> A\nA -> 0\n2 A -> 3 A")
    assert main(["witness", path, "--kappa", "1", "1"]) == 2
    assert "expected 3 rate constants" in capsys.readouterr().err
    assert main(["witness", path, "--kappa", "1", "abc", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rate constant 2 is not a rational number: 'abc'\n"
    for text in ("nan", "inf"):
        assert main(["witness", path, "--kappa", "1", "1", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: rate constant 3 is not a rational number: '{text}'\n"
    assert main(["witness", path, "--kappa", "1", "0", "1"]) == 2
    capsys.readouterr()
    assert main(["witness", path, "--kappa", "1", "1", "1e400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: rate constant 3 does not fit a float" in captured.err
    assert main(["witness", path, "--kappa", "1", "1", "1e-400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: rate constant 3 does not fit a float" in captured.err


def test_main_returns_the_argparse_exit_status(tmp_path, capsys):
    path = write_net(tmp_path, "0 -> A\nA -> 0\n2 A -> 3 A")
    # argparse reads -2/3 as an option; its own usage message stays
    assert main(["witness", path, "--kappa", "1", "-2/3", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: crnmss ")
    assert captured.err.endswith("crnmss: error: unrecognized arguments: -2/3 1\n")
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: crnmss ")


def test_witness_names_a_rate_that_is_not_a_rational_number(tmp_path, capsys):
    path = write_net(tmp_path, "0 -> A\nA -> 0\n2 A -> 3 A")
    assert main(["witness", path, "--kappa", "1", "1", "1/0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rate constant 3 is not a rational number: '1/0'\n"


def test_witness_overflowing_trials_stay_silent(tmp_path, capsys):
    path = write_net(tmp_path, "0 <-> A\n200 A -> 201 A")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["witness", path, "--kappa", "1", "1", "1"]) == 0
    assert "states: 0" in capsys.readouterr().out


def test_witness_search_finds_states(tmp_path, capsys):
    path = write_net(tmp_path, "0 -> A\nA -> 0\n2 A -> 3 A")
    assert main(["witness", path, "--search", "--budget", "3000"]) == 0
    assert "states: 2" in capsys.readouterr().out


def test_witness_search_exhausted_exits_3(tmp_path, capsys):
    net = fully_open_extension(parse_network("A <-> B"))
    path = write_net(tmp_path, render_network(net))
    assert main(["witness", path, "--search", "--budget", "40"]) == 3
    assert "no multistationary rates found" in capsys.readouterr().out
    assert main(["witness", path, "--search", "--budget", "40", "--json"]) == 3
    assert json.loads(capsys.readouterr().out) is None


def test_witness_negative_budget_exits_2(tmp_path, capsys):
    path = write_net(tmp_path, "0 -> A\nA -> 0\n2 A -> 3 A")
    assert main(["witness", path, "--search", "--budget", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget must be non-negative" in captured.err


def test_check_negative_budget_exits_2(capsys, monkeypatch):
    # deficiency one concludes before the numeric stage could see the budget
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 A <-> A + B\nA + B <-> 2 B\n"))
    assert main(["check", "-", "--no-numeric", "--budget", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget must be non-negative" in captured.err


@pytest.mark.parametrize(
    "text",
    [
        # CFSTR: the square embedded network scan
        render_network(fully_open_extension(generate(FamilySpec("K", 2, 3)))),
        # not a CFSTR: the minors scan, 1 species subset and C(4,2) = 6 reaction pairs
        "A + B -> 2 A\nA -> B\nB -> 0\n0 -> A",
    ],
)
def test_injectivity_work_bound_exits_4(tmp_path, capsys, monkeypatch, text):
    path = write_net(tmp_path, text)
    assert main(["check", path, "--no-numeric"]) in (0, 3)
    capsys.readouterr()
    monkeypatch.setattr("crnmss.embedding.WORK_LIMIT", 2)
    assert main(["check", path, "--no-numeric"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: injectivity:" in captured.err
    assert "work bound 2" in captured.err


def test_det_opt_work_bound_names_its_stage(tmp_path, capsys, monkeypatch):
    # atom 1 on X1, X2 plus Xi + Xj -> X6 for the pairs of X1..X5, fully
    # open: injectivity stops at its first SEN after 7 units of work, while
    # det-opt forms 1 + C(12, 6) = 925 units and finds no certificate
    pairs = [f"X{i} + X{j} -> X6" for i in range(1, 6) for j in range(i + 1, 6)]
    net = fully_open_extension(parse_network("\n".join(["X1 -> 2 X1", "X1 + X2 -> 0"] + pairs)))
    path = write_net(tmp_path, render_network(net))
    assert main(["check", path, "--no-numeric"]) == 0
    assert "certificate: atom-embedding" in capsys.readouterr().out
    monkeypatch.setattr("crnmss.embedding.WORK_LIMIT", 100)
    assert main(["check", path, "--no-numeric"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: det-opt: ")
    assert captured.err.rstrip().endswith("work bound 100")


def test_limit_exceeded_exits_4(tmp_path, capsys, monkeypatch):
    def boom(net, **options):
        raise LimitExceeded("enumeration too large")

    monkeypatch.setattr("crnmss.cli.analyze", boom)
    assert main(["check", write_net(tmp_path, "A <-> B")]) == 4
    assert "error: enumeration too large" in capsys.readouterr().err
