"""Command line front end.

Subcommands: info, check, atoms, generate, witness.  Exit codes:
0 success, 2 input error, 3 an INCONCLUSIVE check, no embedded atom for
atoms, or no rates found by witness --search, 4 an enumeration exceeded
its work bound (the message names the stage).  witness --kappa exits 0
on valid input even when it finds no steady state.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .decide import (
    INCONCLUSIVE,
    LimitExceeded,
    NetworkFacts,
    analyze,
    atom_db_matches,
    network_facts,
)
from .embedding import fully_open_extension
from .families import FamilySpec, generate
from .network import ParseError, ReactionNetwork, parse_network, render_network
from .witness import rate_search, witness_search

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3
EXIT_LIMIT = 4


def _read_network(path: str) -> ReactionNetwork:
    if path == "-":
        net = parse_network(sys.stdin.read())
    else:
        with open(path, "r", encoding="utf-8") as handle:
            net = parse_network(handle.read())
    if net.num_reactions == 0:
        raise ParseError("the input holds no reaction")
    return net


def structural_summary(net: ReactionNetwork, facts: NetworkFacts) -> dict:
    report = facts.deficiency
    return {
        "species": list(net.species_names()),
        "num_species": net.num_species,
        "num_reactions": net.num_reactions,
        "num_complexes": report.num_complexes,
        "num_linkage_classes": report.num_linkage_classes,
        "rank": report.rank,
        "deficiency": report.total,
        "deficiency_per_class": list(report.per_class) if report.per_class is not None else None,
        "deficiency_applicable": report.applicable,
        "weakly_reversible": report.weakly_reversible,
        "is_cfstr": facts.cfstr,
        "is_fully_open": facts.fully_open,
    }


def _print_structure(summary: dict) -> None:
    print(f"species: {summary['num_species']} ({', '.join(summary['species'])})")
    print(f"reactions: {summary['num_reactions']}")
    print(f"complexes: {summary['num_complexes']}")
    print(f"linkage classes: {summary['num_linkage_classes']}")
    print(f"rank: {summary['rank']}")
    if summary["deficiency_applicable"]:
        print(
            f"deficiency: {summary['deficiency']} "
            f"(per class: {summary['deficiency_per_class']})"
        )
    else:
        print("deficiency: not applicable")
    print(f"weakly reversible: {'yes' if summary['weakly_reversible'] else 'no'}")
    print(f"cfstr: {'yes' if summary['is_cfstr'] else 'no'}")
    print(f"fully open: {'yes' if summary['is_fully_open'] else 'no'}")


def cmd_info(args) -> int:
    net = _read_network(args.path)
    summary = structural_summary(net, network_facts(net))
    if args.json:
        print(json.dumps({"network": render_network(net), "structure": summary}, indent=2))
        return EXIT_OK
    print("network:")
    for line in render_network(net).splitlines():
        print(f"  {line}")
    _print_structure(summary)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.budget < 0:
        raise ValueError(f"budget must be non-negative, got {args.budget}")
    net = _read_network(args.path)
    if args.fully_open:
        net = fully_open_extension(net)
    result = analyze(net, numeric=not args.no_numeric, budget=args.budget, seed=args.seed)
    verdict = result.verdict
    report = {
        "network": render_network(net),
        "structure": structural_summary(net, result.facts),
        "verdict": verdict.to_json(),
        "witness": result.witness.to_json() if result.witness is not None else None,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print("network:")
        for line in render_network(net).splitlines():
            print(f"  {line}")
        _print_structure(report["structure"])
        print(f"verdict: {verdict.status}")
        if verdict.certificate is not None:
            print(f"certificate: {verdict.certificate.get('kind')}")
            for key, value in verdict.certificate.items():
                if key == "kind":
                    continue
                if isinstance(value, str) and "\n" in value:
                    print(f"  {key}:")
                    for part in value.splitlines():
                        print(f"    {part}")
                else:
                    print(f"  {key}: {value}")
        if verdict.notes:
            print("notes:")
            for note in verdict.notes:
                print(f"  - {note}")
        if result.witness is not None:
            _print_witness(result.witness)
    return EXIT_OK if verdict.status != INCONCLUSIVE else EXIT_INCONCLUSIVE


def cmd_atoms(args) -> int:
    net = _read_network(args.path)
    matches = []
    for match in atom_db_matches(net):
        matches.append(match)
        if args.first:
            break
    if args.json:
        print(json.dumps([m.to_json() for m in matches], indent=2))
    elif not matches:
        print("no known multistationary atom embeds")
    else:
        names = list(net.species_names())
        for match in matches:
            mapped = ", ".join(
                f"{match.atom.species[i]}->{names[j]}"
                for i, j in enumerate(match.witness.species_map)
            )
            print(f"atom {match.atom_id}: species map {mapped}")
            for line in render_network(match.atom).splitlines():
                print(f"  {line}")
    return EXIT_OK if matches else EXIT_INCONCLUSIVE


def cmd_generate(args) -> int:
    if args.family == "atom":
        if args.n is not None:
            raise ValueError("family atom takes one parameter m")
        spec = FamilySpec("atom-2rxn", args.m)
    else:
        if args.n is None:
            raise ValueError(f"family {args.family} takes two parameters m and n")
        spec = FamilySpec(args.family, args.m, args.n)
    net = generate(spec)
    if args.fully_open:
        net = fully_open_extension(net)
    print(render_network(net))
    return EXIT_OK


def _print_witness(witness) -> None:
    print(f"kappa: {', '.join(str(k) for k in witness.kappa)}")
    print(f"states: {len(witness.states)}")
    for state, res, nondeg, stab in zip(
        witness.states, witness.residuals, witness.nondegenerate, witness.stability
    ):
        coords = ", ".join(f"{v:.6g}" for v in state)
        tag = "nondegenerate" if nondeg else "degenerate"
        print(f"  [{coords}]  {tag}, {stab}, residual {res:.2e}")


def _rate(index: int, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"rate constant {index} is not a rational number: {text!r}") from None


def cmd_witness(args) -> int:
    net = _read_network(args.path)
    if args.fully_open:
        net = fully_open_extension(net)
    if args.kappa is not None:
        if len(args.kappa) != net.num_reactions:
            raise ValueError(
                f"expected {net.num_reactions} rate constants, got {len(args.kappa)}"
            )
        kappa = [_rate(i, text) for i, text in enumerate(args.kappa, start=1)]
        witness = witness_search(net, kappa, seed=args.seed)
    else:
        witness = rate_search(net, budget=args.budget, seed=args.seed)
        if witness is None:
            if args.json:
                print(json.dumps(None))
            else:
                print(f"no multistationary rates found within budget {args.budget}")
            return EXIT_INCONCLUSIVE
    if args.json:
        print(json.dumps(witness.to_json(), indent=2))
    else:
        _print_witness(witness)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crnmss",
        description="Decide multistationarity of mass-action reaction networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="structural summary of a network file")
    p_info.add_argument("path", help="network file, or - for stdin")
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(func=cmd_info)

    p_check = sub.add_parser("check", help="run the full decision pipeline")
    p_check.add_argument("path", help="network file, or - for stdin")
    p_check.add_argument("--fully-open", action="store_true",
                         help="analyze the fully open extension")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--budget", type=int, default=200,
                         help="rate samples for the numeric stage (default 200)")
    p_check.add_argument("--no-numeric", action="store_true",
                         help="skip the numeric witness stage")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

    p_atoms = sub.add_parser("atoms", help="list known multistationary atoms embedded in a network")
    p_atoms.add_argument("path", help="network file, or - for stdin")
    p_atoms.add_argument("--json", action="store_true")
    p_atoms.add_argument("--first", action="store_true", help="stop at the first match")
    p_atoms.set_defaults(func=cmd_atoms)

    p_gen = sub.add_parser("generate", help="print a named family member")
    p_gen.add_argument("family", choices=["G", "Gbar", "H", "K", "atom"])
    p_gen.add_argument("m", type=int)
    p_gen.add_argument("n", type=int, nargs="?", default=None)
    p_gen.add_argument("--fully-open", action="store_true",
                       help="print the fully open extension")
    p_gen.set_defaults(func=cmd_generate)

    p_wit = sub.add_parser("witness", help="numeric steady-state search")
    p_wit.add_argument("path", help="network file, or - for stdin")
    p_wit.add_argument("--kappa", nargs="+", default=None,
                       help="rate constants (rationals), one per reaction")
    p_wit.add_argument("--search", action="store_true",
                       help="sample rate constants until multiple states appear")
    p_wit.add_argument("--fully-open", action="store_true",
                       help="search the fully open extension")
    p_wit.add_argument("--budget", type=int, default=10000)
    p_wit.add_argument("--seed", type=int, default=0)
    p_wit.add_argument("--json", action="store_true")
    p_wit.set_defaults(func=cmd_witness)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage or help; hand back its exit status
        return exc.code
    if args.command == "witness" and (args.kappa is None) == (not args.search):
        print("error: pass exactly one of --kappa or --search", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (OSError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
