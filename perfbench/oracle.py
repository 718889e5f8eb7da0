"""Correctness oracle for benchmark reports, run outside the timed region.

Every check here re-derives its answer from the report JSON and the
network text alone.  Certificates are re-verified with the program's own
exact checkers (``verify_embedding``, ``det_opt_condition``); numeric
witnesses are re-checked with an exact residual and Jacobian rank written
out below, independent of ``crnmss.massaction``.
"""

from __future__ import annotations

from fractions import Fraction

from corpus import Case, atom_networks, parse_text

CONCLUSIVE = ("MULTISTATIONARY", "NOT_MULTISTATIONARY", "NO_POSITIVE_STEADY_STATES")
FOUND, NOT_FOUND = "FOUND", "NOT_FOUND"
EXACT_RESIDUAL_TOL = Fraction(1, 10**8)

_ATOMS = {aid: set(rxns) for aid, rxns in atom_networks().items()}


def outcome(case: Case, report) -> tuple[str, str | None]:
    """(status, certificate kind) of a parsed report.

    ``witness --search`` prints a witness or ``null``; it maps to FOUND
    with kind ``rate-search`` or to NOT_FOUND.
    """
    if case.argv[0] == "witness":
        return (FOUND, "rate-search") if report is not None else (NOT_FOUND, None)
    cert = report["verdict"]["certificate"]
    return report["verdict"]["status"], cert["kind"] if cert else None


def is_conclusive(status: str) -> bool:
    return status in CONCLUSIVE or status == FOUND


class Oracle:
    def __init__(self, schema: dict, golden: dict | None):
        import jsonschema
        from crnmss import decide, embedding, network

        self._report = jsonschema.Draft202012Validator(schema)
        self._witness = jsonschema.Draft202012Validator(schema["properties"]["witness"])
        self._golden = golden
        self._decide, self._embedding, self._network = decide, embedding, network

    def check(self, case: Case, code: int, report) -> list[str]:
        """Every way the report is wrong, as messages; empty when correct."""
        validator = self._witness if case.argv[0] == "witness" else self._report
        if report is not None or case.argv[0] != "witness":
            errors = [f"schema: {e.message}" for e in validator.iter_errors(report)]
            if errors:
                return errors
        errors = []
        status, kind = outcome(case, report)
        want_code = 0 if is_conclusive(status) else 3
        if code != want_code:
            errors.append(f"exit code {code}, expected {want_code} for {status}")
        if case.expected is True and status not in ("MULTISTATIONARY", FOUND):
            errors.append(f"{status}, but the network is known to be multistationary")
        if case.expected is False and status not in CONCLUSIVE[1:]:
            errors.append(f"{status}, but the network is known not to be multistationary")
        if self._golden is not None:
            want = tuple(self._golden[case.id])
            if (status, kind) != want:
                errors.append(f"({status}, {kind}) differs from golden {want}")
        if kind == "atom-embedding":
            errors += self._check_atom_embedding(case, report["verdict"]["certificate"])
        elif kind == "det-opt":
            errors += self._check_det_opt(case, report["verdict"]["certificate"])
        witness = report if case.argv[0] == "witness" else report["witness"]
        if witness is not None:
            errors += check_witness(case.text, witness)
        return errors

    def _check_atom_embedding(self, case: Case, cert: dict) -> list[str]:
        atom = _ATOMS.get(cert["atom"])
        if atom is None or set(parse_text(cert["atom_network"])[1]) != atom:
            return [f"atom-embedding names an unknown atom {cert['atom']!r}"]
        emb, parse = self._embedding, self._network.parse_network
        witness = emb.EmbeddingWitness(tuple(cert["species_map"]), tuple(cert["reaction_map"]))
        if not emb.verify_embedding(parse(cert["atom_network"]), parse(case.text), witness):
            return ["atom-embedding certificate does not verify"]
        return []

    def _check_det_opt(self, case: Case, cert: dict) -> list[str]:
        # reaction indices point into the non-flow subnetwork, where the
        # determinant optimization enumerates its square embedded networks
        emb = self._embedding
        host = emb.non_flow_subnetwork(self._network.parse_network(case.text))
        index = {name: i for i, name in enumerate(host.species_names())}
        if not set(cert["species"]) <= index.keys():
            return ["det-opt certificate names species outside the network"]
        species = tuple(sorted(index[name] for name in cert["species"]))
        chosen = tuple(cert["reaction_indices"])
        reactions = tuple(emb.restrict_reaction(host.reactions[i], species) for i in chosen)
        if None in reactions:
            return ["det-opt certificate restricts a reaction to a trivial one"]
        sen = emb.SquareEmbeddedNetwork(host, chosen, species, reactions)
        if not self._decide.det_opt_condition(sen, [Fraction(e) for e in cert["eta"]]):
            return ["det-opt certificate does not verify"]
        return []


def _rank(matrix: list[list[Fraction]]) -> int:
    m = [row[:] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def check_witness(text: str, witness: dict) -> list[str]:
    """At least two reported states have exact residual below 1e-8 at the
    reported rational rates and a Jacobian of full stoichiometric rank."""
    names, reactions = parse_text(text)
    idx = {name: i for i, name in enumerate(names)}
    s = len(names)
    kappa = [Fraction(k) for k in witness["kappa"]]
    if len(kappa) != len(reactions):
        return [f"witness has {len(kappa)} rate constants for {len(reactions)} reactions"]
    expo = [[0] * s for _ in reactions]
    gamma = [[0] * s for _ in reactions]  # per reaction, product minus reactant
    for j, (a, b) in enumerate(reactions):
        for name, k in a:
            expo[j][idx[name]] += k
            gamma[j][idx[name]] -= k
        for name, k in b:
            gamma[j][idx[name]] += k
    dim = _rank([[Fraction(v) for v in col] for col in gamma])
    good = 0
    nr = len(reactions)
    for state in witness["states"]:
        x = [Fraction(v) for v in state]
        if len(x) != s or min(x) <= 0:
            continue
        rates = []
        for j in range(nr):
            rate = kappa[j]
            for i in range(s):
                rate *= x[i] ** expo[j][i]
            rates.append(rate)
        residual = max(abs(sum(rates[j] * gamma[j][i] for j in range(nr))) for i in range(s))
        if residual >= EXACT_RESIDUAL_TOL:
            continue
        jac = [
            [
                sum(rates[j] * expo[j][c] / x[c] * gamma[j][r] for j in range(nr))
                for c in range(s)
            ]
            for r in range(s)
        ]
        if _rank(jac) == dim:
            good += 1
    if good < 2:
        return [f"witness has {good} exact nondegenerate states, fewer than 2"]
    return []
