"""Tests for the numeric steady-state search."""

import functools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnmss import witness
from crnmss.embedding import fully_open_extension
from crnmss.families import NUM_ATOMS, FamilySpec, generate, load_atom
from crnmss.network import parse_network
from crnmss.structure import stoich
from crnmss.witness import rate_search, witness_search
from helpers import random_network
from unipoly import family_polynomial, positive_root_count

GOLD_SMALL = 0.3819660112501051  # (3 - sqrt 5) / 2
GOLD_LARGE = 2.618033988749895  # (3 + sqrt 5) / 2


def test_requires_fully_open():
    with pytest.raises(ValueError):
        witness_search(parse_network("A -> B"), [1])
    with pytest.raises(ValueError):
        rate_search(parse_network("A -> B"))


def test_two_states_of_the_one_species_family():
    net = generate(FamilySpec("G", 2, 3))
    w = witness_search(net, [1, 3, 1])
    assert len(w.states) == 2
    assert abs(w.states[0][0] - GOLD_SMALL) < 1e-9
    assert abs(w.states[1][0] - GOLD_LARGE) < 1e-9
    assert all(r < 1e-10 for r in w.residuals)
    assert w.nondegenerate == (True, True)
    assert w.stability == ("stable", "unstable")
    assert w.count_nondegenerate() == 2


def test_exact_residual_gate_drops_a_float_root_that_misses_it():
    # at these rates float Newton converges to both roots, but only the
    # small one has an exact residual below EXACT_RESIDUAL_TOL (2.7e-10;
    # the large one's is 1.2e-8), so only it is kept
    net = parse_network("0 <-> A\n2 A -> 3 A")
    kappa = [10**8, 3 * 10**8, 10**8]
    data = stoich(net)
    found = witness._newton_all_starts(
        witness._default_starts(1, 0),
        np.array(data.reactant_matrix, dtype=float),
        np.array(data.stoich_matrix, dtype=float),
        np.array(kappa, dtype=float),
    )
    (small,), (large,) = witness._dedup(p for p in found if p is not None)
    assert abs(small - GOLD_SMALL) < 1e-9 and abs(large - GOLD_LARGE) < 1e-9
    w = witness_search(net, kappa)
    assert w.states == ((small,),)
    assert w.nondegenerate == (True,)


def test_unique_state_of_a_linear_network():
    net = fully_open_extension(parse_network("A <-> B"))
    w = witness_search(net, [1, 1, 2, 2, 3, 5])
    assert len(w.states) == 1
    a, b = w.states[0]
    assert abs(a - 15 / 17) < 1e-9
    assert abs(b - 11 / 17) < 1e-9
    assert w.nondegenerate == (True,)
    assert w.stability == ("stable",)


def test_explicit_starts_and_dedup():
    net = generate(FamilySpec("G", 2, 3))
    w = witness_search(net, [1, 3, 1], starts=[(0.4,), (0.38,), (0.41,)])
    # three starts in the same basin collapse to one state
    assert len(w.states) == 1
    assert abs(w.states[0][0] - GOLD_SMALL) < 1e-9


def test_degenerate_double_root_flagged():
    # 1 - 2a + a^2 = (1 - a)^2: double steady state at 1, singular Jacobian.
    # Starts away from 1 stall within Newton's linear-convergence radius of
    # the double root, so several nearby states can survive; the grid start
    # exactly at 1 must be among them, flagged degenerate and undetermined.
    net = generate(FamilySpec("G", 2, 3))
    w = witness_search(net, [1, 2, 1])
    assert all(abs(x[0] - 1.0) < 1e-4 for x in w.states)
    idx = w.states.index((1.0,))
    assert w.nondegenerate[idx] is False
    assert w.stability[idx] == "undetermined"


def test_to_json_shape():
    net = generate(FamilySpec("G", 2, 3))
    w = witness_search(net, [1, 3, 1])
    j = w.to_json()
    assert j["kappa"] == ["1", "3", "1"]
    assert len(j["states"]) == 2
    assert j["nondegenerate"] == [True, True]
    assert j["stability"] == ["stable", "unstable"]
    assert all(isinstance(v, float) for v in j["residuals"])


def test_sequestration_multistationary_rates():
    # regression: rounded rates found by seeded search give three
    # nondegenerate states of the fully open K(2, 3)
    net = fully_open_extension(generate(FamilySpec("K", 2, 3)))
    kappa = [
        Fraction(996),
        Fraction(173),
        Fraction(158, 10),
        Fraction(23),
        Fraction(23, 1000),
        Fraction(323, 10),
        Fraction(53, 1000),
        Fraction(43, 10000),
        Fraction(58, 100),
    ]
    w = witness_search(net, kappa)
    assert len(w.states) == 3
    assert w.count_nondegenerate() == 3
    assert w.stability == ("stable", "unstable", "stable")


def test_one_species_counts_match_sturm():
    rng = random.Random(61)
    for m, n in [(2, 3), (2, 5), (3, 4), (4, 5)]:
        net = generate(FamilySpec("G", m, n))
        for _ in range(25):
            kappa = tuple(
                Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)
            )
            count, simple = positive_root_count(
                family_polynomial("G", m, n, kappa)
            )
            if not simple:
                continue
            w = witness_search(net, kappa)
            assert len(w.states) == count


def test_rate_search_finds_bistable_rates():
    net = generate(FamilySpec("G", 2, 3))
    w = rate_search(net, budget=3000, seed=0)
    assert w is not None
    assert w.count_nondegenerate() >= 2
    poly = family_polynomial("G", 2, 3, w.kappa)
    assert positive_root_count(poly)[0] == len(w.states)


def test_rate_search_exhausts_budget_on_monostable_network():
    net = fully_open_extension(parse_network("A <-> B"))
    assert rate_search(net, budget=40, seed=1) is None


def test_rate_below_the_smallest_float_is_rejected():
    net = parse_network("0 <-> A\n2 A -> 3 A")
    with pytest.raises(ValueError, match="rate constant 3 does not fit a float"):
        witness_search(net, [1, 1, Fraction(1, 10**400)])
    with pytest.raises(ValueError, match="rate constants must be positive"):
        witness_search(net, [1, 1, 0])
    with pytest.raises(ValueError, match="rate constants must be positive"):
        witness_search(net, [1, 1, -Fraction(1, 10**400)])


@np.errstate(over="ignore", invalid="ignore")
def sequential_halving_newton(starts, exponents, gamma, rates, log=None):
    """The damping loop that tries one halving of t at a time.  If log is
    a list, it gets one entry per iteration: the number of active starts
    and, for each start that reaches the damping loop, the level it took
    (-1 for none)."""
    x = np.array(starts, dtype=float)
    n = len(x)
    alive = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    for _ in range(witness.MAX_NEWTON_ITERATIONS):
        active = np.where(alive & ~converged)[0]
        if active.size == 0:
            break
        taken = {}
        if log is not None:
            log.append((active.size, taken))
        f_act, mon_act = witness._rhs_batch(x[active], exponents, gamma, rates)
        res_act = np.max(np.abs(f_act), axis=1)
        done = res_act < witness.RESIDUAL_TOL
        converged[active[done]] = True
        work = active[~done]
        if work.size == 0:
            continue
        xw, fw, resw = x[work], f_act[~done], res_act[~done]
        jacs = witness._jac_batch(xw, mon_act[~done], exponents, gamma)
        steps, solvable = witness._solve_batch(jacs, -fw)
        alive[work[~solvable]] = False
        work, xw, steps, resw = (
            work[solvable],
            xw[solvable],
            steps[solvable],
            resw[solvable],
        )
        if work.size == 0:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            caps = np.where(steps < 0, -xw / steps, np.inf)
        t = np.minimum(1.0, 0.99 * caps.min(axis=1))
        accepted = np.zeros(len(work), dtype=bool)
        taken.update((int(i), -1) for i in work)
        for halving in range(witness.MAX_DAMPING_HALVINGS + 1):
            pending = np.where(~accepted)[0]
            if pending.size == 0:
                break
            trial = xw[pending] + t[pending, None] * steps[pending]
            positive = (trial > 0).all(axis=1)
            trial_safe = np.clip(trial, 1e-300, None)
            f_try, _ = witness._rhs_batch(trial_safe, exponents, gamma, rates)
            better = positive & (np.max(np.abs(f_try), axis=1) < resw[pending])
            good = pending[better]
            x[work[good]] = trial[better]
            accepted[good] = True
            taken.update((int(i), halving) for i in work[good])
            t[pending[~better]] /= 2
        alive[work[~accepted]] = False
    return [tuple(float(v) for v in x[i]) for i in np.where(converged)[0]]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_block_damping_matches_sequential_halving(seed):
    rng = random.Random(seed)
    net = fully_open_extension(random_network(rng, max_species=3, max_reactions=3))
    data = stoich(net)
    exponents = np.array(data.reactant_matrix, dtype=float)
    gamma = np.array(data.stoich_matrix, dtype=float)
    rates = np.array([10.0 ** rng.uniform(-3.0, 3.0) for _ in range(net.num_reactions)])
    starts = [
        tuple(10.0 ** rng.uniform(-2.0, 2.0) for _ in range(net.num_species))
        for _ in range(12)
    ]
    expected = sequential_halving_newton(starts, exponents, gamma, rates)
    found = witness._newton_all_starts(starts, exponents, gamma, rates)
    assert [x for x in found if x is not None] == expected


INTRO_2 = "0 <-> A\n0 <-> B\n0 <-> C\n2 A <-> A + B\nA + C <-> B + C"
TRAFFIC_SAMPLES = 3


@functools.cache
def benchmark_traffic():
    """Newton runs like those of the witness benchmark: each bundled atom
    (fully open) and intro-2 from the full start grid at the first rate
    samples of a seed-0 rate search, the samples in one batch.  Each run
    holds the batched inputs, the starts per sample, and per sample the
    sequential reference's converged points and log."""
    nets = [fully_open_extension(load_atom(i)) for i in range(1, NUM_ATOMS + 1)]
    runs = []
    for net in nets + [parse_network(INTRO_2)]:
        data = stoich(net)
        exponents = np.array(data.reactant_matrix, dtype=float)
        gamma = np.array(data.stoich_matrix, dtype=float)
        rng = random.Random(0)
        samples = np.array(
            [
                [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(net.num_reactions)]
                for _ in range(TRAFFIC_SAMPLES)
            ]
        )
        starts = witness._default_starts(net.num_species, 0)
        args = (starts * TRAFFIC_SAMPLES, exponents, gamma)
        rates = np.repeat(samples, len(starts), axis=0)
        reference = []
        for kappa in samples:
            log = []
            found = sequential_halving_newton(starts, exponents, gamma, kappa, log)
            reference.append((found, log))
        runs.append((args, rates, len(starts), reference))
    return runs


def relative_distance(a, b):
    scale = max(1.0, max(abs(v) for v in a), max(abs(v) for v in b))
    return max(abs(u - v) for u, v in zip(a, b)) / scale


def reference_dedup(states):
    """The greedy dedup as a loop over pairs of builtin floats."""
    kept = []
    for state in sorted(states):
        if all(relative_distance(state, other) >= witness.DEDUP_TOL for other in kept):
            kept.append(state)
    return kept


def planted_point(rng, p, ratio):
    """p with one coordinate moved so that its relative distance from p
    is, of the floats within 32 ulps of a first guess, the one nearest
    ratio * DEDUP_TOL."""
    j = rng.randrange(len(p))
    target = ratio * witness.DEDUP_TOL
    guess = p[j] + rng.choice([-1.0, 1.0]) * target * max(1.0, max(abs(v) for v in p))
    candidates = [guess]
    for direction in (np.inf, -np.inf):
        c = guess
        for _ in range(32):
            c = np.nextafter(c, direction).item()
            candidates.append(c)
    moved = [p[:j] + (c,) + p[j + 1 :] for c in candidates]
    return min(moved, key=lambda q: abs(relative_distance(p, q) - target))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_dedup_matches_the_pairwise_greedy_rule(seed):
    rng = random.Random(seed)
    s = rng.randint(1, 4)
    # coordinates on both sides of 1, so both branches of the scale are used
    points = [
        tuple(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(s))
        for _ in range(rng.randint(0, 5))
    ]
    # near-duplicates just below, at and just above the tolerance, some of
    # them planted on planted points, so that chains of near neighbours
    # make the greedy order matter
    for _ in range(rng.randint(0, 10) if points else 0):
        ratio = rng.choice([0.0, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5])
        points.append(planted_point(rng, rng.choice(points), ratio))
    rng.shuffle(points)
    assert witness._dedup(points) == reference_dedup(points)
    assert witness._dedup(iter(points)) == reference_dedup(points)


def test_dedup_matches_the_pairwise_greedy_rule_at_the_tolerance():
    tol = witness.DEDUP_TOL
    assert witness._dedup([]) == reference_dedup([]) == []
    assert witness._dedup([(0.3, 2.0)]) == [(0.3, 2.0)]
    # relative distance exactly at the tolerance keeps both, one ulp less
    # drops the second; the scale is 1 in the first pair and 800 in the
    # second
    for p, at in [((0.0,), (1e-6,)), ((800.0, 3e-3), (800.0, 3.8e-3))]:
        below, above = (at[:-1] + (np.nextafter(at[-1], d).item(),) for d in (-np.inf, np.inf))
        assert relative_distance(p, below) < relative_distance(p, at) == tol
        assert relative_distance(p, above) > tol
        for q, kept in ((below, 1), (at, 2), (above, 2)):
            assert len(witness._dedup([p, q])) == kept
            assert witness._dedup([q, p]) == reference_dedup([q, p])
    # p keeps q out, and r, close to q but not to p, stays
    p = (1.0,)
    q, r = (1.0 + 0.7 * tol,), (1.0 + 1.4 * tol,)
    assert witness._dedup([r, q, p]) == reference_dedup([r, q, p]) == [p, r]


def test_dedup_matches_the_pairwise_greedy_rule_on_benchmark_traffic():
    calls = 0
    for _, _, _, reference in benchmark_traffic():
        for points, _ in reference:
            assert witness._dedup(points) == reference_dedup(points)
            calls += 1
    assert calls == (NUM_ATOMS + 1) * TRAFFIC_SAMPLES


def window_work(last, took):
    """Trial rows and rounds that the damping windows spend on one start
    whose previous step took level last and whose first success is at
    level took (-1 for none)."""
    levels = witness.MAX_DAMPING_HALVINGS + 1
    lo, hi = 0, min(last + 2, levels)
    rows = rounds = 0
    while True:
        rows, rounds = rows + hi - lo, rounds + 1
        if lo <= took < hi or hi == levels:
            return rows, rounds
        lo, hi = hi, min(4 * hi + 3, levels)


def test_damping_windows_match_sequential_halving_on_benchmark_traffic():
    top_level, stuck = 0, 0
    for args, rates, m, reference in benchmark_traffic():
        found = witness._newton_all_starts(*args, rates)
        # builtin floats, as the JSON report and the exact validation read them
        assert all(
            p is None or (type(p) is tuple and all(type(v) is float for v in p))
            for p in found
        )
        for i, (expected, log) in enumerate(reference):
            assert [x for x in found[i * m : (i + 1) * m] if x is not None] == expected
            taken = [level for _, step in log for level in step.values()]
            top_level = max([top_level, *taken])
            stuck += taken.count(-1)
            if len(log) == witness.MAX_NEWTON_ITERATIONS:
                stuck += sum(level >= 0 for level in log[-1][1].values())
    # the traffic needs the deepest windows and holds starts that run out
    # of levels or iterations
    assert top_level >= 31
    assert stuck > 0


def test_damping_windows_evaluate_the_rows_their_rule_names():
    rhs = witness._rhs_batch
    for args, rates, _, reference in benchmark_traffic():
        evaluated = []

        def counted(x, *rest):
            evaluated.append(len(x))
            return rhs(x, *rest)

        with mock.patch.object(witness, "_rhs_batch", counted):
            witness._newton_all_starts(*args, rates)
        # the batch runs the samples' iterations side by side: iteration k
        # evaluates its active starts once, then as many rounds of windows
        # as its slowest start needs
        expected_rows = expected_calls = 0
        lasts = [{} for _ in reference]
        for k in range(max(len(log) for _, log in reference)):
            rounds = 0
            for (_, log), last in zip(reference, lasts):
                if k >= len(log):
                    continue
                active, taken = log[k]
                expected_rows += active
                for start, took in taken.items():
                    rows, needed = window_work(last.get(start, 0), took)
                    expected_rows += rows
                    rounds = max(rounds, needed)
                last.update(taken)
            expected_calls += 1 + rounds
        assert (len(evaluated), sum(evaluated)) == (expected_calls, expected_rows)


def test_singular_matrix_in_a_batch_is_solved_around():
    rng = np.random.default_rng(5)
    jacs = rng.normal(size=(40, 3, 3))
    jacs[17, 2] = 2.0 * jacs[17, 0]  # one singular matrix
    rhs = rng.normal(size=(40, 3))
    steps, ok = witness._solve_batch(jacs, rhs)
    assert ok.tolist() == [i != 17 for i in range(40)]
    for i in range(40):
        if i != 17:
            assert steps[i].tolist() == np.linalg.solve(jacs[i], rhs[i]).tolist()


def test_a_start_with_a_singular_jacobian_dies_and_the_others_go_on():
    # f(x) = 1 - 3x + x^2 has f'(x) = 0 exactly at x = 1.5; after the
    # singular start is dropped the damping rounds may hold no start at all
    data = stoich(parse_network("0 <-> A\n2 A -> 3 A"))
    exponents = np.array(data.reactant_matrix, dtype=float)
    gamma = np.array(data.stoich_matrix, dtype=float)
    rates = np.array([1.0, 3.0, 1.0])
    assert witness._newton_all_starts([(1.5,)], exponents, gamma, rates) == [None]
    found = witness._newton_all_starts([(1.5,), (0.3,)], exponents, gamma, rates)
    assert found == [None, (0.3819660112446401,)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_newton_rows_do_not_depend_on_their_batch(seed):
    rng = random.Random(seed)
    net = fully_open_extension(random_network(rng, max_species=3, max_reactions=3))
    data = stoich(net)
    exponents = np.array(data.reactant_matrix, dtype=float)
    gamma = np.array(data.stoich_matrix, dtype=float)
    starts = [
        tuple(10.0 ** rng.uniform(-2.0, 2.0) for _ in range(net.num_species))
        for _ in range(6)
    ]
    rates = [
        np.array([10.0 ** rng.uniform(-3.0, 3.0) for _ in range(net.num_reactions)])
        for _ in range(2)
    ]
    alone = [
        [witness._newton_all_starts([x], exponents, gamma, k)[0] for x in starts]
        for k in rates
    ]
    assert witness._newton_all_starts(starts, exponents, gamma, rates[0]) == alone[0]
    tiled = np.repeat(np.array(rates), len(starts), axis=0)
    block = witness._newton_all_starts(starts * 2, exponents, gamma, tiled)
    assert block == alone[0] + alone[1]


def exponent_rows(rng, s, r):
    """r reactant rows over s species that meet ``_matmul_is_exact``: no
    species, one species with any coefficient, or two species whose
    coefficients are powers of two."""
    rows = np.zeros((r, s))
    for row in rows:
        width = rng.randint(0, min(2, s))
        for j in rng.sample(range(s), width):
            row[j] = rng.randint(1, 6) if width == 1 else rng.choice([1, 2, 4, 8])
    return rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_log_monomials_by_matmul_match_einsum_where_exact(seed):
    rng = random.Random(seed)
    s, r = rng.randint(1, 4), rng.randint(1, 24)
    exponents = exponent_rows(rng, s, r)
    assert witness._matmul_is_exact(exponents)
    gamma = np.array([[rng.randint(-3, 3) for _ in range(r)] for _ in range(s)], float)
    rates = np.array([10.0 ** rng.uniform(-3.0, 3.0) for _ in range(r)])
    # a batch of one row takes numpy's vector path, larger ones the matrix
    # path; coordinates up to 1e15 away from 1 keep exp from overflowing
    for n in (1, 2, 600):
        x = np.array(
            [[rng.choice([1.0, 10.0 ** rng.uniform(-15, 15)]) for _ in range(s)] for _ in range(n)]
        )
        logs = np.log(x)
        assert (logs @ exponents.T == np.einsum("ij,kj->ik", logs, exponents)).all()
        by_einsum = witness._rhs_batch(x, exponents, gamma, rates)
        by_matmul = witness._rhs_batch(x, exponents, gamma, rates, matmul=True)
        assert [a.tobytes() for a in by_matmul] == [a.tobytes() for a in by_einsum]


def test_matmul_rule_accepts_the_benchmark_networks_and_nothing_wider():
    def exact(net):
        return witness._matmul_is_exact(np.array(stoich(net).reactant_matrix, dtype=float))

    # the atoms and intro-2 of the witness benchmark, the --kappa network of
    # the CI text digest, and a one-species coefficient 5 beside a pair 4, 2
    nets = [fully_open_extension(load_atom(i)) for i in range(1, NUM_ATOMS + 1)]
    nets += [parse_network(INTRO_2), parse_network("0 <-> A\n2 A -> 3 A")]
    nets.append(fully_open_extension(parse_network("4 A + 2 B -> C\n5 C -> A")))
    assert all(exact(net) for net in nets)
    for text in ("A + B + C -> 2 A", "A + 3 B -> 2 A"):
        assert not exact(fully_open_extension(parse_network(text)))


def test_newton_outside_the_matmul_rule_matches_sequential_halving():
    # the full grid of default starts in one batch: a 2-D BLAS product sums
    # these reactants' rows differently from einsum in some batches, which
    # the random networks' batches of 6 to 12 starts may not show
    for text in ("A + B + C -> 2 A", "A + 3 B <-> 2 A + B"):
        net = fully_open_extension(parse_network(text))
        data = stoich(net)
        exponents = np.array(data.reactant_matrix, dtype=float)
        gamma = np.array(data.stoich_matrix, dtype=float)
        rng = random.Random(3)
        starts = witness._default_starts(net.num_species, 0)
        for _ in range(3):
            rates = np.array([10.0 ** rng.uniform(-3.0, 3.0) for _ in range(net.num_reactions)])
            expected = sequential_halving_newton(starts, exponents, gamma, rates)
            found = witness._newton_all_starts(starts, exponents, gamma, rates)
            assert [x for x in found if x is not None] == expected


def one_sample_rate_search(net, budget, seed):
    """The rate search that runs Newton on one rate sample at a time."""
    rng = random.Random(seed)
    for _ in range(budget):
        kappa = tuple(
            Fraction(10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(net.num_reactions)
        )
        found = witness_search(net, kappa, seed=seed)
        if found.count_nondegenerate() >= 2:
            return found
    return None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([1, 10**9]),
)
def test_batched_rate_search_matches_one_sample_loop(seed, budget, max_rows):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        net = fully_open_extension(load_atom(rng.randint(1, NUM_ATOMS)))
    else:
        net = fully_open_extension(random_network(rng, max_species=2, max_reactions=3))
    expected = one_sample_rate_search(net, budget, seed % 3)
    with mock.patch.object(witness, "MAX_BLOCK_ROWS", max_rows):
        found = rate_search(net, budget, seed % 3)
    assert (found is None) == (expected is None)
    if found is not None:
        assert found.to_json() == expected.to_json()


def counted_rate_search(net, budget, misses=0):
    """rate_search with witness_search wrapped: the result and every
    witness_search result, the first ``misses`` of them stripped of their
    states so that they cannot hit."""
    calls = []
    search = witness.witness_search

    def counted(*args, **kwargs):
        result = search(*args, **kwargs)
        if len(calls) < misses:
            result = witness.SteadyStateWitness(result.kappa, (), (), (), ())
        calls.append(result)
        return result

    with mock.patch.object(witness, "witness_search", counted):
        return rate_search(net, budget), calls


def test_rate_search_validates_no_sample_of_intro_2():
    found, calls = counted_rate_search(parse_network(INTRO_2), 50)
    assert found is None
    assert calls == []


@pytest.mark.parametrize("misses", [0, 2])
def test_rate_search_validates_only_samples_with_two_distinct_points(misses):
    net = fully_open_extension(load_atom(1))
    found, calls = counted_rate_search(net, 1000, misses)
    assert found is not None and calls[-1] is found
    # the rate samples in draw order, one Newton run each, up to the hit
    data = stoich(net)
    exponents = np.array(data.reactant_matrix, dtype=float)
    gamma = np.array(data.stoich_matrix, dtype=float)
    starts = witness._default_starts(net.num_species, 0)
    rng = random.Random(0)
    drawn, candidates = 0, []
    while not candidates or candidates[-1] != found.kappa:
        kappa = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(net.num_reactions)]
        points = witness._newton_all_starts(starts, exponents, gamma, np.array(kappa))
        drawn += 1
        if len(witness._dedup(p for p in points if p is not None)) >= 2:
            candidates.append(tuple(Fraction(k) for k in kappa))
    assert [w.kappa for w in calls] == candidates
    assert len(candidates) == misses + 1 < drawn


def _block_rows(net, budget):
    """Rows of each batched Newton run of a rate search, with Newton
    replaced by a stand-in that converges nowhere."""
    rows = []

    def record(starts, exponents, gamma, rates):
        if np.ndim(rates) == 2:
            rows.append(len(starts))
        return [None] * len(starts)

    with mock.patch.object(witness, "_newton_all_starts", record):
        assert rate_search(net, budget) is None
    return rows


def test_rate_sample_blocks_double_within_the_row_cap():
    two_species = fully_open_extension(parse_network("A <-> B"))
    rows = _block_rows(two_species, 200)
    assert rows[:2] == [25, 50]
    assert max(rows) <= max(25, witness.MAX_BLOCK_ROWS)
    assert sum(rows) == 200 * 25
    three_species = fully_open_extension(parse_network("A + B <-> C"))
    rows = _block_rows(three_species, 40)
    assert rows[:2] == [125, 250]
    assert max(rows) <= max(125, witness.MAX_BLOCK_ROWS)
    six_species = parse_network(
        "\n".join(f"0 <-> {x}" for x in "ABCDEF")
        + "\nA + B + C + D + E + F -> 2 A + 2 B + 2 C + 2 D + 2 E + 2 F"
        + "\nA + B -> C\nD + E -> 2 F"
    )
    assert _block_rows(six_species, 5) == [3125] * 5
