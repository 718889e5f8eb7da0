"""Floating-point steady-state search for fully open networks.

Multistart damped Newton on the mass-action right-hand side.  Each step
is capped at 0.99 of the distance to the boundary of the positive
orthant; of the damped steps t, t/2, ..., t/2^40 the first whose iterate
stays positive and strictly lowers the residual infinity norm is taken.
A start tends to need about as many halvings as at its previous
iteration, so its search resumes there: it first tries the levels 0 to
one past the level it last took, then windows of about fourfold length,
with one batched evaluation per round for every pending start.  The
windows cover the levels in order, so the step taken does not change.
Every returned state is re-validated exactly: the coordinates are
rationalized (floats convert to rationals without loss) and the residual
and Jacobian rank are recomputed in exact arithmetic.

The rate search runs Newton on blocks of rate samples at once, each row
of the batch with its own rates.  The float arithmetic is row-independent
(``einsum`` products, elementwise maps and one LAPACK solve per matrix;
the log-monomials come from one BLAS product only where every summation
order gives the same bits, see ``_rhs_batch``), so a start's Newton
result does not depend on the rows that share its batch, and the search
returns what one sample at a time would.  Only the samples whose
converged points dedup to two or more distinct points are validated:
every validated state is one of them, so no other sample can hold two.

Newton gathers rows of its 2-D arrays with ``take`` and ``compress``,
which copy the same values as fancy indexing at a fraction of its cost.
``_dedup`` keeps the greedy pairwise rule, vectorized: each kept point is
compared with every other point in one batch of the same elementwise
IEEE operations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .embedding import is_fully_open
from .linalg import rank_frac
from .massaction import jacobian, mass_action_system
from .network import ReactionNetwork
from .structure import stoich

RESIDUAL_TOL = 1e-10
EXACT_RESIDUAL_TOL = Fraction(1, 10**8)
DEDUP_TOL = 1e-6
STABILITY_MARGIN = 1e-9
GRID_POINTS = (1e-2, 1e-1, 1.0, 10.0, 1e2)
MAX_GRID_STARTS = 3125
MAX_DAMPING_HALVINGS = 40
MAX_NEWTON_ITERATIONS = 100
# rate samples are drawn in blocks of doubling size up to MAX_BLOCK
# samples; a block also stays within about MAX_BLOCK_ROWS Newton rows,
# but holds at least one sample
MAX_BLOCK = 16
MAX_BLOCK_ROWS = 1024
# t * HALVINGS[j] equals t halved j times, bit for bit, while the product
# is a normal float (halving a normal float is exact)
HALVINGS = 2.0 ** -np.arange(MAX_DAMPING_HALVINGS + 1)


@dataclass(frozen=True)
class SteadyStateWitness:
    kappa: tuple[Fraction, ...]
    states: tuple[tuple[float, ...], ...]
    residuals: tuple[float, ...]
    nondegenerate: tuple[bool, ...]
    stability: tuple[str, ...]  # "stable" | "unstable" | "undetermined"

    def count_nondegenerate(self) -> int:
        return sum(self.nondegenerate)

    def to_json(self) -> dict:
        return {
            "kappa": [str(k) for k in self.kappa],
            "states": [list(x) for x in self.states],
            "residuals": list(self.residuals),
            "nondegenerate": list(self.nondegenerate),
            "stability": list(self.stability),
        }


def _matmul_is_exact(exponents) -> bool:
    """Whether every row of exponents has at most one nonzero entry, or
    two that are both powers of two (see ``_rhs_batch``)."""
    nonzero = exponents != 0
    count = nonzero.sum(axis=1)
    powers = np.frexp(exponents)[0] == 0.5  # mantissa 1/2: a power of two
    return bool(np.all((count <= 1) | ((count == 2) & (powers | ~nonzero).all(axis=1))))


def _rhs_batch(x, exponents, gamma, rates, matmul=False):
    """Right-hand side at each row of x; rates is one rate vector or one
    per row.  ``einsum`` keeps each row's sums independent of the others
    (a BLAS ``@`` may sum a row differently in a different batch).

    With ``matmul`` the log-monomials are ``np.log(x) @ exponents.T``.
    For positive finite x this gives the ``einsum``'s bits in every row
    of every batch when ``_matmul_is_exact(exponents)`` holds: a row with
    one nonzero exponent makes one rounded product, and a row with two
    makes two exact products (scaling by a power of two is exact) and one
    rounded sum, so each log-monomial is its exact value rounded once,
    whatever the summation order, blocking or fused multiply-add.  A zero
    exponent adds a signed zero, which changes no nonzero sum, and
    exp(+0) = exp(-0) = 1.  (A damping trial is rejected either way if it
    overflows to inf, which makes its residual infinite or NaN through its
    species' outflow in a fully open network, or if it has a coordinate
    that is not positive, which only a step that is not finite makes.)"""
    if matmul:
        monomials = np.log(x) @ exponents.T
    else:
        monomials = np.einsum("ij,kj->ik", np.log(x), exponents)
    np.exp(monomials, out=monomials)
    monomials *= rates
    return np.einsum("ij,kj->ik", monomials, gamma), monomials


def _jac_batch(x, monomials, exponents, gamma):
    weights = monomials[:, :, None] * (exponents[None, :, :] / x[:, None, :])
    return np.einsum("ij,bjk->bik", gamma, weights)


def _solve_batch(jacs, rhs):
    """Batched linear solve; singular systems are flagged, not fatal.

    A batch holding a singular matrix is split in halves until each
    singular matrix stands alone, so every matrix still gets the same
    LAPACK solve."""
    try:
        steps = np.linalg.solve(jacs, rhs[:, :, None])[:, :, 0]
        return steps, np.ones(len(jacs), dtype=bool)
    except np.linalg.LinAlgError:
        if len(jacs) == 1:
            return np.zeros_like(rhs), np.zeros(1, dtype=bool)
        mid = len(jacs) // 2
        low, low_ok = _solve_batch(jacs[:mid], rhs[:mid])
        high, high_ok = _solve_batch(jacs[mid:], rhs[mid:])
        return np.concatenate([low, high]), np.concatenate([low_ok, high_ok])


def _doubling_blocks(total: int, cap: int):
    """Index ranges of doubling size (1, 2, 4, ...) covering range(total),
    none longer than cap (a positive integer)."""
    lo, size = 0, 1
    while lo < total:
        hi = min(lo + size, total)
        yield lo, hi
        lo, size = hi, min(2 * size, cap)


# the step caps divide by steps that np.where then discards; a trial that
# overflows, or has a non-positive coordinate (its step is not finite), is
# rejected: no warning carries news
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _newton_all_starts(starts, exponents, gamma, rates):
    """Damped Newton from each start, with one rate vector for all starts
    or one per start; the converged point of each start, or None."""
    x = np.array(starts, dtype=float)
    n = len(x)
    # take copies a non-contiguous array whole before it gathers, so a
    # broadcast rate vector is made one contiguous array here, once
    rates = np.ascontiguousarray(np.broadcast_to(rates, (n, len(exponents))))
    matmul = _matmul_is_exact(exponents)
    converged = np.zeros(n, dtype=bool)
    last = np.zeros(n, dtype=np.intp)  # damping level taken at the last step
    active = np.arange(n)  # the starts still iterating
    for _ in range(MAX_NEWTON_ITERATIONS):
        if active.size == 0:
            break
        f_act, mon_act = _rhs_batch(
            x.take(active, axis=0), exponents, gamma, rates.take(active, axis=0), matmul
        )
        res_act = np.max(np.abs(f_act), axis=1)
        done = res_act < RESIDUAL_TOL
        converged[active[done]] = True
        undone = np.flatnonzero(~done)
        work = active[undone]
        if work.size == 0:
            break
        xw, resw = x.take(work, axis=0), res_act[undone]
        jacs = _jac_batch(xw, mon_act.take(undone, axis=0), exponents, gamma)
        steps, solvable = _solve_batch(jacs, -f_act.take(undone, axis=0))
        # the damping rounds set the memory peak: keep none of this
        # evaluation's arrays alive through them
        del f_act, mon_act, jacs, undone
        work, resw = work[solvable], resw[solvable]
        xw, steps = xw.compress(solvable, axis=0), steps.compress(solvable, axis=0)
        # cap the step so iterates stay strictly positive, then take the
        # first of t, t/2, ..., t/2^MAX_DAMPING_HALVINGS that strictly
        # lowers the residual.  A start tries the levels lo..hi-1 of its
        # window, first 0..last+1, then [hi, 4 hi + 3) after a window
        # without success, so the windows cover the levels in order and
        # its first success is still the one taken.  Each round evaluates
        # every pending window in one batch, grouped by start
        t = np.minimum(1.0, 0.99 * np.where(steps < 0, -xw / steps, np.inf).min(axis=1))
        pending = np.arange(len(work))
        lo = np.zeros(len(work), dtype=np.intp)
        hi = np.minimum(last[work] + 2, len(HALVINGS))
        stepped = np.zeros(len(work), dtype=bool)
        while pending.size:
            counts = hi - lo
            heads = np.cumsum(counts) - counts
            owner = np.repeat(pending, counts)
            row = np.arange(len(owner))
            level = row - np.repeat(heads - lo, counts)
            trial = steps.take(owner, axis=0)
            trial *= (t[owner] * HALVINGS[level])[:, None]
            trial += xw.take(owner, axis=0)
            # positivity and the residual infinity norm as elementwise
            # chains over the few columns: the same values as reductions
            # along them, at less cost
            positive = trial[:, 0] > 0
            for column in trial.T[1:]:
                positive &= column > 0
            f_try = _rhs_batch(trial, exponents, gamma, rates.take(work[owner], axis=0), matmul)[0]
            np.abs(f_try, out=f_try)
            res_try = f_try[:, 0].copy()
            for column in f_try.T[1:]:
                np.maximum(res_try, column, out=res_try)
            better = positive & (res_try < resw[owner])
            first = np.minimum.reduceat(np.where(better, row, len(row)), heads)
            hit = first < len(row)
            won = pending[hit]
            stepped[won] = True
            x[work[won]] = trial.take(first[hit], axis=0)
            last[work[won]] = level[first[hit]]
            pending, lo = pending[~hit], hi[~hit]
            hi = np.minimum(4 * lo + 3, len(HALVINGS))
            spent = lo == len(HALVINGS)
            pending, lo, hi = pending[~spent], lo[~spent], hi[~spent]
        active = work[stepped]
    return [tuple(p) if ok else None for p, ok in zip(x.tolist(), converged.tolist())]


def _dedup(states):
    """The finite states in sorted order, less each one at relative
    distance max|p - q| / max(1, |p|inf, |q|inf) below ``DEDUP_TOL`` from
    a state kept before it (a dropped state drops nothing).  ``far`` marks
    the states far from every state kept so far; each kept state updates
    it in one vectorized comparison, with the same IEEE operations per
    pair as a loop over pairs."""
    points = sorted(states)
    if not points:
        return []
    arr = np.array(points)
    norms = np.maximum(np.abs(arr).max(axis=1), 1.0)
    far = np.ones(len(points), dtype=bool)
    kept = []
    i = 0
    while True:
        kept.append(points[i])
        far &= np.abs(arr - arr[i]).max(axis=1) / np.maximum(norms, norms[i]) >= DEDUP_TOL
        if not far.any():
            return kept
        i = int(far.argmax())


def _default_starts(s: int, seed: int):
    if 5**s <= MAX_GRID_STARTS:
        return list(itertools.product(GRID_POINTS, repeat=s))
    rng = random.Random(seed)
    return [
        tuple(10.0 ** rng.uniform(-2.0, 2.0) for _ in range(s))
        for _ in range(MAX_GRID_STARTS)
    ]


def witness_search(
    net: ReactionNetwork,
    kappa: Sequence,
    *,
    seed: int = 0,
    starts: Sequence[Sequence[float]] | None = None,
) -> SteadyStateWitness:
    """Find positive steady states of the mass-action system.

    Runs damped Newton from a log-spaced positive grid (random starts
    above five species). Each Newton step is capped at 0.99 of the
    distance to the boundary of the positive orthant, and the first of
    t, t/2, ..., t/2^40 whose iterate stays positive and strictly lowers
    the residual infinity norm is taken; a start with no such step is
    dropped. Keeps converged points with residual infinity norm below
    ``RESIDUAL_TOL``, deduplicates at relative distance ``DEDUP_TOL``,
    and validates each survivor exactly: rationalized residual below
    1e-8 and exact Jacobian rank for nondegeneracy. A rate too large for
    a float, or a positive rate that rounds to 0.0, is an error.
    """
    if not is_fully_open(net):
        raise ValueError("witness search requires a fully open network")
    rates = tuple(Fraction(k) for k in kappa)
    rate_floats = []
    for i, k in enumerate(rates, start=1):
        try:
            value = float(k)
        except OverflowError:
            value = None
        if value is None or (k > 0 and value == 0.0):
            raise ValueError(f"rate constant {i} does not fit a float")
        rate_floats.append(value)
    system = mass_action_system(net, rates)
    data = stoich(net)
    exponents = np.array(data.reactant_matrix, dtype=float)
    gamma = np.array(data.stoich_matrix, dtype=float)
    rate_arr = np.array(rate_floats)
    if starts is None:
        starts = _default_starts(net.num_species, seed)
    found = _newton_all_starts(starts, exponents, gamma, rate_arr)
    states: list[tuple[float, ...]] = []
    residuals: list[float] = []
    nondeg: list[bool] = []
    stability: list[str] = []
    for state in _dedup(p for p in found if p is not None):
        exact_point = tuple(Fraction(v) for v in state)
        exact_res = system.rhs(exact_point)
        if max(abs(v) for v in exact_res) >= EXACT_RESIDUAL_TOL:
            continue
        f_val, mon = _rhs_batch(np.array([state]), exponents, gamma, rate_arr)
        residuals.append(float(np.max(np.abs(f_val[0]))))
        exact_jac = jacobian(system, exact_point)
        nondeg.append(rank_frac(exact_jac) == data.rank)
        jac = _jac_batch(np.array([state]), mon, exponents, gamma)[0]
        real_parts = np.linalg.eigvals(jac).real
        if np.all(real_parts < -STABILITY_MARGIN):
            stability.append("stable")
        elif np.any(real_parts > STABILITY_MARGIN):
            stability.append("unstable")
        else:
            stability.append("undetermined")
        states.append(state)
    return SteadyStateWitness(
        rates,
        tuple(states),
        tuple(residuals),
        tuple(nondeg),
        tuple(stability),
    )


def rate_search(
    net: ReactionNetwork,
    budget: int = 10000,
    seed: int = 0,
) -> SteadyStateWitness | None:
    """Sample rate constants log-uniformly in [1e-3, 1e3] until some
    sample yields at least two nondegenerate positive steady states.

    The samples are drawn in blocks of doubling size (1, 2, 4, ... up to
    ``MAX_BLOCK`` samples and about ``MAX_BLOCK_ROWS`` Newton rows, at
    least one sample), and one Newton run covers every start of every
    sample in the block.  A sample whose converged points dedup to fewer
    than two cannot hit, because each validated state is one of them, and
    is skipped; every other sample is validated by ``witness_search``
    from its deduplicated points (Newton stays where it starts there), in
    draw order, and the search stops at the first hit.  The result is the
    one that running ``witness_search`` on each sample in turn would
    give, and it is deterministic for a fixed seed and budget; returns
    None when the budget is exhausted.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if not is_fully_open(net):
        raise ValueError("rate search requires a fully open network")
    rng = random.Random(seed)
    r = net.num_reactions
    data = stoich(net)
    exponents = np.array(data.reactant_matrix, dtype=float)
    gamma = np.array(data.stoich_matrix, dtype=float)
    starts = _default_starts(net.num_species, seed)
    m = len(starts)
    cap = max(1, min(MAX_BLOCK, MAX_BLOCK_ROWS // m))
    for lo, hi in _doubling_blocks(budget, cap):
        block = [
            [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(r)] for _ in range(lo, hi)
        ]
        rates = np.repeat(np.array(block), m, axis=0)
        found = _newton_all_starts(starts * len(block), exponents, gamma, rates)
        for i, kappa in enumerate(block):
            kept = _dedup(p for p in found[i * m : (i + 1) * m] if p is not None)
            if len(kept) < 2:
                continue
            witness = witness_search(net, [Fraction(k) for k in kappa], starts=kept)
            if witness.count_nondegenerate() >= 2:
                return witness
    return None
