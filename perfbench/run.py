"""Benchmark of the crnmss command line, run in-process.

    python3 perfbench/run.py --workload atlas --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports crnmss from
``src/`` and builds nothing.  Workloads (see ``corpus.py``): ``atlas``,
``sequestration``, ``witness``.  Each network is one call of
``crnmss.cli.main`` with the argv a user would type and the network text
on stdin; the next call starts when the previous report is parsed (a
closed loop with one client).  Passes over the seeded corpus repeat until
``--seconds`` have elapsed, with at least three passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the
traced ones (``tracer.py``).  Every report goes through the oracle
(``oracle.py``) after the timed passes; ``golden.json`` holds the status
and certificate kind of each case at seed 0, as the program produced
them when the benchmark was written.

Every timing is wall time scaled to a reference host speed: the host's
CPU speed drifts by up to 1.7x over seconds to minutes, so a fixed
kernel is timed between calls and each call's time is scaled by it
(``hostspeed.py``).  Unscaled wall times are printed beside them.

Standard output: an ``env`` line, one ``row`` line per case (its median
scaled and wall ms over the passes), one ``metric`` line per metric, then
the result as one JSON object on the last line.  The exit code is 1 when
any operation failed or the oracle's self-check did not catch a corrupted
expectation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import corpus
from hostspeed import HostSpeed
from oracle import Oracle, is_conclusive, outcome
from tracer import STAGES, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 0
MIN_PASSES = 3
# Set-up takes about 0.1 s and its import time is noisy, so it is timed
# several times before every pass.
SETUPS_PER_PASS = 3
# Printed as metric lines but left out of the result object: the error
# share is 0 on a correct run (the result's "failed" carries it), the
# witness workload has too few calls per run for ten to lie beyond the
# 90th percentile, and unscaled wall times move with the host's speed.
TEXT_ONLY = {"error_share", "verdict_ms.p90", "networks_per_s.wall", "verdict_ms.p50.wall"}
# Certificate kinds the workloads conclude with.  The schema's other two
# never occur here: ``check`` does not try lift obstructions, and the one
# call that runs the numeric stage (intro-2) stays inconclusive.
CONCLUDED_KINDS = (
    "deficiency-zero",
    "deficiency-one",
    "injectivity-minors",
    "injectivity-cfstr",
    "det-opt",
    "atom-embedding",
    "one-reaction-formula",
    "positive-dependence-failure",
)


@dataclasses.dataclass
class Result:
    case: object
    ms: float  # wall time
    t0: float = 0.0
    t1: float = 0.0
    scaled_ms: float = 0.0  # wall time at the reference host speed (hostspeed.py)
    code: int | None = None
    raw: str | None = None
    report: object = None
    status: str = "ERROR"
    kind: str | None = None
    errors: list[str] = dataclasses.field(default_factory=list)


def pin_process() -> None:
    """One BLAS thread, and no CRNMSS_THREADS: the load comes from this
    single thread.  Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("CRNMSS_THREADS", None)


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
    }


def call(cli, case) -> Result:
    """One CLI call, timed from argv to parsed JSON."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(case.text)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(case.argv))
        raw = out.getvalue()
        report = json.loads(raw)
    except (Exception, SystemExit) as exc:  # the program under test failed
        t1 = time.perf_counter()
        return Result(case, (t1 - t0) * 1000, t0, t1, errors=[f"{type(exc).__name__}: {exc}"])
    finally:
        sys.stdin = stdin
    t1 = time.perf_counter()
    return Result(case, (t1 - t0) * 1000, t0, t1, code=code, raw=raw, report=report)


def set_up(workload: str, seed: int, speed: HostSpeed):
    """Fresh import of crnmss, corpus generation and one warm-up call.
    Returns the set-up's seconds at the reference host speed."""
    for name in [m for m in sys.modules if m == "crnmss" or m.startswith("crnmss.")]:
        del sys.modules[name]
    # the old modules sit in reference cycles; free them now, untimed, so
    # that memory does not grow with the number of set-ups
    gc.collect()
    speed.probe()
    t0 = time.perf_counter()
    cli = importlib.import_module("crnmss.cli")
    cases = corpus.generate(workload, seed)
    # the first case by id: on witness that is atom01, whose search hits
    # at its third rate sample (about 10 ms), cheaper than one Newton
    # search at fixed unit rates, which converges from no start (35 ms)
    call(cli, min(cases, key=lambda c: c.id))
    t1 = time.perf_counter()
    speed.probe()
    return (t1 - t0) * speed.scale(t0, t1), cli, cases


def run_pass(cli, cases, stop_at=math.inf, speed=None) -> tuple[float, list[Result]]:
    """One pass over the cases in order, cut short at ``stop_at``.  With
    ``speed``, the host speed is probed between calls and each result's
    ``scaled_ms`` is set."""
    results = []
    t0 = time.perf_counter()
    for case in cases:
        if time.perf_counter() >= stop_at:
            break
        if speed:
            speed.maybe_probe()
        results.append(call(cli, case))
    wall = time.perf_counter() - t0
    if speed:
        speed.probe()
        for res in results:
            res.scaled_ms = res.ms * speed.scale(res.t0, res.t1)
    return wall, results


def check_pass(oracle_, results: list[Result], seen: dict) -> None:
    """Run the oracle on one pass, then drop the reports so that memory
    does not grow with the number of passes.  Identical reports of one
    case are checked once."""
    for res in results:
        if res.raw is None:
            continue
        key = (res.case.id, res.code, res.raw)
        if key not in seen:
            try:
                status, kind = outcome(res.case, res.report)
                errors = oracle_.check(res.case, res.code, res.report)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                status, kind = "ERROR", None
                errors = [f"malformed report: {type(exc).__name__}: {exc}"]
            seen[key] = (status, kind, errors)
        res.status, res.kind, res.errors = seen[key]
        res.raw = res.report = None


def self_check(oracle_, results: list[Result]) -> bool:
    """The oracle must reject a report when its expected verdict is flipped."""
    for res in results:
        if res.raw is not None and res.case.expected is not None:
            corrupted = dataclasses.replace(res.case, expected=not res.case.expected)
            return bool(oracle_.check(corrupted, res.code, res.report))
    return False


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def case_ms(passes, attr="scaled_ms") -> list[float]:
    """Each case's median time over the passes, scaled to the reference
    host speed by default (``hostspeed.py``); ``attr="ms"`` gives wall
    time.  The scaling corrects most of a slow stretch of the host but
    not all of it, so a median is steadier than the fastest pass."""
    first = passes[0][1]
    return [statistics.median(getattr(rs[i], attr) for _, rs in passes if i < len(rs))
            for i in range(len(first))]


def end_to_end(setup_times, passes, rss_mb) -> list[tuple[str, float, str, str]]:
    ms = sorted(case_ms(passes))
    first = passes[0][1]
    full = sum(len(rs) == len(first) for _, rs in passes)
    repeats = f"each case at its median of {full} or more passes, scaled"
    metrics = [
        ("setup_s", statistics.median(setup_times), "s", f"median of {len(setup_times)}"),
        ("networks_per_s", len(ms) / sum(ms) * 1000, "1/s", repeats),
        ("verdict_ms.p50", statistics.median(ms), "ms", f"n={len(ms)} cases"),
    ]
    wall = case_ms(passes, "ms")
    metrics += [
        ("networks_per_s.wall", len(wall) / sum(wall) * 1000, "1/s", "unscaled wall time"),
        ("verdict_ms.p50.wall", statistics.median(wall), "ms", "unscaled wall time"),
    ]
    if len(ms) >= 100:
        p90 = statistics.quantiles(ms, n=10)[-1]
        beyond = sum(v > p90 for v in ms)
        if beyond >= 10:
            metrics.append(("verdict_ms.p90", p90, "ms", f"n={len(ms)} cases"))
    conclusive = sum(is_conclusive(r.status) for r in first)
    metrics += [
        ("peak_rss_mb", rss_mb, "MB", ""),
        ("conclusive_share", share(conclusive, len(first)), "share", f"n={len(first)}"),
    ]
    return metrics


def per_layer(tracer, traced, untraced) -> list[tuple[str, float, str, str]]:
    """Per-pass layer metrics from the traced passes.  A metric whose
    wrapped function is missing from the program is left out."""
    npass = len(traced)
    nets = sum(len(rs) for _, rs in traced) / npass
    have = tracer.installed
    site = tracer.sites
    busy = tracer.layer_busy_s
    out = []

    def put(name, value, unit, needs=()):
        if all(n in have for n in needs):
            out.append((name, value, unit, ""))

    def per(value):
        return value / npass

    lp = site["lp.solve_feasibility"]
    put("lp.calls", per(lp.calls), "count", ["lp.solve_feasibility"])
    put("lp.busy_ms", per(busy["lp"]) * 1000, "ms", ["lp.solve_feasibility"])
    put("lp.feasible_share", share(lp.items, lp.calls), "share", ["lp.solve_feasibility"])

    sen, rel = site["embedding.sen.next"], site["embedding.sen_is_relevant"]
    put("embedding.sen.enumerated", per(sen.items), "count", ["embedding.sen.next"])
    put("embedding.sen.relevant", per(rel.items), "count", ["embedding.sen_is_relevant"])
    put("embedding.sen.relevant_share", share(rel.items, rel.calls), "share",
        ["embedding.sen_is_relevant"])
    put("embedding.sen.busy_ms", per(busy["embedding.sen"]) * 1000, "ms", ["embedding.sen.next"])
    put("embedding.find_embedding.calls", per(site["embedding.find_embedding"].calls), "count",
        ["embedding.find_embedding"])
    atom = site["decide.atom_search"]
    put("decide.atom_search.hit_share", share(atom.items, atom.calls), "share",
        ["decide.atom_search"])

    put("structure.deficiency.per_network", share(per(site["structure.deficiency"].calls), nets),
        "count/network", ["structure.deficiency"])
    put("structure.stoich.per_network", share(per(site["structure.stoich"].calls), nets),
        "count/network", ["structure.stoich"])
    put("structure.busy_ms", per(busy["structure"]) * 1000, "ms", ["structure.deficiency"])
    put("linalg.det_int.calls", per(site["linalg.det_int"].calls), "count", ["linalg.det_int"])
    put("linalg.busy_ms", per(busy["linalg"]) * 1000, "ms", ["linalg.det_int"])

    for stage in STAGES:
        name = f"decide.{stage}"
        put(f"{name}.busy_ms", per(site[name].busy_s) * 1000, "ms", [name])
        put(f"{name}.calls", per(site[name].calls), "count", [name])
    for kind in CONCLUDED_KINDS:
        count = sum(r.case.argv[0] == "check" and r.kind == kind for _, rs in traced for r in rs)
        put(f"decide.concluded.{kind}", per(count), "count")

    search = site["witness.witness_search"]
    hits = site["decide.numeric"].items + site["witness.rate_search"].items
    need = ["witness.witness_search"]
    put("witness.samples", per(search.calls), "count", need)
    put("witness.busy_ms", per(search.busy_s) * 1000, "ms", need)
    put("witness.exact_ms", per(busy["witness.exact"]) * 1000, "ms", need + ["massaction.rhs"])
    put("witness.newton_ms", per(search.self_s) * 1000, "ms", need)
    put("witness.samples_per_hit", share(search.calls, hits), "count", need)

    put("cli.report_ms", per(busy["cli.report"]) * 1000, "ms", ["cli.structural_summary"])
    put("network.parse_ms", per(busy["network.parse"]) * 1000, "ms", ["network.parse_network"])

    put("trace.busy_ms", per(sum(r.ms for _, rs in traced for r in rs)), "ms")
    traced_wall = statistics.median(w for w, _ in traced)
    untraced_wall = statistics.median(w for w, _ in untraced)
    put("trace.overhead_share", (traced_wall - untraced_wall) / untraced_wall, "share")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crnmss" / "cli.py").is_file():
        print(f"error: no crnmss sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_process()
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    schema = json.loads((SRC / "crnmss" / "data" / "report-schema.json").read_text())
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads((HERE / "golden.json").read_text())[args.workload]
    seen: dict = {}
    tracer = Tracer() if args.trace else None
    speed = HostSpeed()
    setup_times, untraced, traced = [], [], []
    deadline = time.perf_counter() + args.seconds
    # Fresh set-ups before every pass spread the set-up samples over the
    # run.  Untraced passes after the first MIN_PASSES stop at the deadline;
    # traced passes always finish, so their counts are per whole pass.
    while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
        for _ in range(SETUPS_PER_PASS):
            setup_s, cli, fresh = set_up(args.workload, args.seed, speed)
            setup_times.append(setup_s)
        if not untraced:
            # every set-up generates the same corpus; keep one copy
            cases = fresh
            oracle_ = Oracle(schema, golden)
        stop_at = deadline if len(untraced) >= MIN_PASSES and not tracer else math.inf
        untraced.append(run_pass(cli, cases, stop_at=stop_at, speed=speed))
        if tracer:
            tracer.install()
            try:
                traced.append(run_pass(cli, cases))
            finally:
                tracer.uninstall()
        if len(untraced) == 1:
            self_ok = self_check(oracle_, untraced[0][1])
        for _, results in untraced[-1:] + traced[-1:]:
            check_pass(oracle_, results, seen)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = [r for _, rs in untraced + traced for r in rs]
    failed = sum(bool(r.errors) for r in results)
    if tracer:
        metrics = per_layer(tracer, traced, untraced)
    else:
        metrics = end_to_end(setup_times, untraced, rss_mb)
    metrics.append(("error_share", share(failed, len(results)), "share", f"n={len(results)}"))

    print("env " + json.dumps(env | {"workload": args.workload, "cases": len(cases),
                                     "passes": len(untraced), "traced_passes": len(traced)}))
    for res, ms, wall_ms in zip(untraced[0][1], case_ms(untraced), case_ms(untraced, "ms")):
        case = res.case
        print("row " + json.dumps({
            "id": case.id, "species": case.species, "reactions": case.reactions,
            "status": res.status, "kind": res.kind, "ms": round(ms, 3),
            "wall_ms": round(wall_ms, 3),
        }))
    for name, value, unit, note in metrics:
        print(f"metric {name} {value:.6g} {unit} {note}".rstrip())
    for res in [r for r in results if r.errors][:20]:
        print(f"error {res.case.id}: {'; '.join(res.errors)}", file=sys.stderr)
    if not self_ok:
        print("error: oracle self-check did not reject a corrupted expected verdict",
              file=sys.stderr)
    correct = failed == 0 and self_ok
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed + (not self_ok),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, value, unit, _ in metrics
            if name not in TEXT_ONLY
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
