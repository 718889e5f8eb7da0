"""Outside-in layer tracing: wrap public functions where their callers look
them up, without editing the program.

Each wrapped site belongs to zero or more layers.  A call adds to its
site's call count, busy time and self time (its duration minus the
wrapped calls made inside it), and to the busy time of each of its
layers; a layer's busy time counts only its outermost call, so a layer
that calls itself is not counted twice.  Pipeline stages are sites of
their own, and the wrappers are installed only around whole passes, so a
stage's busy time is the time spent in it while deciding networks.  Hot
inner calls (SEN iteration, ``det_int``, ``find_embedding``) are only
counted.

A site whose module or attribute no longer exists is skipped, so its
metric is absent rather than the run crashing.  The untraced run never
installs a wrapper.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

STAGES = (
    "positive_dependence",
    "deficiency_zero",
    "deficiency_one",
    "injectivity",
    "one_reaction",
    "det_opt",
    "atom_search",
    "numeric",
)

# (module, attribute, site name, layers, kind); kind "iter" marks a
# generator whose items are timed one next() at a time.  A site name used
# twice pools the calls of both lookups.
SITES = (
    ("crnmss.decide", "positive_dependence", "decide.positive_dependence", (), "call"),
    ("crnmss.decide", "check_deficiency_zero", "decide.deficiency_zero", (), "call"),
    ("crnmss.decide", "check_deficiency_one", "decide.deficiency_one", (), "call"),
    ("crnmss.decide", "cfstr_injectivity", "decide.injectivity", (), "call"),
    ("crnmss.decide", "injectivity_minors", "decide.injectivity", (), "call"),
    ("crnmss.decide", "classify_one_nonflow_fully_open", "decide.one_reaction", (), "call"),
    ("crnmss.decide", "determinant_optimization", "decide.det_opt", (), "call"),
    ("crnmss.decide", "atom_db_search", "decide.atom_search", (), "call"),
    # analyze imports rate_search from crnmss.witness at call time
    ("crnmss.witness", "rate_search", "decide.numeric", (), "call"),
    ("crnmss.cli", "rate_search", "witness.rate_search", (), "call"),
    ("crnmss.decide", "solve_feasibility", "lp.solve_feasibility", ("lp",), "call"),
    ("crnmss.decide", "enumerate_sens", "embedding.sen.next", ("embedding.sen",), "iter"),
    ("crnmss.decide", "sen_is_relevant", "embedding.sen_is_relevant", ("embedding.sen",), "call"),
    ("crnmss.decide", "orientation", "embedding.orientation", ("embedding.sen",), "call"),
    ("crnmss.decide", "find_embedding", "embedding.find_embedding", ("embedding",), "call"),
    ("crnmss.decide", "det_int", "linalg.det_int", ("linalg",), "call"),
    ("crnmss.embedding", "det_int", "linalg.det_int", ("linalg",), "call"),
    ("crnmss.decide", "rank_int", "linalg.rank_int", ("linalg",), "call"),
    ("crnmss.structure", "rank_int", "linalg.rank_int", ("linalg",), "call"),
    ("crnmss.witness", "rank_frac", "linalg.rank_frac", ("linalg", "witness.exact"), "call"),
    ("crnmss.decide", "deficiency", "structure.deficiency", ("structure",), "call"),
    ("crnmss.cli", "deficiency", "structure.deficiency", ("structure",), "call"),
    ("crnmss.decide", "stoich", "structure.stoich", ("structure",), "call"),
    ("crnmss.structure", "stoich", "structure.stoich", ("structure",), "call"),
    ("crnmss.witness", "stoich", "structure.stoich", ("structure",), "call"),
    ("crnmss.massaction", "stoich", "structure.stoich", ("structure",), "call"),
    ("crnmss.witness", "witness_search", "witness.witness_search", ("witness",), "call"),
    ("crnmss.witness", "jacobian", "massaction.jacobian", ("witness.exact",), "call"),
    ("crnmss.massaction", "MassActionSystem.rhs", "massaction.rhs", ("witness.exact",), "call"),
    ("crnmss.cli", "parse_network", "network.parse_network", ("network.parse",), "call"),
    ("crnmss.cli", "structural_summary", "cli.structural_summary", ("cli.report",), "call"),
    ("crnmss.cli", "json.dumps", "cli.json_dumps", ("cli.report",), "call"),
)


@dataclass
class Site:
    calls: int = 0
    self_s: float = 0.0
    busy_s: float = 0.0
    items: int = 0  # generator items, or calls with a positive outcome


@dataclass
class _Frame:
    site: Site
    layers: tuple[str, ...]
    child_s: float = 0.0


class _JsonProxy:
    """Stands in for the ``json`` module inside one caller."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


@dataclass
class Tracer:
    sites: dict[str, Site] = field(default_factory=lambda: defaultdict(Site))
    layer_busy_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    installed: set[str] = field(default_factory=set)
    _depth: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _frames: list[_Frame] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    # -- timing ------------------------------------------------------------

    def _enter(self, name: str, layers: tuple[str, ...]) -> tuple[_Frame, float]:
        frame = _Frame(self.sites[name], layers)
        self._frames.append(frame)
        for layer in layers:
            self._depth[layer] += 1
        return frame, perf_counter()

    def _exit(self, frame: _Frame, t0: float) -> None:
        dt = perf_counter() - t0
        self._frames.pop()
        frame.site.calls += 1
        frame.site.self_s += dt - frame.child_s
        frame.site.busy_s += dt
        for layer in frame.layers:
            self._depth[layer] -= 1
            if self._depth[layer] == 0:
                self.layer_busy_s[layer] += dt
        if self._frames:
            self._frames[-1].child_s += dt

    def _wrap_call(self, fn, name, layers):
        tracer = self

        def wrapper(*args, **kwargs):
            frame, t0 = tracer._enter(name, layers)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, t0)
            if result is not None and result is not False:
                frame.site.items += _positive(result)
            return result

        return wrapper

    def _wrap_iter(self, fn, name, layers):
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame, t0 = tracer._enter(name, layers)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame, t0)
                    frame.site.items += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, layers, kind in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, leaf, None)
            if fn is None:
                continue
            if kind == "iter":
                wrapped = self._wrap_iter(fn, name, layers)
            else:
                wrapped = self._wrap_call(fn, name, layers)
            if owner is json:
                # replace the caller's reference, not the shared json module
                owner, leaf, wrapped = module, "json", _JsonProxy(wrapped)
            self._undo.append((owner, leaf, getattr(owner, leaf)))
            setattr(owner, leaf, wrapped)
            self.installed.add(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, fn = self._undo.pop()
            setattr(owner, leaf, fn)


def _positive(result) -> int:
    """1 when a call's result counts as a success for its site's ratio:
    a feasible LP, a relevant SEN, an atom found, a witness found."""
    feasible = getattr(result, "feasible", None)
    if feasible is not None:
        return int(bool(feasible))
    if isinstance(result, tuple) and result and isinstance(result[0], bool):
        return int(result[0])
    return 1
