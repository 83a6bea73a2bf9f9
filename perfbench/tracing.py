"""Spans recorded from outside the library, and the per-layer metrics derived
from them.

`Tracer.installed()` swaps selected probarg callables for wrappers that record
a span per call: name, start, end, parent span and instance id, plus one
optional number taken from the call (tableau bytes, row count, iterations).
Outside that block the library runs unwrapped, so an untraced run pays
nothing. The benchmark's own operations open root spans named `op.<name>`.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

# (module attribute path, span name, extra) -- extra picks one number from
# (args, result) to keep with the span.
_TARGETS = [
    ("cli.parse", "cli.parse", None),
    ("constraints.compile_semantics", "constraints.compile", None),
    ("cli.compile_semantics", "constraints.compile", None),
    ("constraints.ConstraintSet.as_matrix", "constraints.as_matrix",
     lambda args, res: res[0].shape[0]),
    ("lp.SimplexState.__init__", "lp.build", lambda args, res: args[0].T.nbytes),
    ("lp.SimplexState.ensure_feasible", "lp.phase1", None),
    ("lp.SimplexState.snapshot", "lp.snapshot", None),
    ("lp.SimplexState.restore", "lp.restore", None),
    ("lp.SimplexState.minimize", "lp.minimize", None),
    ("lp.solve_lp", "lp.solve_lp", None),
    ("lp.solve_many", "lp.solve_many", None),
    ("reasoner.check_sat", "reasoner.check_sat", None),
    ("reasoner.entail_all", "reasoner.entail_all", None),
    ("maxent.maxent_labelling", "maxent.labelling",
     lambda args, res: res.iterations if res.converged else -1 - res.iterations),
    ("maxent.maxent_over_polytope", "maxent.over_polytope", None),
    ("oracle.maxent_over_polytope", "maxent.over_polytope", None),
    ("maxent.conjunctive_query", "query.conjunctive", None),
    ("maxent.exclusive_dnf_query", "query.dnf", None),
    ("maxent.conditional_query", "query.conditional", None),
    ("oracle.world_lp_sat", "oracle.world_lp_sat", None),
    ("oracle.world_maxent", "oracle.world_maxent", None),
]

# span layout: [name, start_ns, end_ns, parent, instance, extra]
NAME, START, END, PARENT, INSTANCE, EXTRA = range(6)


class Tracer:
    """Keeps spans in memory; `write` saves them when the run ends."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules  # short name -> module, e.g. "lp"
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = -1

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.instance, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, extra=None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[EXTRA] = extra
        self.stack.pop()

    def _wrap(self, name, fn, extra):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            ok = False
            try:
                res = fn(*args, **kwargs)
                ok = True
                return res
            finally:
                tracer.close(idx, extra(args, res) if ok and extra is not None else None)

        return wrapper

    def _resolve(self, path: str):
        head, *rest = path.split(".")
        owner = self.modules[head]
        for part in rest[:-1]:
            owner = getattr(owner, part)
        return owner, rest[-1]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for path, name, extra in _TARGETS:
                owner, attr = self._resolve(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, extra))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start_ns", "end_ns", "parent",
                                                "instance", "extra"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# -- per-layer metrics ----------------------------------------------------------

# per-layer metric -> unit; every trace run reports all of them (0 where the
# workload never reaches the layer)
LAYER_METRICS = {
    "lp.phase2_ms": "ms", "lp.solves": "count", "lp.ms_per_solve": "ms",
    "lp.phase1_ms": "ms", "lp.build_ms": "ms", "lp.restore_ms": "ms", "lp.tableau_mb": "MB",
    "constraints.compile_ms": "ms", "constraints.as_matrix_ms": "ms", "constraints.rows": "count",
    "maxent.range_lp_ms": "ms", "maxent.iterations": "count", "maxent.oracle_solves": "count",
    "maxent.self_ms": "ms", "maxent.converged_ratio": "ratio",
    "reasoner.self_ms": "ms", "entail.phase2_share": "ratio",
    "cli.parse_ms": "ms", "query.conjunctive_us": "us", "query.dnf_us": "us",
    "query.conditional_self_ms": "ms",
    "oracle.world_lp_ms": "ms", "oracle.world_maxent_ms": "ms",
    "ref.highs_entail_ms": "ms", "trace.overhead_ratio": "ratio",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Per-layer figures as {metric: (value, sample count)}.

    Times are self times: a span's duration minus its children's. Layer times
    and counts are summed per instance and reported as the median over
    instances; per-call figures (queries, oracle, parse, maxent iterations)
    are medians over calls. Work under an `oracle.*` span counts for the
    oracle only.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]

    # context inherited from ancestors; parents always precede their children:
    # (under an oracle call, enclosing maxent_labelling, under solve_many,
    #  enclosing entail_all)
    ctx: list[tuple] = []
    per_inst: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    calls: dict[str, list] = defaultdict(list)
    solves_in_maxent: dict[int, int] = defaultdict(int)
    phase2_in_entail: dict[int, float] = defaultdict(float)
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        self_ms = (dur - child_ns[i]) / 1e6
        in_oracle, maxent_call, in_many, entail_call = (
            ctx[s[PARENT]] if s[PARENT] >= 0 else (False, -1, False, -1))
        if name.startswith("oracle."):
            in_oracle = True
            if name == "oracle.world_lp_sat":
                calls["oracle.world_lp_ms"].append(dur / 1e6)
            elif name == "oracle.world_maxent":
                calls["oracle.world_maxent_ms"].append(dur / 1e6)
        elif name == "maxent.labelling" and not in_oracle:
            maxent_call = i
            solves_in_maxent[i] = 0  # a call that makes no oracle solve still counts
            extra = s[EXTRA]
            if extra is not None:
                calls["maxent.iterations"].append(extra if extra >= 0 else -1 - extra)
                calls["converged"].append(1.0 if extra >= 0 else 0.0)
        elif name == "lp.solve_many":
            in_many = True
        elif name == "reasoner.entail_all":
            entail_call = i
            calls["entail_spans"].append(i)
        ctx.append((in_oracle, maxent_call, in_many, entail_call))
        if in_oracle:
            continue

        acc = per_inst[s[INSTANCE]]
        if name == "lp.minimize":
            acc["lp.phase2_ms"] += self_ms
            acc["lp.solves"] += 1
            if maxent_call >= 0 and not in_many:
                solves_in_maxent[maxent_call] += 1
            if entail_call >= 0:
                phase2_in_entail[entail_call] += self_ms
        elif name == "lp.phase1":
            acc["lp.phase1_ms"] += self_ms
        elif name == "lp.build":
            acc["lp.build_ms"] += self_ms
            acc["lp.tableau_mb"] = max(acc["lp.tableau_mb"], (s[EXTRA] or 0) / 1e6)
        elif name in ("lp.snapshot", "lp.restore"):
            acc["lp.restore_ms"] += self_ms
        elif name == "lp.solve_many" and maxent_call >= 0:
            acc["maxent.range_lp_ms"] += dur / 1e6
        elif name == "constraints.compile":
            acc["constraints.compile_ms"] += self_ms
        elif name == "constraints.as_matrix":
            acc["constraints.as_matrix_ms"] += self_ms
            acc["constraints.rows"] = max(acc["constraints.rows"], s[EXTRA] or 0)
        elif name in ("maxent.labelling", "maxent.over_polytope"):
            acc["maxent.self_ms"] += self_ms
        elif name in ("reasoner.check_sat", "reasoner.entail_all"):
            acc["reasoner.self_ms"] += self_ms
        elif name == "cli.parse":
            calls["cli.parse_ms"].append(dur / 1e6)
        elif name == "query.conjunctive":
            calls["query.conjunctive_us"].append(dur / 1e3)
        elif name == "query.dnf":
            calls["query.dnf_us"].append(dur / 1e3)
        elif name == "query.conditional":
            calls["query.conditional_self_ms"].append(self_ms)

    out: dict[str, tuple[float, int]] = {}
    accs = [per_inst[k] for k in sorted(per_inst)]
    for key in ("lp.phase2_ms", "lp.solves", "lp.phase1_ms", "lp.build_ms", "lp.restore_ms",
                "lp.tableau_mb", "constraints.compile_ms", "constraints.as_matrix_ms",
                "constraints.rows", "maxent.range_lp_ms", "maxent.self_ms", "reasoner.self_ms"):
        out[key] = (_median([a[key] for a in accs]), len(accs))
    solves = sum(a["lp.solves"] for a in accs)
    out["lp.ms_per_solve"] = (sum(a["lp.phase2_ms"] for a in accs) / solves if solves else 0.0,
                              int(solves))
    out["maxent.oracle_solves"] = (_median(list(solves_in_maxent.values())), len(solves_in_maxent))
    conv = calls["converged"]
    out["maxent.converged_ratio"] = (sum(conv) / len(conv) if conv else 0.0, len(conv))
    shares = [phase2_in_entail[i] * 1e6 / (spans[i][END] - spans[i][START])
              for i in calls["entail_spans"]]
    out["entail.phase2_share"] = (_median(shares), len(shares))
    for key in ("maxent.iterations", "cli.parse_ms", "query.conjunctive_us", "query.dnf_us",
                "query.conditional_self_ms", "oracle.world_lp_ms", "oracle.world_maxent_ms"):
        out[key] = (_median(calls[key]), len(calls[key]))
    return out
