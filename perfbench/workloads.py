"""Seeded input generators and the per-instance operation sequence of each
benchmark workload.

Generation is plain Python on `random.Random`, so a seed gives the same bytes
on every machine. A generated input is a JSON-ready dict (a "spec"); `build`
turns it into library objects during set-up, and `run_instance` drives the
public probarg API over it, timing each operation on its own.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

# Sizes. Each was picked so that one run of `run_seconds` holds enough
# instances for its medians to repeat from seed to seed (see README.md).
ENTAIL_RANDOM_N = 50
MAXENT_BINDING_N = 12
MAXENT_BINDING_ROWS = 6
CHAIN_N = 1000
SMALL_FILES_N = (4, 10)
ORACLE_MAX_N = 8
# conjunctive queries per generated instance (small-files declares 3); every
# three of them also form one exclusive-DNF query of the batch
BATCH_QUERIES = 9

# Pool sizes: how many distinct instances set-up generates. A run cycles
# through its pool when it finishes it before `--seconds` are up.
POOL = {"entail-random": 150, "maxent-binding": 1500, "chain-large": 30,
        "small-files": 1500}

WORKLOADS = tuple(POOL)

_FLAGS = ("COH", "SFOU", "FOU", "SOPT", "OPT", "JUS", "SCOH", "SSCE", "SCE",
          "SPES", "PES")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _distinct_pairs(rng: random.Random, names: list[str], k: int) -> list[list[str]]:
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < k:
        a, b = rng.sample(names, 2)
        pairs.add((a, b))
    return [list(p) for p in sorted(pairs)]


def _queries(rng: random.Random, names: list[str], count: int = 3) -> list[list]:
    """`count` conjunctive queries of 1-3 literals: [[name, positive], ...]."""
    out = []
    for _ in range(count):
        picked = rng.sample(names, min(len(names), rng.randint(1, 3)))
        out.append([[a, rng.random() < 0.5] for a in picked])
    return out


def _gen_entail_random(rng: random.Random) -> dict:
    n = ENTAIL_RANDOM_N
    names = [f"a{i}" for i in range(n)]
    k = (3 * n) // 2
    return {"names": names, "attacks": _distinct_pairs(rng, names, k),
            "supports": _distinct_pairs(rng, names, k), "flags": ["COH", "SCOH"],
            "rows": [], "queries": _queries(rng, names, BATCH_QUERIES)}


def _gen_maxent_binding(rng: random.Random) -> dict:
    n = MAXENT_BINDING_N
    names = [f"b{i}" for i in range(n)]
    rows = []
    for _ in range(MAXENT_BINDING_ROWS):
        terms = [[1.0, a] for a in sorted(rng.sample(names, 3))]
        rows.append([terms, "<=", round(rng.uniform(0.6, 1.2), 4)])
    # condition on an argument that may be 1 (no row through it bounds it
    # below 1), so the conditional query runs the optimizer, not just its
    # feasibility check
    capped = {a for terms, _, bound in rows if bound < 1.0 for _, a in terms}
    free = [a for a in names if a not in capped]
    return {"names": names, "attacks": [], "supports": [], "flags": [],
            "rows": rows, "queries": _queries(rng, names, BATCH_QUERIES),
            "condition": rng.choice(free or names)}


def _gen_chain_large(rng: random.Random) -> dict:
    names = [f"c{i}" for i in range(CHAIN_N)]
    path = names[:]
    rng.shuffle(path)
    return {"names": names, "attacks": [[path[i], path[i + 1]] for i in range(CHAIN_N - 1)],
            "supports": [], "flags": ["COH", "FOU"], "rows": [],
            "queries": _queries(rng, names, BATCH_QUERIES)}


def _gen_small_file(rng: random.Random) -> dict:
    n = rng.randint(*SMALL_FILES_N)
    names = rng.sample([f"x{i}" for i in range(20)], n)
    lines = [f"# generated small problem, {n} arguments"]
    lines += [f"arg {a}" for a in names]
    lines += [f"att {a} {b}" for a, b in _distinct_pairs(rng, names, rng.randint(0, n))]
    lines += [f"sup {a} {b}" for a, b in _distinct_pairs(rng, names, rng.randint(0, n // 2))]
    lines.append("semantics " + " ".join(rng.sample(_FLAGS, rng.randint(1, 2))))
    for _ in range(rng.randint(0, 3)):
        terms = [f"{rng.choice((-1, -0.5, 0.5, 1, 2))}*{a}"
                 for a in rng.sample(names, rng.randint(1, 3))]
        relation = rng.choice(("<=", "=", ">="))
        lines.append(f"constraint {' + '.join(terms)} {relation} {round(rng.uniform(-0.5, 1.5), 2)}")
    queries = _queries(rng, names)
    for i, q in enumerate(queries, start=1):
        lines.append(f"query q{i} " + " & ".join(a if pos else "!" + a for a, pos in q))
    return {"text": "\n".join(lines) + "\n", "n": n, "condition": rng.choice(names)}


_GENERATORS = {"entail-random": _gen_entail_random, "maxent-binding": _gen_maxent_binding,
               "chain-large": _gen_chain_large, "small-files": _gen_small_file}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's input pool for one seed."""
    rng = _rng(workload, seed)
    gen = _GENERATORS[workload]
    return [gen(rng) for _ in range(POOL[workload])]


def input_bytes(specs: list[dict]) -> bytes:
    """Canonical bytes of a pool, for determinism checks and digests."""
    return json.dumps(specs, sort_keys=True, separators=(",", ":")).encode()


# -- building library objects (set-up) ---------------------------------------


@dataclass
class Instance:
    """One problem, built from its spec, plus what the checks need to know."""

    n: int
    baf: object = None
    cs: object = None          # built in set-up, except where compile is timed
    flags: list = None
    queries: list = None
    dnfs: list = None
    condition: str | None = None
    text: str | None = None    # small-files: the problem file


def _dnfs_of(pa, queries):
    """One disjunction per three consecutive conjunctive queries."""
    return [pa.Or(*[q.to_formula() for q in queries[i:i + 3]])
            for i in range(0, len(queries), 3)]


def build(pa, workload: str, spec: dict) -> Instance:
    """Turn a spec into library objects; `pa` is the imported probarg package."""
    if workload == "small-files":
        return Instance(text=spec["text"], n=spec["n"], condition=spec["condition"])
    baf = pa.BAF(spec["names"], [tuple(e) for e in spec["attacks"]],
                 [tuple(e) for e in spec["supports"]])
    flags = [pa.SemanticsFlag(f) for f in spec["flags"]]
    queries = [pa.ConjunctiveQuery.of([(a, pos) for a, pos in q]) for q in spec["queries"]]
    inst = Instance(baf=baf, flags=flags, queries=queries,
                    dnfs=_dnfs_of(pa, queries), condition=spec.get("condition"), n=baf.n)
    if workload != "chain-large":  # chain-large compiles inside the timed loop
        cs = pa.compile_semantics(baf, flags)
        for terms, relation, bound in spec["rows"]:
            cs.add_raw(pa.RawConstraint.of([(c, a) for c, a in terms], relation, bound))
        inst.cs = cs
    return inst


# -- the timed operation sequence ---------------------------------------------


@dataclass
class Outcome:
    """Results and per-operation wall times of one instance."""

    times: dict[str, int] = field(default_factory=dict)   # op -> nanoseconds
    values: dict[str, object] = field(default_factory=dict)
    errors: dict[str, Exception] = field(default_factory=dict)


def _timed(out: Outcome, op: str, fn, *args, tracer=None):
    """Run one operation, recording its wall time and result or error."""
    span = tracer.open(f"op.{op}") if tracer is not None else None
    t0 = time.perf_counter_ns()
    try:
        value = fn(*args)
    except Exception as exc:  # the gate classifies it; the run goes on
        out.errors[op] = exc
        return None
    finally:
        out.times[op] = time.perf_counter_ns() - t0
        if span is not None:
            tracer.close(span)
    out.values[op] = value
    return value


def _query_batch(mx, L, queries, dnfs):
    return ([mx.conjunctive_query(L, q) for q in queries],
            [mx.exclusive_dnf_query(L, f) for f in dnfs])


def run_instance(pa, workload: str, inst: Instance, tracer=None) -> Outcome:
    """Answer every question the workload asks of one instance.

    Library entry points are looked up on their modules at call time, so a
    tracer that wraps them sees every call, nested ones included.
    """
    from probarg import cli, constraints, maxent as mx, oracle, reasoner

    out = Outcome()
    baf, cs = inst.baf, inst.cs
    if workload == "small-files":
        pf = _timed(out, "parse", cli.parse, inst.text, tracer=tracer)
        if pf is None:
            return out
        baf = pf.baf
        cs = _timed(out, "compile", pf.constraint_set, tracer=tracer)
        queries = [pf.queries[k] for k in sorted(pf.queries)]
        dnfs = _dnfs_of(pa, queries)
    else:
        queries, dnfs = inst.queries, inst.dnfs
        if workload == "chain-large":
            cs = _timed(out, "compile", constraints.compile_semantics, baf, inst.flags,
                        tracer=tracer)
    if cs is None:
        return out
    out.values["baf"], out.values["cs"] = baf, cs

    sat = _timed(out, "sat", reasoner.check_sat, cs, baf, tracer=tracer)
    if sat is not None and sat.satisfiable:
        _timed(out, "entail", reasoner.entail_all, cs, baf, tracer=tracer)
        me = _timed(out, "maxent", mx.maxent_labelling, cs, baf, tracer=tracer)
        if me is not None:
            _timed(out, "query", _query_batch, mx, me.labelling, queries, dnfs, tracer=tracer)
        if inst.condition is not None:
            cond = pa.ConjunctiveQuery.positive([inst.condition])
            _timed(out, "conditional", mx.conditional_query, cs, baf, cond, queries[0],
                   tracer=tracer)
    if workload == "small-files" and inst.n <= ORACLE_MAX_N:
        osat = _timed(out, "oracle_sat", oracle.world_lp_sat, cs, baf, tracer=tracer)
        if osat is not None and osat.satisfiable:
            _timed(out, "oracle_maxent", oracle.world_maxent, cs, baf, tracer=tracer)
    out.values["queries"], out.values["dnfs"] = queries, dnfs
    return out
