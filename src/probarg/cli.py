"""Problem-file parser and command-line front end.

File format (one directive per line, '#' starts a comment):

    arg <name>
    att <src> <dst>
    sup <src> <dst>
    semantics <FLAG> [<FLAG> ...]
    constraint <c>*<arg> [+ <c>*<arg>]... (<=|=|>=) <num>
    query <name> <literal> [& <literal>]...     literal: <arg> or !<arg>

Exit codes: 0 success, 1 UNSAT reported by `sat`, 2 usage or parse error,
3 solver failure or violated precondition (unsatisfiable input to entail,
maxent or query; inconsistent condition; a query whose maximum-entropy
labelling is not certified optimal; instance over the oracle limit).
"""
from __future__ import annotations

import argparse
import json
import re
import signal
import sys
from dataclasses import dataclass, field

from .constraints import (ConstraintSet, RawConstraint, SemanticsFlag,
                          compile_semantics)
from .errors import (ConditionInconsistentError, LimitExceededError, ParseError,
                     ProbArgError, SolverError, StructuralError,
                     UnknownArgumentError, UnsatisfiableError)
from .maxent import (ConjunctiveQuery, conditional_query, conjunctive_query,
                     exclusive_dnf_query, maxent_labelling)
from .model import (BAF, And, Atom, Formula, Not, Or, entropy_distribution,
                    labelling_of)
from .oracle import world_lp_entail, world_lp_sat, world_maxent
from .reasoner import check_sat, entail, entail_all

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_TERM_RE = re.compile(r"^([^*]+)\*([A-Za-z0-9_]+)$")


@dataclass
class ProblemFile:
    baf: BAF
    flags: tuple[SemanticsFlag, ...] = ()
    user_constraints: tuple[RawConstraint, ...] = ()
    queries: dict[str, ConjunctiveQuery] = field(default_factory=dict)

    def constraint_set(self) -> ConstraintSet:
        cs = compile_semantics(self.baf, self.flags)
        for raw in self.user_constraints:
            cs.add_raw(raw, "user")
        return cs

    def __eq__(self, other):
        return (isinstance(other, ProblemFile) and self.baf == other.baf
                and set(self.flags) == set(other.flags)
                and self.user_constraints == other.user_constraints
                and self.queries == other.queries)


def parse(text: str) -> ProblemFile:
    """Parse a problem file; raises ParseError with a line number on bad input."""
    names: list[str] = []
    declared: set[str] = set()
    attacks: list[tuple[str, str]] = []
    supports: list[tuple[str, str]] = []
    flags: list[SemanticsFlag] = []
    saw_semantics = False
    constraints: list[RawConstraint] = []
    queries: dict[str, ConjunctiveQuery] = {}

    def need_declared(no, name):
        if name not in declared:
            raise ParseError(no, f"unknown argument {name!r}")

    for no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        if head == "arg":
            if len(rest) != 1:
                raise ParseError(no, "arg takes exactly one name")
            name = rest[0]
            if not _NAME_RE.match(name):
                raise ParseError(no, f"invalid argument name {name!r}")
            if name in declared:
                raise ParseError(no, f"duplicate argument {name!r}")
            declared.add(name)
            names.append(name)
        elif head in ("att", "sup"):
            if len(rest) != 2:
                raise ParseError(no, f"{head} takes exactly two names")
            for name in rest:
                need_declared(no, name)
            (attacks if head == "att" else supports).append((rest[0], rest[1]))
        elif head == "semantics":
            if saw_semantics:
                raise ParseError(no, "at most one semantics line is allowed")
            saw_semantics = True
            if not rest:
                raise ParseError(no, "semantics line needs at least one flag")
            for token in rest:
                try:
                    flags.append(SemanticsFlag.parse(token))
                except StructuralError:
                    raise ParseError(no, f"unknown semantics flag {token!r}") from None
        elif head == "constraint":
            constraints.append(_parse_constraint(no, rest, declared))
        elif head == "query":
            if len(rest) < 2:
                raise ParseError(no, "query needs a name and at least one literal")
            qname = rest[0]
            if qname in queries:
                raise ParseError(no, f"duplicate query name {qname!r}")
            try:
                queries[qname] = _parse_literals(no, rest[1:], declared)
            except StructuralError as exc:
                raise ParseError(no, str(exc)) from None
        else:
            raise ParseError(no, f"unknown directive {head!r}")

    baf = BAF(names, attacks, supports)
    ordered_flags = tuple(f for f in SemanticsFlag if f in set(flags))
    return ProblemFile(baf, ordered_flags, tuple(constraints), queries)


def _parse_constraint(no: int, tokens: list[str], declared: set[str]) -> RawConstraint:
    rel_positions = [i for i, t in enumerate(tokens) if t in ("<=", "=", ">=")]
    if len(rel_positions) != 1:
        raise ParseError(no, "constraint needs exactly one relation (<=, = or >=)")
    rel_at = rel_positions[0]
    relation = tokens[rel_at]
    if rel_at != len(tokens) - 2:
        raise ParseError(no, "constraint must end with a single bound after the relation")
    try:
        bound = float(tokens[-1])
    except ValueError:
        raise ParseError(no, f"malformed bound {tokens[-1]!r}") from None
    term_tokens = tokens[:rel_at]
    if not term_tokens:
        raise ParseError(no, "constraint needs at least one term")
    expect_term = True
    terms = []
    for t in term_tokens:
        if expect_term:
            m = _TERM_RE.match(t)
            if not m:
                raise ParseError(no, f"malformed term {t!r} (expected <coeff>*<arg>)")
            coeff_text, name = m.group(1), m.group(2)
            try:
                coeff = float(coeff_text)
            except ValueError:
                raise ParseError(no, f"malformed coefficient {coeff_text!r}") from None
            if name not in declared:
                raise ParseError(no, f"unknown argument {name!r}")
            terms.append((coeff, name))
            expect_term = False
        else:
            if t != "+":
                raise ParseError(no, f"expected '+' between terms, got {t!r}")
            expect_term = True
    if expect_term:
        raise ParseError(no, "constraint ends with a dangling '+'")
    try:
        return RawConstraint.of(terms, relation, bound)
    except StructuralError as exc:
        raise ParseError(no, str(exc)) from None


def _parse_literals(no: int, tokens: list[str], declared: set[str]) -> ConjunctiveQuery:
    expect_literal = True
    literals = []
    for t in tokens:
        if expect_literal:
            positive = not t.startswith("!")
            name = t[1:] if not positive else t
            if not _NAME_RE.match(name):
                raise ParseError(no, f"malformed literal {t!r}")
            if name not in declared:
                raise ParseError(no, f"unknown argument {name!r}")
            literals.append((name, positive))
            expect_literal = False
        else:
            if t != "&":
                raise ParseError(no, f"expected '&' between literals, got {t!r}")
            expect_literal = True
    if expect_literal:
        raise ParseError(no, "query ends with a dangling '&'")
    return ConjunctiveQuery.of(literals)


def format_problem(pf: ProblemFile) -> str:
    """Render a ProblemFile back into the line format; parse(format(pf)) == pf."""
    out = []
    for a in pf.baf.args:
        out.append(f"arg {a.name}")
    for src, dst in sorted((s.name, d.name) for s, d in pf.baf.attacks):
        out.append(f"att {src} {dst}")
    for src, dst in sorted((s.name, d.name) for s, d in pf.baf.supports):
        out.append(f"sup {src} {dst}")
    if pf.flags:
        out.append("semantics " + " ".join(f.value for f in pf.flags))
    for raw in pf.user_constraints:
        body = " + ".join(f"{c!r}*{n}" for n, c in raw.terms)
        out.append(f"constraint {body} {raw.relation} {raw.bound!r}")
    for qname in sorted(pf.queries):
        q = pf.queries[qname]
        body = " & ".join(n if b else "!" + n for n, b in q.literals)
        out.append(f"query {qname} {body}")
    return "\n".join(out) + "\n"


# -- query-string parsing (CLI only) -----------------------------------------


class _FormulaParser:
    """Tiny recursive-descent parser: '!' binds tighter than '&', '&' than '|'."""

    def __init__(self, text: str):
        self.tokens = re.findall(r"[A-Za-z0-9_]+|[!&|()]", text)
        if "".join(self.tokens) != re.sub(r"\s+", "", text):
            raise StructuralError(f"cannot tokenize query string {text!r}")
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self) -> Formula:
        f = self.parse_or()
        if self.peek() is not None:
            raise StructuralError(f"trailing token {self.peek()!r} in query string")
        return f

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.peek() == "|":
            self.take()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(*parts)

    def parse_and(self) -> Formula:
        parts = [self.parse_unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(*parts)

    def parse_unary(self) -> Formula:
        t = self.take()
        if t is None:
            raise StructuralError("query string ended unexpectedly")
        if t == "!":
            return Not(self.parse_unary())
        if t == "(":
            f = self.parse_or()
            if self.take() != ")":
                raise StructuralError("unbalanced parenthesis in query string")
            return f
        if not _NAME_RE.match(t):
            raise StructuralError(f"unexpected token {t!r} in query string")
        return Atom(t)


def parse_query_formula(text: str) -> Formula:
    return _FormulaParser(text).parse()


def parse_query_conjunction(text: str) -> ConjunctiveQuery:
    """Parse 'A & !B & C' into a conjunctive query; rejects '|' and parens."""
    f = parse_query_formula(text)
    literals = []

    def walk(node):
        if isinstance(node, Atom):
            literals.append((node.name, True))
        elif isinstance(node, Not) and isinstance(node.inner, Atom):
            literals.append((node.inner.name, False))
        elif isinstance(node, And):
            for p in node.parts:
                walk(p)
        else:
            raise StructuralError(
                "expected a conjunction of literals; use --dnf for general formulas")

    walk(f)
    return ConjunctiveQuery.of(literals)


# -- command dispatch ---------------------------------------------------------


def _print_report(args, status: str, values: dict, diagnostics: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps({"status": status, "values": values, "diagnostics": diagnostics},
                         sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load(args) -> ProblemFile:
    with open(args.file, encoding="utf-8") as fh:
        return parse(fh.read())


def _labelling_lines(L) -> list[str]:
    return [f"  L({a.name})={v:.6f}" for a, v in L.items()]


def _cmd_sat(args) -> int:
    pf = _load(args)
    res = check_sat(pf.constraint_set(), pf.baf)
    witness = {a.name: v for a, v in res.witness.items()} if res.witness else None
    status = "SAT" if res.satisfiable else "UNSAT"
    lines = [f"{status} value={res.inconsistency_value:.6f}"]
    if res.witness is not None:
        lines.append("witness:")
        lines.extend(_labelling_lines(res.witness))
    _print_report(args, status,
                  {"inconsistency_value": res.inconsistency_value, "witness": witness},
                  {"arguments": pf.baf.n, "constraints": len(pf.constraint_set())},
                  lines)
    return 0 if res.satisfiable else 1


def _cmd_entail(args) -> int:
    pf = _load(args)
    bounds = entail(pf.constraint_set(), pf.baf, args.argument)
    _print_report(args, "ok",
                  {"argument": args.argument, "lower": bounds.lower, "upper": bounds.upper},
                  {}, [f"{args.argument}: [{bounds.lower:.6f}, {bounds.upper:.6f}]"])
    return 0


def _cmd_entail_all(args) -> int:
    pf = _load(args)
    allb = entail_all(pf.constraint_set(), pf.baf)
    values = {a.name: {"lower": b.lower, "upper": b.upper} for a, b in allb.items()}
    lines = [f"{a.name}: [{b.lower:.6f}, {b.upper:.6f}]" for a, b in allb.items()]
    _print_report(args, "ok", values, {}, lines)
    return 0


def _cmd_maxent(args) -> int:
    pf = _load(args)
    res = maxent_labelling(pf.constraint_set(), pf.baf)
    values = {"labelling": {a.name: v for a, v in res.labelling.items()},
              "entropy": res.entropy}
    diag = {"iterations": res.iterations, "gap": res.gap, "converged": res.converged}
    lines = _labelling_lines(res.labelling) + [f"entropy={res.entropy:.6f}"]
    if not res.converged:
        lines.append(f"warning: not converged (gap={res.gap:.3g})")
    _print_report(args, "ok", values, diag, lines)
    return 0


def _resolve_query(pf: ProblemFile, text: str) -> ConjunctiveQuery:
    if text in pf.queries:
        return pf.queries[text]
    return parse_query_conjunction(text)


def _cmd_query(args) -> int:
    pf = _load(args)
    cs = pf.constraint_set()
    if args.dnf:
        if args.condition:
            raise StructuralError("--dnf and --condition cannot be combined")
        if args.query in pf.queries:
            formula = pf.queries[args.query].to_formula()
        else:
            formula = parse_query_formula(args.query)
        L = maxent_labelling(cs, pf.baf).certified_labelling()
        value = exclusive_dnf_query(L, formula, limit=args.max_args)
    elif args.condition:
        condition = parse_query_conjunction(args.condition)
        target = _resolve_query(pf, args.query)
        value = conditional_query(cs, pf.baf, condition, target)
    else:
        target = _resolve_query(pf, args.query)
        L = maxent_labelling(cs, pf.baf).certified_labelling()
        value = conjunctive_query(L, target)
    _print_report(args, "ok",
                  {"query": args.query, "condition": args.condition, "probability": value},
                  {}, [f"{value:.6f}"])
    return 0


def _cmd_oracle(args) -> int:
    pf = _load(args)
    cs = pf.constraint_set()
    if args.oracle_command == "sat":
        res = world_lp_sat(cs, pf.baf, max_args=args.max_args)
        status = "SAT" if res.satisfiable else "UNSAT"
        witness = {a.name: v for a, v in res.witness.items()} if res.witness else None
        lines = [f"{status} value={res.inconsistency_value:.6f}"]
        _print_report(args, status,
                      {"inconsistency_value": res.inconsistency_value, "witness": witness},
                      {"worlds": 1 << pf.baf.n}, lines)
        return 0 if res.satisfiable else 1
    if args.oracle_command == "entail":
        formula = parse_query_formula(args.argument)
        bounds = world_lp_entail(cs, pf.baf, formula, max_args=args.max_args)
        _print_report(args, "ok",
                      {"query": args.argument, "lower": bounds.lower, "upper": bounds.upper},
                      {"worlds": 1 << pf.baf.n},
                      [f"{args.argument}: [{bounds.lower:.6f}, {bounds.upper:.6f}]"])
        return 0
    # maxent
    dist = world_maxent(cs, pf.baf, max_args=args.max_args)
    L = labelling_of(dist)
    values = {"marginals": {a.name: v for a, v in L.items()},
              "entropy": entropy_distribution(dist),
              "worlds": [float(p) for p in dist.probs]}
    lines = _labelling_lines(L) + [f"entropy={entropy_distribution(dist):.6f}"]
    _print_report(args, "ok", values, {"worlds": 1 << pf.baf.n}, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="probarg",
                                description="probabilistic argumentation solver")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("file", help="problem file")
        sp.add_argument("--json", action="store_true", help="emit one JSON object")

    sp = sub.add_parser("sat", help="satisfiability and inconsistency value")
    common(sp)
    sp.set_defaults(fn=_cmd_sat)

    sp = sub.add_parser("entail", help="probability bounds for one argument")
    common(sp)
    sp.add_argument("argument")
    sp.set_defaults(fn=_cmd_entail)

    sp = sub.add_parser("entail-all", help="probability bounds for every argument")
    common(sp)
    sp.set_defaults(fn=_cmd_entail_all)

    sp = sub.add_parser("maxent", help="maximum-entropy labelling")
    common(sp)
    sp.set_defaults(fn=_cmd_maxent)

    sp = sub.add_parser("query", help="conjunctive query under maximum entropy")
    common(sp)
    sp.add_argument("query", help="query name from the file, or a literal string like 'A & !B'")
    sp.add_argument("--condition", help="positive conjunction to condition on (recomputes the model)")
    sp.add_argument("--dnf", action="store_true",
                    help="treat the query as a general formula and expand it")
    sp.add_argument("--max-args", type=int, default=20,
                    help="argument limit for the DNF expansion")
    sp.set_defaults(fn=_cmd_query)

    sp = sub.add_parser("oracle", help="brute-force world-space counterparts")
    sp.add_argument("oracle_command", choices=["sat", "entail", "maxent"])
    common(sp)
    sp.add_argument("argument", nargs="?",
                    help="argument or formula string (oracle entail only)")
    sp.add_argument("--max-args", type=int, default=16,
                    help="refuse instances with more arguments than this")
    sp.set_defaults(fn=_cmd_oracle)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "command", None) == "oracle" and args.oracle_command == "entail" \
                and not args.argument:
            print("error: oracle entail needs an argument or formula", file=sys.stderr)
            return 2
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, UnknownArgumentError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnsatisfiableError, ConditionInconsistentError, LimitExceededError,
            SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ProbArgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    # a reader that closes the pipe early (`probarg ... | head -1`) ends the
    # process quietly, as it ends `cat`, instead of a BrokenPipeError traceback
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
