"""Batch command-line front end.

Reads definition files, runs the named construction or check, and emits a
deterministic JSON report (stdout, or --json PATH) plus optional DOT
diagrams.  Timing goes to stderr so reports stay byte-identical for a
fixed seed.  Exit codes: 0 success, 1 check failure, 2 usage or parse
error, 3 size guard exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from functools import cache

from .algebra import (
    CheckOutcome,
    FinAlgebra,
    first_failure,
    is_entropic,
    is_homomorphism,
    is_relaxed_entropic,
    is_relaxed_morphism,
)
from .catalog import builtin_algebras
from .defs import load_workspace, ptransformer_literal, transformer_literal
from .errors import PowdomError, SizeGuardExceeded, UnknownName
from .monad import functional_space, p_transform, q_transform
from .powerdomain import (
    SET_POWERDOMAINS,
    PredAlgebra,
    catalog_valuations,
    check_linear_side,
    dirac,
    domination_check,
    sobrification,
    valuation_leq,
)
from .poset import sub_poset
from .report import Report
from .sampling import (
    DEFAULT_SEED,
    DEFAULT_SIZE_GUARD,
    DEFAULT_TRIALS,
    task_rng,
)
from .verify import MIN_CATALOG_MAX, SuiteConfig, run_suite


def _add_common(parser):
    parser.add_argument("-f", "--defs", action="append", default=[], metavar="FILE",
                        help="definition file (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--size-guard", type=int, default=DEFAULT_SIZE_GUARD)
    parser.add_argument("--json", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--dot", metavar="PATH", help="write a DOT diagram here")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves the parser unchanged, so every ``main`` call in one
    interpreter shares it; building it costs more than most commands.
    """
    parser = argparse.ArgumentParser(
        prog="powdom",
        description="enumerate, construct and property-check powerdomain structures",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="entropicity / relaxed entropicity of an algebra")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--entropic", action="store_true")
    group.add_argument("--relaxed", action="store_true")
    p.add_argument("algebra")
    _add_common(p)

    p = sub.add_parser("powerdomain", help="build a powerdomain over a poset")
    p.add_argument("kind", choices=["hoare", "smyth", "sober", "valuations"])
    p.add_argument("poset")
    _add_common(p)

    for family in ("homs", "free", "relaxed"):
        p = sub.add_parser(family, help=f"list the {family} functional family")
        p.add_argument("poset")
        p.add_argument("algebra")
        _add_common(p)

    p = sub.add_parser("transform", help="convert between state and predicate transformers")
    p.add_argument("direction", choices=["p2q", "q2p"])
    p.add_argument("name")
    _add_common(p)

    p = sub.add_parser("valuation", help="check a valuation / functional combination")
    p.add_argument("name")
    p.add_argument("--against", metavar="NAME",
                   help="also run the domination check against this functional")
    _add_common(p)

    p = sub.add_parser("verify-suite", help="run the full built-in verification suite")
    p.add_argument("--catalog-max", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("export-dot", help="write the Hasse diagram of a poset")
    p.add_argument("poset")
    _add_common(p)
    return parser


def _family_payload(space, indices):
    return {
        "count": len(indices),
        "poset_size": space.x.size,
        "carrier_size": space.algebra.carrier.size,
        "predicate_count": len(space.predicates),
        "functional_count": len(space.space),
        "elements": [
            {
                "key": space.functional(i).key(),
                "table": {
                    space.predicates.maps[g].key(): space.algebra.carrier.labels[
                        space.functional(i).table[g]
                    ]
                    for g in range(len(space.predicates))
                },
            }
            for i in sorted(indices)
        ],
    }


def _cmd_check(args, ws, report):
    algebra = ws.algebra(args.algebra)
    rng = task_rng(args.seed, f"check.{args.algebra}")
    if args.entropic:
        result = is_entropic(algebra, rng, args.trials)
    else:
        result = is_relaxed_entropic(algebra, rng, args.trials)
    report.add(result)
    report.payload["algebra"] = algebra.name


def _cmd_powerdomain(args, ws, report):
    poset = ws.poset(args.poset)
    if args.kind in SET_POWERDOMAINS:
        side, build = SET_POWERDOMAINS[args.kind]
        result = build(poset, ws.algebra(side.algebra), args.size_guard)
        report.extend(result.checks)
        report.payload["powerdomain"] = result.as_record()
        dot_poset = result.set_poset
    elif args.kind == "sober":
        points, checks = sobrification(poset, ws.algebra("frame2"), args.size_guard)
        report.extend(checks)
        report.payload["points"] = [p.key() for p in points]
        report.payload["count"] = len(points)
        dot_poset = poset
    else:
        report.payload.update(_valuation_powerdomain(args, poset, report))
        dot_poset = poset
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_poset.dot(f"{args.kind}_{args.poset}"))


def _valuation_powerdomain(args, poset, report):
    """Desk-scale view of the valuation powerdomain: the point evaluations,
    their order (an embedded copy of the poset), and the engine's laws."""
    diracs = [dirac(poset, i) for i in range(poset.size)]
    misordered = (
        {"x": poset.labels[i], "y": poset.labels[j]}
        for i, j in itertools.product(range(poset.size), repeat=2)
        if valuation_leq(diracs[i], diracs[j], args.size_guard) != poset.leq[i][j]
    )
    report.add(first_failure("valuations:point-evaluations-embed", misordered))
    # each valuation a homomorphism into the cone, over the grid alone
    cone = builtin_algebras()["rplus_cone"]
    preds = PredAlgebra(cone, poset, args.size_guard)
    nonlinear = (
        {"mu": mu.literal(), **check.witness}
        for mu in catalog_valuations(poset)
        if not (check := is_homomorphism(mu, preds, cone))
    )
    report.add(first_failure("valuations:simple-valuations-linear", nonlinear))
    return {"points": [d.literal() for d in diracs], "count": len(diracs)}


def _cmd_family(args, ws, report, family):
    poset = ws.poset(args.poset)
    algebra = ws.algebra(args.algebra)
    if not isinstance(algebra, FinAlgebra):
        raise UnknownName("functional families need a finite observation algebra")
    space = functional_space(poset, algebra, args.size_guard)
    # each family filter runs only when its property is read
    indices = getattr(space, "hom_indices" if family == "homs" else f"{family}_indices")
    report.payload["family"] = family
    report.payload["poset"] = args.poset
    report.payload["algebra"] = algebra.name
    report.payload[family] = _family_payload(space, indices)
    if family != "homs":
        homs = set(space.hom_indices)
        other = set(indices)
        report.payload["comparison"] = {
            "hom_count": len(homs),
            f"{family}_count": len(other),
            "equal": homs == other,
            f"{family}_minus_hom": [
                space.functional(i).key() for i in sorted(other - homs)
            ],
            f"hom_minus_{family}": [
                space.functional(i).key() for i in sorted(homs - other)
            ],
        }
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(
                sub_poset(space.space.poset, sorted(indices)).dot(
                    f"{family}_{args.poset}_{algebra.name}"
                )
            )


def _classify_ptransformer(s):
    hom = is_homomorphism(s.as_map(), s.y_space.pred_algebra, s.x_space.pred_algebra)
    if hom.passed:
        return "hom"
    relaxed = is_relaxed_morphism(
        s.as_map(), s.y_space.pred_algebra, s.x_space.pred_algebra
    )
    return "relaxed" if relaxed.passed else "neither"


def _cmd_transform(args, ws, report):
    if args.direction == "p2q":
        t = ws.transformer(args.name)
        s = p_transform(t)
        x_name = _poset_name(ws, t.source)
        y_name = _poset_name(ws, t.space.x)
        literal = ptransformer_literal(
            f"{args.name}_p", s, y_name, x_name, t.space.algebra.name
        )
    else:
        s = ws.ptransformer(args.name)
        t = q_transform(s)
        x_name = _poset_name(ws, t.source)
        y_name = _poset_name(ws, t.space.x)
        literal = transformer_literal(
            f"{args.name}_q", t, x_name, y_name, t.space.algebra.name
        )
        s = p_transform(t)
    classification = _classify_ptransformer(s)
    report.payload["direction"] = args.direction
    report.payload["name"] = args.name
    report.payload["result"] = literal
    report.payload["classification"] = classification
    report.add(CheckOutcome("transform:converted", True))


def _poset_name(ws, poset):
    for name, p in ws.posets.items():
        if p == poset:
            return name
    return "?"


def _cmd_valuation(args, ws, report):
    phi = ws.functional(args.name)
    report.payload["name"] = args.name
    for side in phi.sides:
        report.add(check_linear_side(phi, side, args.trials, args.seed, args.size_guard))
    if args.against:
        target = ws.functional(args.against)
        mu = ws.valuation(args.name)
        report.add(domination_check(mu, target, args.trials, args.seed, args.size_guard))
        report.payload["against"] = args.against


def _cmd_export_dot(args, ws, report):
    poset = ws.poset(args.poset)
    text = poset.dot(args.poset)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text)
    report.payload["dot"] = text
    report.add(CheckOutcome("export-dot", True))


def _command_echo(argv) -> str:
    """The command line without its output destinations, which are not
    semantic inputs, so reports stay identical wherever they are written.

    ``--json`` and ``--dot`` are dropped in every spelling the parser
    accepts: ``--json PATH``, ``--json=PATH`` and unique prefixes such as
    ``--js PATH`` (``--d`` is ambiguous with ``--defs`` and refused)."""
    parts = []
    tokens = iter(argv)
    for tok in tokens:
        option, eq, _ = tok.partition("=")
        if len(option) > 2 and ("--json".startswith(option) or "--dot".startswith(option)):
            if not eq:
                next(tokens, None)
            continue
        parts.append(tok)
    return " ".join(parts)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "verify-suite" and args.catalog_max < MIN_CATALOG_MAX:
        print(f"error: --catalog-max must be at least {MIN_CATALOG_MAX}", file=sys.stderr)
        return 2
    if args.trials < 0:
        print("error: --trials must be at least 0", file=sys.stderr)
        return 2
    if args.size_guard < 1:
        print("error: --size-guard must be at least 1", file=sys.stderr)
        return 2

    command_echo = _command_echo(argv if argv is not None else sys.argv[1:])
    config = {
        "seed": args.seed,
        "trials": args.trials,
        "size_guard": args.size_guard,
    }
    started = time.monotonic()
    try:
        if args.cmd == "verify-suite":
            cfg = SuiteConfig(
                seed=args.seed,
                trials=args.trials,
                size_guard=args.size_guard,
                catalog_max=args.catalog_max,
            )
            report = run_suite(cfg, command_echo)
        else:
            ws = load_workspace(args.defs, args.size_guard)
            report = Report(command_echo, config)
            if args.cmd == "check":
                _cmd_check(args, ws, report)
            elif args.cmd == "powerdomain":
                _cmd_powerdomain(args, ws, report)
            elif args.cmd in ("homs", "free", "relaxed"):
                _cmd_family(args, ws, report, args.cmd)
            elif args.cmd == "transform":
                _cmd_transform(args, ws, report)
            elif args.cmd == "valuation":
                _cmd_valuation(args, ws, report)
            elif args.cmd == "export-dot":
                _cmd_export_dot(args, ws, report)
    except SizeGuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PowdomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = report.to_json()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.json}")
    else:
        sys.stdout.write(text)
    elapsed = time.monotonic() - started
    print(f"completed in {elapsed:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
