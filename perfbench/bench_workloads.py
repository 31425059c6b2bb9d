"""Inputs, jobs and output checks of the three benchmark workloads.

A job is one powdom command together with the checks of its output.  Every
workload builds its inputs from the seed before any timing starts, together
with the answers the checks expect; those answers come from the oracles in
``bench_oracles`` or from properties the method must have, never from
powdom itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from bench_oracles import DEDEKIND, DoubleExp, cover_pairs, down_sets, up_sets

# verify-suite settings; the default config (trials 10000, catalog_max 4)
# takes over a minute on a 2-core machine.  So that a run averages over
# three rounds, the suite runs with fewer sampled trials and the posets of
# up to two elements (2 is the least that runs: the algebra section lifts
# over A2), about 13 s a round
SUITE_TRIALS = 100
SUITE_CATALOG_MAX = 2

SESSION_TRIALS = 200
CHECK_TRIALS = 100


@dataclass
class Job:
    """One powdom command; ``check(report, code)`` returns None when the
    output is right and a reason otherwise."""

    name: str
    argv: list
    check: Callable
    known_fault: bool = False
    report_path: str = ""
    after: Optional[Callable] = None  # runs on the report once it is read


@dataclass
class Workload:
    name: str
    in_process: bool  # session jobs share one interpreter
    probe_defs: list  # definition files the set-up probe loads
    jobs: list = field(default_factory=list)  # one round, in order


# ---------------------------------------------------------------------------
# shared helpers


def _labels(rng, count):
    out = []
    while len(out) < count:
        label = rng.choice("bdfgkmnprstvz") + rng.choice("aeiou") + str(rng.randrange(10))
        if label not in out:
            out.append(label)
    return out


class Shape:
    """A poset shape with seeded labels and listing order."""

    def __init__(self, rng, name, n, covers):
        self.name = name
        self.n = n
        names = _labels(rng, n)
        slot = rng.sample(range(n), n)  # canonical element -> listing position
        self.labels = [None] * n
        for canon, pos in enumerate(slot):
            self.labels[pos] = names[canon]
        self.covers = [(slot[lo], slot[hi]) for lo, hi in covers]
        rng.shuffle(self.covers)
        self.exp = DoubleExp(n, self.covers)

    def text(self):
        lines = [f"poset {self.name}", "elems " + " ".join(self.labels)]
        lines += [f"le {self.labels[lo]} {self.labels[hi]}" for lo, hi in self.covers]
        lines.append("end")
        return "\n".join(lines) + "\n"


def _failed_record(report):
    """First record anywhere in the report whose verdict is fail."""
    stack = [report]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if node.get("verdict") == "fail":
                return node.get("name", node.get("kind", "?"))
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return None


def _passes(report, code):
    if report is None:
        return f"no report (exit {code})"
    if code != 0:
        return f"exit {code}"
    failed = _failed_record(report)
    if failed is not None:
        return f"record {failed} failed"
    return None


def _expect(pairs):
    """First mismatch among (what, got, want) triples."""
    for what, got, want in pairs:
        if got != want:
            return f"{what}: got {got!r}, want {want!r}"
    return None


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# suite


def _source_digest(root):
    """sha256 over powdom's source files, so stored report digests are only
    compared between runs of the same code."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "powdom")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def suite_workload(root, out, seed, sha_store):
    """``verify-suite`` in a fresh interpreter; every record must pass and
    reports at one seed must be byte-identical.  ``sha_store`` persists the
    sha256 per seed and source version across runs in the same checkout."""
    report_path = os.path.join(out, "suite.json")
    argv = [
        "verify-suite",
        "--seed", str(seed),
        "--trials", str(SUITE_TRIALS),
        "--catalog-max", str(SUITE_CATALOG_MAX),
        "--json", report_path,
    ]
    key = f"{seed}:{SUITE_TRIALS}:{SUITE_CATALOG_MAX}:{_source_digest(root)}"

    def check(report, code):
        reason = _passes(report, code)
        if reason is not None:
            return reason
        if not report.get("checks"):
            return "report holds no records"
        with open(report_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        known = sha_store.setdefault(key, digest)
        if known != digest:
            return f"report sha256 {digest} differs from {known} at the same seed"
        return None

    job = Job("suite", argv, check, report_path=report_path)
    return Workload("suite", False, [], [job])


# ---------------------------------------------------------------------------
# double-exp


_DE_SHAPES = (
    ("A3", 3, []),
    ("A4", 4, []),
    ("A4bot", 5, [(0, i) for i in range(1, 5)]),
    ("A2C3", 5, [(2, 3), (3, 4)]),
)


def _join_le_algebra(rng):
    """A join algebra on a two-element chain: join tagged LE, zero GE."""
    lo, hi = _labels(rng, 2)
    listed = [lo, hi]
    rng.shuffle(listed)
    val = {lo: 0, hi: 1}
    name = {0: lo, 1: hi}
    table = "; ".join(
        f"({a},{b})->{name[max(val[a], val[b])]}" for a in listed for b in listed
    )
    return (
        f"poset B2\nelems {' '.join(listed)}\nle {lo} {hi}\nend\n\n"
        "algebra joinle on B2\n"
        "op join arity 2 tag LE\n"
        "op zero arity 0 tag GE\n"
        f"table join {{ {table} }}\n"
        f"table zero {{ () -> {lo} }}\n"
        "end\n"
    )


def double_exp_workload(out, seed):
    """Cold family and powerdomain commands on the A4-class shapes, one
    fresh process each."""
    rng = random.Random(f"double-exp:{seed}")
    shapes = {name: Shape(rng, name, n, covers) for name, n, covers in _DE_SHAPES}
    blocks = [s.text() for s in shapes.values()] + [_join_le_algebra(rng)]
    rng.shuffle(blocks)
    defs = os.path.join(out, "double_exp.defs")
    _write(defs, "\n".join(blocks))

    expected = {}
    for name, s in shapes.items():
        d = s.exp
        e = {
            "preds": len(d.preds),
            "functionals": len(d.functionals),
            "downs": len(down_sets(d.up)),
            "ups": len(up_sets(d.up)),
            "2_ang": len(d.join_homs()),
            "2_dem": len(d.meet_homs()),
            "frame2": len(d.frame_homs()),
            "lax": len(d.lax_join_morphisms()),
            "free_join": len(d.join_generated()),
        }
        # the brute-force hom counts must agree with the powerdomain theory
        if (e["2_ang"], e["2_dem"], e["frame2"]) != (e["downs"], e["ups"], s.n):
            raise RuntimeError(f"oracle disagrees with itself on {name}")
        if name in ("A3", "A4") and e["functionals"] != DEDEKIND[s.n]:
            raise RuntimeError(f"oracle misses the Dedekind number on {name}")
        expected[name] = e

    seen = {}  # family keys from earlier jobs of the same round

    def family(cmd, poset, algebra, count_key):
        path = os.path.join(out, f"{cmd}_{poset}_{algebra}.json")
        e = expected[poset]

        def check(report, code):
            seen.pop((cmd, poset, algebra), None)
            reason = _passes(report, code)
            if reason is not None:
                return reason
            body = report[cmd]
            pairs = [
                ("poset_size", body["poset_size"], shapes[poset].n),
                ("predicate_count", body["predicate_count"], e["preds"]),
                ("functional_count", body["functional_count"], e["functionals"]),
                (f"{cmd} count", body["count"], e[count_key]),
            ]
            if poset in ("A3", "A4"):
                pairs.append(("Dedekind", body["functional_count"], DEDEKIND[shapes[poset].n]))
            if cmd != "homs":
                # homs preserve every op exactly, whatever its tag, so the
                # homs of joinle are those of 2_ang
                hom_key = "2_ang" if algebra == "joinle" else algebra
                comp = report["comparison"]
                pairs.append(("hom_count", comp["hom_count"], e[hom_key]))
                pairs.append((f"hom_minus_{cmd}", comp[f"hom_minus_{cmd}"], []))
                if algebra in ("2_ang", "2_dem"):
                    pairs.append(("free equals homs", comp["equal"], True))
            keys = {el["key"] for el in body["elements"]}
            seen[(cmd, poset, algebra)] = keys
            if cmd == "free" and algebra == "joinle":
                relaxed = seen.get(("relaxed", poset, algebra))
                if relaxed is None or not keys <= relaxed:
                    return "relaxed family does not contain the free family"
            return _expect(pairs)

        argv = [cmd, poset, algebra, "-f", defs, "--json", path]
        return Job(f"{cmd}-{poset}-{algebra}", argv, check, report_path=path)

    def powerdomain(kind, poset, count_key, functional_key):
        path = os.path.join(out, f"pd_{kind}_{poset}.json")
        e = expected[poset]

        def check(report, code):
            reason = _passes(report, code)
            if reason is not None:
                return reason
            if kind == "sober":
                return _expect([("points", report["count"], e[count_key])])
            body = report["powerdomain"]
            return _expect(
                [
                    ("set count", body["count"], e[count_key]),
                    ("functional_count", body["functional_count"], e[functional_key]),
                ]
            )

        argv = ["powerdomain", kind, poset, "-f", defs, "--json", path]
        return Job(f"powerdomain-{kind}-{poset}", argv, check, report_path=path)

    # one round takes about 7 s on a 2-core machine, so that a run repeats
    # every job several times
    jobs = [
        family("homs", "A3", "2_ang", "downs"),
        family("free", "A3", "2_ang", "downs"),
        powerdomain("smyth", "A3", "ups", "2_dem"),
        powerdomain("sober", "A3", "frame2", None),
        family("free", "A4", "2_dem", "ups"),
        powerdomain("hoare", "A4bot", "downs", "2_ang"),
        family("relaxed", "A2C3", "joinle", "lax"),
        family("free", "A2C3", "joinle", "free_join"),
    ]
    return Workload("double-exp", False, [defs], jobs)


# ---------------------------------------------------------------------------
# session

_TWO = ("0", "1")  # labels of the two-element chain under the 2-valued algebras


def _pred_key(mask, n):
    return "[" + ",".join("1" if mask >> i & 1 else "0" for i in range(n)) + "]"


class Transformer:
    """A random monotone state transformer X -> [[Y -> 2] -> 2].

    Each source element gets a random up-set of Y's predicates, joined with
    the functionals of the elements below it, so the assignment is monotone.
    """

    def __init__(self, rng, name, x, y, algebra):
        self.name, self.x, self.y, self.algebra = name, x, y, algebra
        preds = y.exp.preds
        pred_up = y.exp.pred_up
        chosen = {}
        # elements with fewer elements below them first
        order = sorted(range(x.n), key=lambda i: sum(u >> i & 1 for u in x.exp.up))
        for i in order:
            seedset = [g for g in range(len(preds)) if rng.random() < 0.3]
            phi = 0
            for g in seedset:
                phi |= pred_up[g]
            for j in range(x.n):
                if j != i and x.exp.up[j] >> i & 1:
                    phi |= chosen[j]
            chosen[i] = phi
        # table[x label][predicate key] = value label
        self.table = {
            x.labels[i]: {
                _pred_key(m, y.n): _TWO[chosen[i] >> g & 1] for g, m in enumerate(preds)
            }
            for i in range(x.n)
        }

    def text(self):
        lines = [f"transformer {self.name} : {self.x.name} -> {self.y.name} with {self.algebra}"]
        for label, fn in self.table.items():
            body = "; ".join(f"{g} -> {v}" for g, v in fn.items())
            lines.append(f"at {label} {{ {body} }}")
        lines.append("end")
        return "\n".join(lines) + "\n"


_HEADER = re.compile(r"^(p?transformer) (\S+) : (\S+) -> (\S+) with (\S+)$")
_AT = re.compile(r"^at (\S+) \{ (.*) \}$")


def parse_literal(text):
    """Header fields and body of a transformer literal printed by powdom:
    ``(kind, name, source, target, algebra, {at: {key: value}})``."""
    lines = text.strip().splitlines()
    head = _HEADER.match(lines[0])
    if head is None or lines[-1] != "end":
        raise ValueError("malformed transformer literal")
    body = {}
    arrow = "|->" if head.group(1) == "ptransformer" else "->"
    for line in lines[1:-1]:
        m = _AT.match(line)
        if m is None:
            raise ValueError(f"malformed literal line {line!r}")
        entries = {}
        for part in m.group(2).split("; "):
            k, v = part.split(f" {arrow} ")
            entries[k] = v
        body[m.group(1)] = entries
    return head.groups() + (body,)


def _rand_weight(rng):
    return Fraction(rng.randrange(1, 10), rng.randrange(1, 7))


def _val_text(atoms, shape):
    return "val{ " + "; ".join(f"{w} @ {shape.labels[p]}" for w, p in atoms) + " }"


# transformer whose literal the alias fault renames: C2 -> C2 with lattice2,
# declared after a frame2 transformer on the same poset; the file does not
# depend on the seed
ALIAS_DEFS = """\
transformer tf : C2 -> C2 with frame2
at bot { [0,0] -> 0; [0,1] -> 0; [1,1] -> 1 }
at top { [0,0] -> 0; [0,1] -> 1; [1,1] -> 1 }
end

transformer tl : C2 -> C2 with lattice2
at bot { [0,0] -> 0; [0,1] -> 0; [1,1] -> 0 }
at top { [0,0] -> 0; [0,1] -> 1; [1,1] -> 1 }
end
"""
_ALIAS_TL = {
    "bot": {"[0,0]": "0", "[0,1]": "0", "[1,1]": "0"},
    "top": {"[0,0]": "0", "[0,1]": "1", "[1,1]": "1"},
}

# entropicity verdicts the catalog algebras must get
ENTROPIC = {
    "2_ang": True,
    "2_dem": True,
    "rplus": True,
    "frame2": False,
    "lattice2": False,
    "rplus_semiring": False,
}
RELAXED_ENTROPIC = ("rplus_max", "rplus_min")


def session_workload(out, seed):
    """Many short commands in one interpreter over a seeded definition file."""
    rng = random.Random(f"session:{seed}")
    shapes = {
        "ca": Shape(rng, "ca", 2, [(0, 1)]),
        "an": Shape(rng, "an", 2, []),
        "ve": Shape(rng, "ve", 3, [(0, 1), (0, 2)]),
        "dm": Shape(rng, "dm", 4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    }
    # frame2 and lattice2 never share a poset here: the functional_space
    # cache confuses the two (see ALIAS_DEFS), and the seeded file must not
    # hit that fault on some seeds only
    transformers = [
        Transformer(rng, "t_ang", shapes["an"], shapes["ve"], "2_ang"),
        Transformer(rng, "t_dem", shapes["ve"], shapes["ca"], "2_dem"),
        Transformer(rng, "t_fr", shapes["an"], shapes["ca"], "frame2"),
        Transformer(rng, "t_lat", shapes["ve"], shapes["dm"], "lattice2"),
    ]
    ve = shapes["ve"]

    def atoms():
        # two atoms each, so every seed asks the checkers for the same work
        points = rng.sample(range(ve.n), 2)
        return [(_rand_weight(rng), p) for p in sorted(points)]

    mu, nu = atoms(), atoms()
    blocks = [s.text() for s in shapes.values()]
    blocks.append(f"valuation mu on ve {_val_text(mu, ve)}\n")
    blocks.append(f"valuation nu on ve {_val_text(nu, ve)}\n")
    blocks.append(f"subfn phi on ve sup{{ {_val_text(mu, ve)}; {_val_text(nu, ve)} }}\n")
    half = [(w / 2, p) for w, p in mu]
    blocks.append(f"subfn phi_lo on ve sup{{ {_val_text(half, ve)} }}\n")
    blocks.append(f"supfn psi on ve inf{{ {_val_text(mu, ve)}; {_val_text(nu, ve)} }}\n")
    double = [(w * 2, p) for w, p in mu]
    blocks.append(f"supfn psi_hi on ve inf{{ {_val_text(double, ve)} }}\n")
    for k, shape in enumerate((ve, shapes["dm"])):
        raw = [_rand_weight(rng) for _ in range(shape.n)]
        values = [
            max(raw[j] for j in range(shape.n) if shape.exp.up[j] >> i & 1)
            for i in range(shape.n)
        ]
        body = "; ".join(f"{shape.labels[i]} -> {values[i]}" for i in range(shape.n))
        blocks.append(f"predicate f{k} on {shape.name} pred {{ {body} }}\n")
    # transformers follow the posets they name; everything else is shuffled
    head = blocks[: len(shapes)]
    rest = blocks[len(shapes):] + [t.text() for t in transformers]
    rng.shuffle(rest)
    defs = os.path.join(out, "session.defs")
    _write(defs, "\n".join(head + rest))
    alias = os.path.join(out, "alias.defs")
    _write(alias, ALIAS_DEFS)

    jobs = []

    def add(name, argv, check, defs_files=(defs,), known_fault=False, after=None):
        path = os.path.join(out, f"{name}.json")
        files = []
        for f in defs_files:
            files += ["-f", f]
        jobs.append(Job(name, argv + files + ["--json", path], check, known_fault, path, after))

    def transform_pair(name, x_name, y_name, algebra, table, defs_files, known_fault):
        literal_path = os.path.join(out, f"{name}_p.defs")
        by_pred = {}
        for label, fn in table.items():
            for g, v in fn.items():
                by_pred.setdefault(g, {})[label] = v

        def check_p2q(report, code):
            reason = _passes(report, code)
            if reason is not None:
                return reason
            kind, lit_name, src, dst, alg, body = parse_literal(report["result"])
            return _expect(
                [
                    ("literal", (kind, lit_name, src, dst), ("ptransformer", f"{name}_p", y_name, x_name)),
                    ("algebra named in the literal", alg, algebra),
                    ("predicate table", body, by_pred),
                ]
            )

        def keep_literal(report):
            _write(literal_path, report["result"])

        def check_q2p(report, code):
            reason = _passes(report, code)
            if reason is not None:
                return reason
            kind, lit_name, src, dst, alg, body = parse_literal(report["result"])
            return _expect(
                [
                    ("literal", (kind, lit_name, src, dst), ("transformer", f"{name}_p_q", x_name, y_name)),
                    ("algebra named in the literal", alg, algebra),
                    ("q2p(p2q(t))", body, table),
                ]
            )

        add(f"p2q-{name}", ["transform", "p2q", name], check_p2q, defs_files,
            known_fault, keep_literal)
        add(f"q2p-{name}", ["transform", "q2p", f"{name}_p"], check_q2p,
            tuple(defs_files) + (literal_path,), known_fault)

    for t in transformers:
        transform_pair(t.name, t.x.name, t.y.name, t.algebra, t.table, (defs,), False)
    transform_pair("tl", "C2", "C2", "lattice2", _ALIAS_TL, (alias,), True)

    def verdicts(want_failed=()):
        """The named top-level records fail and every other one passes."""
        def check(report, code):
            if not want_failed or report is None:
                return _passes(report, code)
            failed = [c["name"] for c in report["checks"] if c["verdict"] == "fail"]
            return _expect(
                [("failing records", failed, list(want_failed)), ("exit", code, 1)]
            )

        return check

    trials = ["--trials", str(SESSION_TRIALS)]
    add("valuation-mu", ["valuation", "mu"] + trials, verdicts())
    add("valuation-phi", ["valuation", "phi"] + trials, verdicts())
    add("valuation-psi", ["valuation", "psi"] + trials, verdicts())
    # phi and psi are built around mu; phi_lo halves it and psi_hi doubles it
    for target, failing in (
        ("phi", ()),
        ("phi_lo", ("dominated-by-max",)),
        ("psi", ()),
        ("psi_hi", ("dominates-min",)),
    ):
        add(f"valuation-mu-{target}", ["valuation", "mu", "--against", target] + trials,
            verdicts(failing))

    def check_points(report, code):
        return _passes(report, code) or _expect([("points", report["count"], ve.n)])

    add("powerdomain-valuations-ve", ["powerdomain", "valuations", "ve"], check_points)

    def small_family(cmd, shape, algebra, want):
        def check(report, code):
            reason = _passes(report, code)
            if reason is not None:
                return reason
            body = report[cmd]
            pairs = [
                ("functional_count", body["functional_count"], len(shape.exp.functionals)),
                (f"{cmd} count", body["count"], want),
            ]
            if cmd == "free":
                pairs.append(("free equals homs", report["comparison"]["equal"], True))
            return _expect(pairs)

        add(f"{cmd}-{shape.name}-{algebra}", [cmd, shape.name, algebra], check)

    small_family("homs", ve, "2_ang", len(down_sets(ve.exp.up)))
    small_family("free", shapes["dm"], "2_dem", len(up_sets(shapes["dm"].exp.up)))

    ctrials = ["--trials", str(CHECK_TRIALS)]
    for algebra, entropic in ENTROPIC.items():
        add(f"entropic-{algebra}", ["check", "--entropic", algebra] + ctrials,
            verdicts(() if entropic else ("entropic",)))
    for algebra in RELAXED_ENTROPIC:
        add(f"relaxed-{algebra}", ["check", "--relaxed", algebra] + ctrials, verdicts())

    for shape in (ve, shapes["dm"]):
        want = sorted(
            (shape.labels[i], shape.labels[j]) for i, j in cover_pairs(shape.exp.up)
        )

        def check_dot(report, code, want=want):
            reason = _passes(report, code)
            if reason is not None:
                return reason
            edges = sorted(
                tuple(m) for m in re.findall(r'"([^"]+)" -> "([^"]+)"', report["dot"])
            )
            return _expect([("edges", edges, want)])

        add(f"export-dot-{shape.name}", ["export-dot", shape.name], check_dot)

    return Workload("session", True, [defs], jobs)


def load_sha_store(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def save_sha_store(path, store):
    _write(path, json.dumps(store, sort_keys=True, indent=1) + "\n")
