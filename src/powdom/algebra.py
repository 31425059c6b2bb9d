"""Ordered algebras, pointwise lifting, and the (in)equational law checkers.

A signature lists operation symbols with arities and a tag that places each
symbol in the lax and/or oplax class: morphism conditions against an
``LE``-tagged op relax to ``phi(op(..)) <= op(phi(..))``, against a
``GE``-tagged op to ``>=``, and ``EQ`` keeps equality (the op counts as both).

Two carrier flavours exist.  ``FinAlgebra`` has a finite poset carrier with
explicit operation tables; every law is checked exhaustively there.
``RatAlgebra`` is carried by the extended nonnegative rationals with ops
realised as closed forms; laws over it are checked in two phases (a fixed
grid exhaustively, then seeded random tuples), so verdicts are
counterexample-free claims, never proofs.  Checker reports record which
mode produced them.

The walkers read an algebra through ``mode``, ``signature``, ``resolve``,
``leq``, ``value_str``, ``grid_tuples`` and ``sample_tuple``, and compare
values with ``==``.  ``resolve(symbol, param)`` hands out the op's realisation,
a callable on an argument tuple (a family's bound to ``param``); it refuses an
unknown symbol or a family without its parameter, once, so no application
checks anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from operator import eq, is_not, mul

from .errors import (
    ArityMismatch,
    PowdomError,
    SignatureMismatch,
    TypeMismatch,
    UnknownElement,
    UnknownOp,
)
from .extnum import ONE
from .funcspace import ExpPoset, MonoMap, compose, enumerate_monotone, identity_map
from .poset import FinPoset, _trusted
from .sampling import (
    DEFAULT_SIZE_GUARD,
    DEFAULT_TRIALS,
    EXHAUSTIVE,
    LAW_GRID,
    SAMPLED,
    random_extnn,
    two_phase,
)


class OpTag(str, Enum):
    LE = "LE"
    GE = "GE"
    EQ = "EQ"


@dataclass(frozen=True)
class OpSpec:
    symbol: str
    arity: int
    tag: OpTag = OpTag.EQ
    parametric: bool = False  # a scalar-indexed family like r * -

    def __post_init__(self):
        if self.arity < 0:
            raise ArityMismatch(f"negative arity for {self.symbol}")

    @property
    def lax(self) -> bool:
        return self.tag in (OpTag.LE, OpTag.EQ)

    @property
    def oplax(self) -> bool:
        return self.tag in (OpTag.GE, OpTag.EQ)


@dataclass(frozen=True)
class Signature:
    ops: tuple
    _specs: dict = field(init=False, repr=False, compare=False)  # symbol -> spec

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "_specs", {op.symbol: op for op in self.ops})
        if len(self._specs) != len(self.ops):
            raise SignatureMismatch(f"duplicate op symbols in {[op.symbol for op in self.ops]}")

    def spec(self, symbol: str) -> OpSpec:
        try:
            return self._specs[symbol]
        except KeyError:
            raise UnknownOp(f"unknown operation {symbol!r}") from None

    def symbols(self):
        return tuple(op.symbol for op in self.ops)


class FinAlgebra:
    """A finite poset carrier with one monotone table per operation."""

    mode = EXHAUSTIVE
    expo = None  # the exponential carrying an algebra built by lift_pointwise

    def __init__(self, name, carrier: FinPoset, signature: Signature, tables):
        self.name = name
        self.carrier = carrier
        self.signature = signature
        self.tables = {sym: dict(tbl) for sym, tbl in tables.items()}
        self._validate()

    @cached_property
    def _key(self):
        # built on first comparison or hash only: a lifted algebra's tables
        # hold |carrier|^arity entries, and most are never compared
        return (
            self.carrier,
            self.signature,
            tuple(
                (sym, tuple(sorted(self.tables[sym].items())))
                for sym in self.signature.symbols()
            ),
        )

    def _validate(self):
        n = self.carrier.size
        leq = self.carrier.leq
        above = [[] for _ in range(n)]  # upper covers of each element
        for lo, hi in self.carrier.covers():
            above[lo].append(hi)
        for op in self.signature.ops:
            if op.parametric:
                raise PowdomError("finite algebras cannot carry parametric op families")
            table = self.tables.get(op.symbol)
            if table is None:
                raise UnknownOp(f"no table for operation {op.symbol!r}")
            for args in itertools.product(range(n), repeat=op.arity):
                if args not in table:
                    raise ArityMismatch(
                        f"table for {op.symbol} missing entry {args}"
                    )
                if not 0 <= table[args] < n:
                    raise UnknownElement(
                        f"table for {op.symbol} maps {args} outside the carrier"
                    )
            if len(table) != n**op.arity:
                # every tuple of carrier^arity is present, so a key is stray
                expected = set(itertools.product(range(n), repeat=op.arity))
                stray = next(k for k in table if k not in expected)
                raise ArityMismatch(
                    f"table for {op.symbol} has entry {stray} outside carrier^{op.arity}"
                )
            # monotone in each argument: stepping one coordinate up a cover
            # edge may only move the result up
            for args in itertools.product(range(n), repeat=op.arity):
                result_row = leq[table[args]]
                for pos in range(op.arity):
                    for hi in above[args[pos]]:
                        bumped = args[:pos] + (hi,) + args[pos + 1 :]
                        if not result_row[table[bumped]]:
                            raise PowdomError(
                                f"operation {op.symbol} is not monotone at {args} -> {bumped}"
                            )

    def __eq__(self, other):
        return isinstance(other, FinAlgebra) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def resolve(self, symbol, param=None):
        self.signature.spec(symbol)
        return self.tables[symbol].__getitem__

    def leq(self, a, b) -> bool:
        return self.carrier.leq[a][b]

    def value_str(self, a) -> str:
        return self.carrier.labels[a]

    def grid_tuples(self, nvars):
        return itertools.product(range(self.carrier.size), repeat=nvars)


class RatAlgebra:
    """Ops on the extended nonnegative rationals, realised as closed forms.

    Each realisation takes the argument tuple; a family's takes its parameter
    first.  A parametric op is a scalar-indexed family; law checks quantify
    over the parameter the same way they quantify over carrier values.
    """

    mode = SAMPLED
    grid = LAW_GRID

    def __init__(self, name, signature: Signature, ops):
        self.name = name
        self.signature = signature
        self.ops = dict(ops)
        for op in signature.ops:
            if op.symbol not in self.ops:
                raise UnknownOp(f"no realisation for operation {op.symbol!r}")
        self._grid_monotone()

    def _grid_monotone(self):
        # the ops' only monotonicity check, on the grid alone (a test runs it on the
        # catalog's rational algebras); extnum.ops-monotone samples ExtNN + and *
        for op in self.signature.ops:
            for param in _param_grid(self, op):
                fn = self.resolve(op.symbol, param)
                for args in itertools.product(self.grid, repeat=op.arity):
                    lo = fn(args)
                    for pos in range(op.arity):
                        for hi in self.grid:
                            if args[pos] <= hi and not lo <= fn(args[:pos] + (hi,) + args[pos + 1 :]):
                                raise PowdomError(
                                    f"operation {op.symbol} is not monotone at {args}"
                                )

    def resolve(self, symbol, param=None):
        if not self.signature.spec(symbol).parametric:
            return self.ops[symbol]
        if param is None:
            raise ArityMismatch(f"operation family {symbol} needs a parameter")
        return partial(self.ops[symbol], param)

    def leq(self, a, b) -> bool:
        return a <= b

    def value_str(self, a) -> str:
        return str(a)

    def grid_tuples(self, nvars):
        return itertools.product(self.grid, repeat=nvars)

    def sample_tuple(self, nvars, rng):
        return tuple(random_extnn(rng) for _ in range(nvars))


def _param_grid(algebra, spec):
    """The grid of an op's parameter: the carrier grid for a family, else (None,)."""
    return algebra.grid if spec.parametric else (None,)


def lift_pointwise(algebra: FinAlgebra, base: FinPoset, size_guard: int = DEFAULT_SIZE_GUARD) -> FinAlgebra:
    """The algebra on the exponential [base -> carrier], ops applied pointwise.

    Each op of arity >= 1 is curried in its last argument: one list per
    prefix of base values, so a lifted entry is one gather of the prefix's
    lists at the last argument's table.  The lifted algebra is total and
    monotone by construction (the base algebra was validated, and pointwise
    ops preserve monotone maps), so it is built on the trusted path.
    """
    expo = enumerate_monotone(base, algebra.carrier, size_guard)
    rows = [m.table for m in expo.maps]
    by_table = expo._by_table
    values = range(algebra.carrier.size)
    tables = {}
    for op in algebra.signature.ops:
        base_table = algebra.tables[op.symbol]
        if op.arity == 0:
            tables[op.symbol] = {(): by_table[(base_table[()],) * base.size]}
            continue
        prefixes = itertools.product(values, repeat=op.arity - 1)
        curried = {p: [base_table[p + (v,)] for v in values] for p in prefixes}
        table = tables[op.symbol] = {}
        for prefix in itertools.product(range(len(rows)), repeat=op.arity - 1):
            points = zip(*[rows[a] for a in prefix]) if prefix else [()] * base.size
            lists = list(map(curried.__getitem__, points))
            for a, row in enumerate(rows):
                table[prefix + (a,)] = by_table[tuple(map(list.__getitem__, lists, row))]
    name = f"{algebra.name}^[{base.size}]"
    return _trusted(FinAlgebra, name=name, carrier=expo.poset, signature=algebra.signature, tables=tables, expo=expo)


# ---------------------------------------------------------------------------
# check outcomes


@dataclass
class CheckOutcome:
    """One verdict; truthy iff the law held on every instance.

    A leaf carries its own verdict and, on failure, a witness.  A composite
    lists its sub-checks in ``checks``, and its verdict is their AND.
    """

    name: str
    passed: bool
    mode: str = EXHAUSTIVE
    witness: dict | None = None
    checks: tuple = ()

    @classmethod
    def composite(cls, name, checks, mode):
        checks = tuple(checks)
        return cls(name, all(c.passed for c in checks), mode, checks=checks)

    def __bool__(self):
        return self.passed

    def witnesses(self):
        return [c for c in self.checks if not c.passed]

    def as_record(self):
        record = {
            "name": self.name,
            "verdict": "pass" if self.passed else "fail",
            "mode": self.mode,
            "witness": self.witness,
        }
        if self.checks:
            record["checks"] = [c.as_record() for c in self.checks]
        return record


def first_failure(name, results, mode=EXHAUSTIVE) -> CheckOutcome:
    """The verdict of a law walked as a lazy stream of its instances.

    ``results`` has one result per instance in check order: ``None`` where the
    law held, else a witness dict (a hand-built walk may leave the Nones out).
    Only the first witness is taken and nothing after it is generated, so a
    sampled phase draws only up to the failing instance.
    """
    witness = next(filter(partial(is_not, None), results), None)
    return CheckOutcome(name, witness is None, mode, witness)


def _sampler(algebra, rng, draws, draw):
    """``draw`` on a sampled carrier with an rng, if an instance draws anything."""
    return draw if algebra.mode == SAMPLED and rng is not None and draws else None


def _instances(algebra, nvars, specs, rng, trials):
    """``(values, params)``: ``nvars`` carrier values, and one parameter per spec.

    The grid runs the parameters outermost and the values innermost; a sample
    draws the values, then each op family's parameter in spec order.
    """
    grid = itertools.chain.from_iterable(
        zip(algebra.grid_tuples(nvars), itertools.repeat(params))
        for params in itertools.product(*(_param_grid(algebra, s) for s in specs))
    )

    def draw():
        return algebra.sample_tuple(nvars, rng), tuple(random_extnn(rng) if s.parametric else None for s in specs)

    # an empty tuple without parameters is one grid instance; samples would repeat it
    drawn = nvars or any(s.parametric for s in specs)
    return two_phase(grid, _sampler(algebra, rng, drawn, draw), trials)


def _resolver(algebra, spec):
    """``param -> op``: a family resolved at each parameter, a plain op once (at None)."""
    if spec.parametric:
        return partial(algebra.resolve, spec.symbol)
    return {None: algebra.resolve(spec.symbol)}.__getitem__


def _holds(relation: OpTag, algebra):
    """``(lhs, rhs) -> bool``: the relation on the algebra's carrier, chosen once."""
    if relation is OpTag.EQ:
        return eq
    if relation is OpTag.LE:
        return algebra.leq
    return lambda lhs, rhs: algebra.leq(rhs, lhs)


_REL_TEXT = {OpTag.EQ: "=", OpTag.LE: "<=", OpTag.GE: ">="}


def _interchange_check(algebra, sigma: str, omega: str, relation: OpTag, rng, trials, name):
    """Check sigma(omega(rows)) REL omega(sigma(columns)) over all matrices."""
    s_spec, o_spec = algebra.signature.spec(sigma), algebra.signature.spec(omega)
    n, m = s_spec.arity, o_spec.arity
    s_at, o_at = _resolver(algebra, s_spec), _resolver(algebra, o_spec)
    holds = _holds(relation, algebra)
    # the matrix is the flat instance read as n rows of m: row i is the slice
    # [i*m:(i+1)*m] and column j the slice [j::m] (with n = 0 each is empty)
    rows = [slice(i * m, (i + 1) * m) for i in range(n)]
    columns = [slice(j, None, m) for j in range(m)]

    def instance_fails(flat, params):
        s_param, o_param = params
        s_op, o_op = s_at(s_param), o_at(o_param)
        lhs = s_op(tuple([o_op(flat[r]) for r in rows]))
        rhs = o_op(tuple([s_op(flat[c]) for c in columns]))
        if holds(lhs, rhs):
            return None
        return {
            "sigma": sigma,
            "omega": omega,
            "relation": _REL_TEXT[relation],
            "matrix": [[algebra.value_str(v) for v in flat[r]] for r in rows],
            "sigma_param": None if s_param is None else algebra.value_str(s_param),
            "omega_param": None if o_param is None else algebra.value_str(o_param),
            "lhs": algebra.value_str(lhs),
            "rhs": algebra.value_str(rhs),
        }

    # a sampled matrix is n*m values drawn in row order, as n rows of m
    results = itertools.starmap(instance_fails, _instances(algebra, n * m, (s_spec, o_spec), rng, trials))
    return first_failure(name, results, algebra.mode)


def commutes(algebra, sigma: str, omega: str, rng=None, trials=0) -> CheckOutcome:
    """Interchange law with equality (the entropic law for the pair)."""
    return _interchange_check(algebra, sigma, omega, OpTag.EQ, rng, trials, f"commutes:{sigma},{omega}")


def subcommutes(algebra, sigma: str, omega: str, rng=None, trials=0) -> CheckOutcome:
    """sigma(omega(rows)) <= omega(sigma(columns)) for all matrices."""
    return _interchange_check(algebra, sigma, omega, OpTag.LE, rng, trials, f"subcommutes:{sigma},{omega}")


def supercommutes(algebra, sigma: str, omega: str, rng=None, trials=0) -> CheckOutcome:
    return _interchange_check(algebra, sigma, omega, OpTag.GE, rng, trials, f"supercommutes:{sigma},{omega}")


def is_entropic(algebra, rng=None, trials=0) -> CheckOutcome:
    """Do all ordered op pairs satisfy the interchange law?

    Nullary symbols ride along: for constants the law degenerates to
    omega(c,...,c) = c, and for two constants to their equality, so the
    matrix subsumes the constants caveat.
    """
    checks = []
    for sigma in algebra.signature.symbols():
        for omega in algebra.signature.symbols():
            checks.append(commutes(algebra, sigma, omega, rng, trials))
    return CheckOutcome.composite("entropic", checks, algebra.mode)


def is_relaxed_entropic(algebra, rng=None, trials=0) -> CheckOutcome:
    """Does every op subcommute with LE-tagged and supercommute with GE-tagged ops?"""
    checks = []
    for sigma in algebra.signature.symbols():
        for omega_spec in algebra.signature.ops:
            if omega_spec.lax:
                checks.append(subcommutes(algebra, sigma, omega_spec.symbol, rng, trials))
            if omega_spec.oplax:
                checks.append(supercommutes(algebra, sigma, omega_spec.symbol, rng, trials))
    return CheckOutcome.composite("relaxed-entropic", checks, algebra.mode)


def _as_callable(phi, b, r):
    if isinstance(phi, MonoMap):
        if getattr(b, "carrier", None) is not None and phi.source != b.carrier:
            raise TypeMismatch("map source does not match the domain algebra carrier")
        if getattr(r, "carrier", None) is not None and phi.target != r.carrier:
            raise TypeMismatch("map target does not match the codomain algebra carrier")
        return phi.table.__getitem__
    return phi


def _morphism_check(phi, b, r, relation_for, rng, trials, name) -> CheckOutcome:
    if b.signature != r.signature:
        raise SignatureMismatch(f"signatures of {getattr(b, 'name', '?')} and {getattr(r, 'name', '?')} differ")
    fn = _as_callable(phi, b, r)

    def op_failures(op, relation):
        b_at, r_at = _resolver(b, op), _resolver(r, op)
        holds = _holds(relation, r)
        for args, (param,) in _instances(b, op.arity, (op,), rng, trials):
            lhs = fn(b_at(param)(args))
            rhs = r_at(param)(tuple(map(fn, args)))
            if not holds(lhs, rhs):
                yield {
                    "op": op.symbol,
                    "relation": _REL_TEXT[relation],
                    "args": [b.value_str(a) for a in args],
                    "param": None if param is None else str(param),
                    "lhs": r.value_str(lhs),
                    "rhs": r.value_str(rhs),
                }

    results = itertools.chain.from_iterable(
        op_failures(op, relation)
        for op in b.signature.ops
        if (relation := relation_for(op)) is not None
    )
    return first_failure(name, results, b.mode)


def is_homomorphism(phi, b, r, rng=None, trials=0) -> CheckOutcome:
    """Does phi preserve every operation exactly?

    ``phi`` is a MonoMap from b's carrier to r's carrier, or any callable on
    carrier values.
    """
    return _morphism_check(phi, b, r, lambda op: OpTag.EQ, rng, trials, "homomorphism")


def is_relaxed_morphism(phi, b, r, rng=None, trials=0, symbol=None) -> CheckOutcome:
    """Morphism check with the tagged relaxations: <= for LE ops, >= for GE.

    With ``symbol``, only that op is checked (``UnknownOp`` if it has none).
    """
    if symbol is not None:
        b.signature.spec(symbol)

    def relation_for(op):
        return op.tag if symbol is None or op.symbol == symbol else None

    return _morphism_check(phi, b, r, relation_for, rng, trials, "relaxed-morphism")


def generated_subalgebra(algebra: FinAlgebra, generators) -> tuple:
    """Least subset containing the generators and closed under all op tables.

    Returned as a sorted tuple of carrier indices; nullary ops seed the
    closure even when no generators are given.
    """
    n = algebra.carrier.size
    current = set()
    for g in generators:
        if not 0 <= g < n:
            raise UnknownElement(f"generator index {g} outside the carrier")
        current.add(g)
    ops = [(algebra.resolve(op.symbol), op.arity) for op in algebra.signature.ops]
    while True:
        ordered, size = sorted(current), len(current)
        for op, arity in ops:
            current.update(map(op, itertools.product(ordered, repeat=arity)))
        if len(current) == size:
            return tuple(ordered)


# ---------------------------------------------------------------------------
# endomorphisms and module axioms


def endomorphisms(algebra: FinAlgebra, size_guard: int = DEFAULT_SIZE_GUARD) -> ExpPoset:
    """End(A): the monotone self-maps of the carrier preserving every operation.

    Returned as the exponential of those maps, in ascending lexicographic
    order of their tables and ordered pointwise.
    """
    expo = enumerate_monotone(algebra.carrier, algebra.carrier, size_guard)
    homs = [m for m in expo.maps if is_homomorphism(m, algebra, algebra)]
    return ExpPoset(algebra.carrier, algebra.carrier, homs)


@dataclass
class EndoAction:
    """An endomorphism family acting on an algebra, for module-axiom checks."""

    grid_endos: tuple
    identity: object
    compose: object  # (e1, e2) -> e1 after e2
    op_on_endos: object  # (symbol, param) -> (endo tuple -> endo), as ``resolve``
    act: object  # (endo, carrier value) -> carrier value
    describe: object = str
    sample_endo: object = None  # rng -> endo, for the sampled phase


def scalar_action(algebra: RatAlgebra) -> EndoAction:
    """Scalars acting by multiplication; the endomorphism family of the carrier."""
    return EndoAction(
        grid_endos=tuple(algebra.grid),
        identity=ONE,
        compose=mul,
        op_on_endos=algebra.resolve,
        act=mul,
        describe=str,
        sample_endo=random_extnn,
    )


def map_action(algebra: FinAlgebra) -> EndoAction:
    """End(A) acting on A by application."""
    n = algebra.carrier.size

    def op_on_endos(sym, param):
        op = algebra.resolve(sym, param)
        return lambda maps: MonoMap(
            algebra.carrier, algebra.carrier, tuple(op(tuple(m.table[x] for m in maps)) for x in range(n))
        )

    return EndoAction(
        grid_endos=endomorphisms(algebra).maps,
        identity=identity_map(algebra.carrier),
        compose=lambda e1, e2: compose(e2, e1),
        op_on_endos=op_on_endos,
        act=lambda e, x: e.table[x],
        describe=lambda e: e.key(),
    )


def check_module_axioms(action: EndoAction, algebra, rng=None, trials=DEFAULT_TRIALS) -> CheckOutcome:
    """Verify the four module axioms for an endomorphism action.

    identity action, compatibility with composition, ops on endos acting
    pointwise, and each endo acting as an op-preserving map.
    """
    mode = algebra.mode

    checks = []

    def run_axiom(name, endo_count, value_count, test, resolved=((),)):
        endos = itertools.product(action.grid_endos, repeat=endo_count)
        grid = itertools.product(endos, algebra.grid_tuples(value_count))

        def sample():
            es = tuple(action.sample_endo(rng) for _ in range(endo_count))
            return es, algebra.sample_tuple(value_count, rng)

        # endos and values are sampled jointly; op parameters stay on the grid
        stream = two_phase(grid, _sampler(algebra, rng, action.sample_endo is not None, sample), trials)
        results = (test(es, xs, *at) for es, xs in stream for at in resolved)
        checks.append(first_failure(name, results, mode))

    def param_str(param):
        return None if param is None else algebra.value_str(param)

    def ax1(es, xs):
        (x,) = xs
        got = action.act(action.identity, x)
        if got != x:
            return {"x": algebra.value_str(x), "got": algebra.value_str(got)}
        return None

    def ax2(es, xs):
        e1, e2 = es
        (x,) = xs
        lhs = action.act(action.compose(e1, e2), x)
        rhs = action.act(e1, action.act(e2, x))
        if lhs != rhs:
            return {
                "endos": [action.describe(e1), action.describe(e2)],
                "x": algebra.value_str(x),
                "lhs": algebra.value_str(lhs),
                "rhs": algebra.value_str(rhs),
            }
        return None

    run_axiom("ax1:identity", 0, 1, ax1)
    run_axiom("ax2:composition", 2, 1, ax2)

    for op in algebra.signature.ops:

        def ax3(es, xs, param, on_values, on_endos, op=op):
            (x,) = xs
            lhs = action.act(on_endos(es), x)
            rhs = on_values(tuple(action.act(e, x) for e in es))
            if lhs != rhs:
                return {
                    "op": op.symbol,
                    "param": param_str(param),
                    "endos": [action.describe(e) for e in es],
                    "x": algebra.value_str(x),
                    "lhs": algebra.value_str(lhs),
                    "rhs": algebra.value_str(rhs),
                }
            return None

        def ax4(es, xs, param, on_values, on_endos, op=op):
            (e,) = es
            lhs = action.act(e, on_values(xs))
            rhs = on_values(tuple(action.act(e, x) for x in xs))
            if lhs != rhs:
                return {
                    "op": op.symbol,
                    "param": param_str(param),
                    "endo": action.describe(e),
                    "args": [algebra.value_str(x) for x in xs],
                    "lhs": algebra.value_str(lhs),
                    "rhs": algebra.value_str(rhs),
                }
            return None

        # each op of the carrier and of the endos, at each parameter
        resolved = [(p, algebra.resolve(op.symbol, p), action.op_on_endos(op.symbol, p)) for p in _param_grid(algebra, op)]
        run_axiom(f"ax3:ops-pointwise:{op.symbol}", op.arity, 1, ax3, resolved)
        run_axiom(f"ax4:endo-preserves:{op.symbol}", 1, op.arity, ax4, resolved)

    return CheckOutcome.composite("module-axioms", checks, mode)
