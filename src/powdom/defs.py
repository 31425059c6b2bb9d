"""The plain-text definition language and the workspace that holds it.

Files define named posets, algebras, maps, valuations, functional
combinations, predicates and transformers.  The grammar is line-oriented
with brace-delimited bodies that may wrap lines:

    poset C3
    elems x0 x1 x2
    le x0 x1
    le x1 x2
    end

    algebra twojoin on C2t
    op join arity 2 tag EQ
    table join { (0,0)->0; (0,1)->1; (1,0)->1; (1,1)->1 }
    end

    algebra rmax on extnn
    op add arity 2 tag LE
    builtin add add
    end

    map u : C2 -> C2 { bot |-> bot; top |-> top }
    valuation mu on C2 val { 1/2 @ bot; 1/3 @ top }
    subfn phi on A2 sup{ val{ 1 @ a }; val{ 1 @ b } }
    supfn psi on A2 inf{ val{ 1 @ a }; val{ 1 @ b } }
    predicate f on A2 pred { a -> 1; b -> 2 }

    transformer t : C2 -> C2 with 2_ang
    at bot { [0,0] -> 0; [0,1] -> 0; [1,1] -> 1 }
    at top { [0,0] -> 0; [0,1] -> 1; [1,1] -> 1 }
    end

A transformer line ``at x { [g values] -> r; ... }`` gives the functional
assigned to x as a total table over the monotone predicates on the target,
each predicate written as its value tuple in element order.  Predicate
transformers use the same shape with ``at [g values] { x |-> r; ... }``.
Built-in catalog names are always in scope; files may not redefine them.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from . import catalog
from .algebra import FinAlgebra, OpSpec, OpTag, RatAlgebra, Signature
from .errors import ParseError, PowdomError, UnknownName
from .extnum import ExtNN, enn_max, enn_min
from .funcspace import MonoMap
from .monad import PredicateTransformer, StateTransformer, functional_space
from .poset import FinPoset, poset_from_cover
from .powerdomain import ENVELOPES, Predicate, SimpleValuation
from .sampling import DEFAULT_SIZE_GUARD

_TOKEN = re.compile(r"\|->|->|[{}();,:@\[\]]|[^\s{}();,:@\[\]]+")


@dataclass
class _Tok:
    text: str
    line: int


class _Lexer:
    def __init__(self, path, text):
        self.path = path
        self.toks = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            for m in _TOKEN.finditer(body):
                self.toks.append(_Tok(m.group(0), lineno))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ParseError(self.path, self.toks[-1].line if self.toks else 0, "unexpected end of file")
        self.pos += 1
        if expect is not None and tok.text != expect:
            raise ParseError(self.path, tok.line, f"expected {expect!r}, found {tok.text!r}")
        return tok

    def error(self, tok, message):
        return ParseError(self.path, tok.line if tok else 0, message)

    def entries(self, what):
        """Walk a ``{ entry; entry; ... }`` body, yielding each entry's first
        token unconsumed; the caller parses the entry.  Separators are optional."""
        self.next("{")
        while True:
            tok = self.peek()
            if tok is None:
                raise self.error(tok, f"unterminated {what} body")
            if tok.text == "}":
                self.next()
                return
            yield tok
            if self.peek() is not None and self.peek().text == ";":
                self.next()


@dataclass
class Workspace:
    """Named definitions resolved against the built-in catalog."""

    posets: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    valuations: dict = field(default_factory=dict)
    # one table per envelope statement keyword (subfn, supfn)
    envelopes: dict = field(
        default_factory=lambda: {e.side.keyword: {} for e in ENVELOPES}
    )
    predicates: dict = field(default_factory=dict)
    transformers: dict = field(default_factory=dict)
    ptransformers: dict = field(default_factory=dict)
    size_guard: int = DEFAULT_SIZE_GUARD

    def __post_init__(self):
        self.posets.update(catalog.builtin_posets())
        self.algebras.update(catalog.builtin_algebras())

    def _lookup(self, table, kind, name):
        try:
            return table[name]
        except KeyError:
            raise UnknownName(f"unknown {kind} {name!r}") from None

    def poset(self, name) -> FinPoset:
        return self._lookup(self.posets, "poset", name)

    def algebra(self, name):
        return self._lookup(self.algebras, "algebra", name)

    def valuation(self, name) -> SimpleValuation:
        return self._lookup(self.valuations, "valuation", name)

    def functional(self, name):
        for table in self.envelopes.values():
            if name in table:
                return table[name]
        if name in self.valuations:
            return self.valuations[name]
        raise UnknownName(f"unknown valuation or functional {name!r}")

    def transformer(self, name) -> StateTransformer:
        return self._lookup(self.transformers, "transformer", name)

    def ptransformer(self, name) -> PredicateTransformer:
        return self._lookup(self.ptransformers, "predicate transformer", name)

    def define(self, table, kind, name, value, path, line):
        if name in table:
            raise ParseError(path, line, f"{kind} {name!r} is already defined")
        # valuations, subfns and supfns share one namespace, so that a name
        # given to ``valuation --against`` picks out one functional
        shared = [("valuation", self.valuations), *self.envelopes.items()]
        if any(table is other for _, other in shared):
            for other_kind, other in shared:
                if name in other:
                    raise ParseError(
                        path, line, f"{kind} {name!r} is already defined as a {other_kind}"
                    )
        table[name] = value

    def load_file(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        self.load_text(path, text)

    def load_text(self, path, text):
        lex = _Lexer(path, text)
        while lex.peek() is not None:
            tok = lex.next()
            handler = _STATEMENTS.get(tok.text)
            if handler is None:
                raise lex.error(tok, f"unknown statement {tok.text!r}")
            handler(self, lex, tok)


def load_workspace(paths, size_guard: int = DEFAULT_SIZE_GUARD) -> Workspace:
    ws = Workspace(size_guard=size_guard)
    for path in paths:
        ws.load_file(path)
    return ws


# ---------------------------------------------------------------------------
# statement parsers


def _parse_poset(ws: Workspace, lex: _Lexer, kw):
    name = lex.next().text
    labels = []
    covers = []
    while True:
        tok = lex.next()
        if tok.text == "end":
            break
        if tok.text == "elems":
            line = tok.line
            while lex.peek() is not None and lex.peek().line == line:
                labels.append(lex.next().text)
        elif tok.text == "le":
            low = lex.next().text
            high = lex.next().text
            covers.append((low, high))
        else:
            raise lex.error(tok, f"expected 'elems', 'le' or 'end', found {tok.text!r}")
    try:
        poset = poset_from_cover(labels, covers)
    except PowdomError as exc:
        raise ParseError(lex.path, kw.line, str(exc)) from None
    ws.define(ws.posets, "poset", name, poset, lex.path, kw.line)


def _parse_tag(lex, tok):
    try:
        return OpTag(tok.text)
    except ValueError:
        raise lex.error(tok, f"expected a tag LE, GE or EQ, found {tok.text!r}") from None


def _parse_extnn(lex, tok) -> ExtNN:
    try:
        return ExtNN.parse(tok.text)
    except PowdomError:
        raise lex.error(tok, f"bad numeric literal {tok.text!r}") from None


_BUILTIN_OPS = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "max": enn_max,
    "min": enn_min,
}


def _parse_algebra(ws: Workspace, lex: _Lexer, kw):
    name = lex.next().text
    lex.next("on")
    carrier_tok = lex.next()
    on_extnn = carrier_tok.text == "extnn"
    carrier = None if on_extnn else ws.poset(carrier_tok.text)
    ops = []
    tables = {}
    builtins = {}
    while True:
        tok = lex.next()
        if tok.text == "end":
            break
        if tok.text == "op":
            sym = lex.next().text
            lex.next("arity")
            arity_tok = lex.next()
            if not arity_tok.text.isdigit():
                raise lex.error(arity_tok, "arity must be a natural number")
            lex.next("tag")
            tag = _parse_tag(lex, lex.next())
            ops.append([sym, int(arity_tok.text), tag, False])
        elif tok.text == "table":
            sym = lex.next().text
            tables[sym] = _parse_table_body(ws, lex, carrier, sym)
        elif tok.text == "builtin":
            sym = lex.next().text
            kind = lex.next()
            if kind.text in ("scale", "const"):
                builtins[sym] = (kind.text, _parse_extnn(lex, lex.next()))
            elif kind.text in _BUILTIN_OPS:
                builtins[sym] = (kind.text, None)
            else:
                raise lex.error(kind, f"unknown builtin realisation {kind.text!r}")
        else:
            raise lex.error(tok, f"expected 'op', 'table', 'builtin' or 'end'")
    try:
        algebra = _assemble_algebra(name, on_extnn, carrier, ops, tables, builtins)
    except PowdomError as exc:
        raise ParseError(lex.path, kw.line, str(exc)) from None
    ws.define(ws.algebras, "algebra", name, algebra, lex.path, kw.line)


def _parse_table_body(ws, lex, carrier, sym):
    if carrier is None:
        raise lex.error(lex.peek(), "tables need a finite carrier; use 'builtin' on extnn")
    table = {}
    for _ in lex.entries("table"):
        lex.next("(")
        args = []
        while lex.peek() is not None and lex.peek().text != ")":
            t = lex.next()
            if t.text == ",":
                continue
            args.append(carrier.index(t.text))
        lex.next(")")
        lex.next("->")
        value = carrier.index(lex.next().text)
        table[tuple(args)] = value
    return table


def _assemble_algebra(name, on_extnn, carrier, ops, tables, builtins):
    declared = {sym for sym, _, _, _ in ops}
    for sym in list(tables) + list(builtins):
        if sym not in declared:
            raise PowdomError(f"realisation for undeclared operation {sym!r}")
    if on_extnn:
        realisations = {}
        specs = []
        for sym, arity, tag, _ in ops:
            if sym not in builtins:
                raise PowdomError(f"operation {sym!r} has no builtin realisation")
            kind, arg = builtins[sym]
            if kind == "scale":
                if arity != 1:
                    raise PowdomError("scale realises a unary operation")
                realisations[sym] = (lambda r: (lambda x, r=r: r * x))(arg)
            elif kind == "const":
                if arity != 0:
                    raise PowdomError("const realises a nullary operation")
                realisations[sym] = (lambda c: (lambda c=c: c))(arg)
            else:
                if arity != 2:
                    raise PowdomError(f"builtin {kind} realises a binary operation")
                realisations[sym] = _BUILTIN_OPS[kind]
            specs.append(OpSpec(sym, arity, tag))
        return RatAlgebra(name, Signature(tuple(specs)), realisations)
    specs = tuple(OpSpec(sym, arity, tag) for sym, arity, tag, _ in ops)
    return FinAlgebra(name, carrier, Signature(specs), tables)


def _parse_map_body(ws, lex, source: FinPoset, target: FinPoset):
    table = [None] * source.size
    for _ in lex.entries("map"):
        src = lex.next()
        lex.next("|->")
        dst = lex.next()
        table[source.index(src.text)] = target.index(dst.text)
    missing = [source.labels[i] for i, v in enumerate(table) if v is None]
    if missing:
        closing = lex.toks[lex.pos - 1]
        raise lex.error(closing, f"map body misses elements {missing}")
    return tuple(table)


def _parse_map(ws: Workspace, lex: _Lexer, kw):
    name = lex.next().text
    lex.next(":")
    source = ws.poset(lex.next().text)
    lex.next("->")
    target = ws.poset(lex.next().text)
    table = _parse_map_body(ws, lex, source, target)
    try:
        mono = MonoMap(source, target, table)
    except PowdomError as exc:
        raise ParseError(lex.path, kw.line, str(exc)) from None
    ws.define(ws.maps, "map", name, mono, lex.path, kw.line)


def _parse_val_body(ws, lex, poset: FinPoset) -> SimpleValuation:
    lex.next("val")
    atoms = []
    for _ in lex.entries("valuation"):
        weight = _parse_extnn(lex, lex.next())
        lex.next("@")
        point = poset.index(lex.next().text)
        atoms.append((weight, point))
    return SimpleValuation(poset, tuple(atoms))


def _parse_valuation(ws: Workspace, lex: _Lexer, kw):
    name = lex.next().text
    lex.next("on")
    poset = ws.poset(lex.next().text)
    val = _parse_val_body(ws, lex, poset)
    ws.define(ws.valuations, "valuation", name, val, lex.path, kw.line)


def _parse_envelope(envelope, ws: Workspace, lex: _Lexer, kw):
    name = lex.next().text
    lex.next("on")
    poset = ws.poset(lex.next().text)
    lex.next(envelope.side.opener)
    comps = [_parse_val_body(ws, lex, poset) for _ in lex.entries("functional")]
    try:
        fn = envelope(tuple(comps))
    except PowdomError as exc:
        raise ParseError(lex.path, kw.line, str(exc)) from None
    keyword = envelope.side.keyword
    ws.define(ws.envelopes[keyword], keyword, name, fn, lex.path, kw.line)


def _parse_predicate(ws: Workspace, lex: _Lexer, kw):
    name = lex.next().text
    lex.next("on")
    poset = ws.poset(lex.next().text)
    lex.next("pred")
    values = [None] * poset.size
    for _ in lex.entries("predicate"):
        elem = poset.index(lex.next().text)
        lex.next("->")
        values[elem] = _parse_extnn(lex, lex.next())
    for i, v in enumerate(values):
        if v is None:
            raise ParseError(lex.path, kw.line, f"predicate misses element {poset.labels[i]}")
    try:
        pred = Predicate(poset, tuple(values))
    except PowdomError as exc:
        raise ParseError(lex.path, kw.line, str(exc)) from None
    ws.define(ws.predicates, "predicate", name, pred, lex.path, kw.line)


def _parse_value_tuple(ws, lex, carrier: FinPoset):
    lex.next("[")
    values = []
    while True:
        tok = lex.next()
        if tok.text == "]":
            break
        if tok.text == ",":
            continue
        values.append(carrier.index(tok.text))
    return tuple(values)


def _parse_transformer(ws: Workspace, lex: _Lexer, kw):
    name = lex.next().text
    lex.next(":")
    source = ws.poset(lex.next().text)
    lex.next("->")
    target = ws.poset(lex.next().text)
    lex.next("with")
    algebra = ws.algebra(lex.next().text)
    if not isinstance(algebra, FinAlgebra):
        raise ParseError(lex.path, kw.line, "transformers need a finite observation algebra")
    space = functional_space(target, algebra, ws.size_guard)
    table = [None] * source.size
    while True:
        tok = lex.next()
        if tok.text == "end":
            break
        if tok.text != "at":
            raise lex.error(tok, f"expected 'at' or 'end', found {tok.text!r}")
        x = source.index(lex.next().text)
        entries = {}
        for t in lex.entries("functional"):
            g = _parse_value_tuple(ws, lex, algebra.carrier)
            lex.next("->")
            try:
                g_idx = space.predicates.index(g)
            except PowdomError as exc:
                raise ParseError(lex.path, t.line, str(exc)) from None
            entries[g_idx] = algebra.carrier.index(lex.next().text)
        functional = tuple(
            entries.get(i) for i in range(len(space.predicates))
        )
        if any(v is None for v in functional):
            raise ParseError(
                lex.path, tok.line, f"functional at {source.labels[x]} is not total"
            )
        try:
            table[x] = space.space.index(functional)
        except PowdomError as exc:
            raise ParseError(lex.path, tok.line, str(exc)) from None
    missing = [source.labels[i] for i, v in enumerate(table) if v is None]
    if missing:
        raise ParseError(lex.path, kw.line, f"transformer misses elements {missing}")
    try:
        t = space.transformer(source, table)
    except PowdomError as exc:
        raise ParseError(lex.path, kw.line, str(exc)) from None
    ws.define(ws.transformers, "transformer", name, t, lex.path, kw.line)


def _parse_ptransformer(ws: Workspace, lex: _Lexer, kw):
    name = lex.next().text
    lex.next(":")
    target_of_preds = ws.poset(lex.next().text)  # Y: predicates transformed from
    lex.next("->")
    source_of_preds = ws.poset(lex.next().text)  # X: predicates transformed to
    lex.next("with")
    algebra = ws.algebra(lex.next().text)
    if not isinstance(algebra, FinAlgebra):
        raise ParseError(lex.path, kw.line, "transformers need a finite observation algebra")
    y_space = functional_space(target_of_preds, algebra, ws.size_guard)
    x_space = functional_space(source_of_preds, algebra, ws.size_guard)
    table = [None] * len(y_space.predicates)
    while True:
        tok = lex.next()
        if tok.text == "end":
            break
        if tok.text != "at":
            raise lex.error(tok, f"expected 'at' or 'end', found {tok.text!r}")
        g = _parse_value_tuple(ws, lex, algebra.carrier)
        pred = _parse_map_body(ws, lex, source_of_preds, algebra.carrier)
        try:
            table[y_space.predicates.index(g)] = x_space.predicates.index(pred)
        except PowdomError as exc:
            raise ParseError(lex.path, tok.line, str(exc)) from None
    missing = sum(1 for v in table if v is None)
    if missing:
        raise ParseError(lex.path, kw.line, f"{missing} predicates have no image")
    try:
        s = PredicateTransformer(y_space, x_space, tuple(table))
    except PowdomError as exc:
        raise ParseError(lex.path, kw.line, str(exc)) from None
    ws.define(ws.ptransformers, "predicate transformer", name, s, lex.path, kw.line)


_STATEMENTS = {
    "poset": _parse_poset,
    "algebra": _parse_algebra,
    "map": _parse_map,
    "valuation": _parse_valuation,
    **{e.side.keyword: functools.partial(_parse_envelope, e) for e in ENVELOPES},
    "predicate": _parse_predicate,
    "transformer": _parse_transformer,
    "ptransformer": _parse_ptransformer,
}


# ---------------------------------------------------------------------------
# literal printers (outputs are re-parseable)


def transformer_literal(name: str, t: StateTransformer, x_name: str, y_name: str, algebra_name: str) -> str:
    lines = [f"transformer {name} : {x_name} -> {y_name} with {algebra_name}"]
    space = t.space
    for i in range(t.source.size):
        functional = space.functional(t.table[i])
        entries = "; ".join(
            f"{space.predicates.maps[g].key()} -> {space.algebra.carrier.labels[functional.table[g]]}"
            for g in range(len(space.predicates))
        )
        lines.append(f"at {t.source.labels[i]} {{ {entries} }}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def ptransformer_literal(name: str, s: PredicateTransformer, y_name: str, x_name: str, algebra_name: str) -> str:
    lines = [f"ptransformer {name} : {y_name} -> {x_name} with {algebra_name}"]
    for g in range(len(s.y_space.predicates)):
        pred = s.x_space.predicates.maps[s.table[g]]
        lines.append(
            f"at {s.y_space.predicates.maps[g].key()} {{ {pred.entries()} }}"
        )
    lines.append("end")
    return "\n".join(lines) + "\n"
