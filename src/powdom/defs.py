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
The name ``extnn`` is reserved: ``algebra NAME on extnn`` always means the
extended nonnegative rationals, so no poset may be called that.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from . import catalog
from .algebra import FinAlgebra, OpSpec, OpTag, RatAlgebra, Signature
from .errors import ParseError, PowdomError, UnknownName, UnknownNameAt
from .extnum import ExtNN
from .funcspace import MonoMap
from .monad import PredicateTransformer, StateTransformer, functional_space
from .poset import FinPoset, poset_from_cover
from .powerdomain import ENVELOPES, Predicate, SimpleValuation
from .sampling import DEFAULT_SIZE_GUARD

_TOKEN = re.compile(r"\|->|->|[{}();,:@\[\]]|[^\s{}();,:@\[\]]+")


class _Lexer:
    """The tokens of a file as two parallel lists, texts and line numbers;
    ``line`` is the line of the last token read."""

    def __init__(self, path, text):
        self.path = path
        self.texts, self.lines = [], []
        for lineno, line in enumerate(text.splitlines(), start=1):
            found = _TOKEN.findall(line.split("#", 1)[0])
            self.texts += found
            self.lines += [lineno] * len(found)
        self.pos = 0
        self.line = 0

    def peek(self):
        return self.texts[self.pos] if self.pos < len(self.texts) else None

    def next(self, expect=None):
        if self.pos == len(self.texts):
            raise self.error("unexpected end of file")
        text = self.texts[self.pos]
        self.line = self.lines[self.pos]
        self.pos += 1
        if expect is not None and text != expect:
            raise self.error(f"expected {expect!r}, found {text!r}")
        return text

    def rest_of_line(self):
        """The tokens left on the line of the last token read."""
        start = self.pos
        while self.pos < len(self.lines) and self.lines[self.pos] == self.line:
            self.pos += 1
        return self.texts[start:self.pos]

    def named(self, table, kind):
        """The definition in ``table`` that the next token names."""
        name = self.next()
        if name not in table:
            raise UnknownNameAt(self.path, self.line, f"unknown {kind} {name!r}")
        return table[name]

    def element(self, poset: FinPoset) -> int:
        """The index in ``poset`` of the label that is the next token."""
        label = self.next()
        return _built(self, self.line, poset.index, label)

    def error(self, message, line=None):
        return ParseError(self.path, self.line if line is None else line, message)

    def entries(self, what):
        """Walk a ``{ entry; entry; ... }`` body, yielding the line of each
        entry's first token, unconsumed; the caller parses the entry.
        Separators are optional."""
        self.next("{")
        while (text := self.peek()) != "}":
            if text is None:
                raise self.error(f"unterminated {what} body")
            yield self.lines[self.pos]
            if self.peek() == ";":
                self.next()
        self.next()


def _built(lex: _Lexer, line, build, *args):
    """``build(*args)``, with any PowdomError it raises located at ``line``."""
    try:
        return build(*args)
    except PowdomError as exc:
        raise ParseError(lex.path, line, str(exc)) from None


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
            self.load_text(path, fh.read())

    def load_text(self, path, text):
        lex = _Lexer(path, text)
        while lex.peek() is not None:
            keyword = lex.next()
            handler = _STATEMENTS.get(keyword)
            if handler is None:
                raise lex.error(f"unknown statement {keyword!r}")
            handler(self, lex, lex.line)


def load_workspace(paths, size_guard: int = DEFAULT_SIZE_GUARD) -> Workspace:
    ws = Workspace(size_guard=size_guard)
    for path in paths:
        ws.load_file(path)
    return ws


# ---------------------------------------------------------------------------
# statement parsers, each given the line of its keyword


def _parse_arrow(ws: Workspace, lex: _Lexer):
    """``NAME : X -> Y``, as the name and the posets X and Y."""
    name = lex.next()
    lex.next(":")
    source = lex.named(ws.posets, "poset")
    lex.next("->")
    return name, source, lex.named(ws.posets, "poset")


def _parse_on(ws: Workspace, lex: _Lexer, opener):
    """``NAME on P <opener>``, as the name and the poset P."""
    name = lex.next()
    lex.next("on")
    poset = lex.named(ws.posets, "poset")
    lex.next(opener)
    return name, poset


def _parse_indices(lex: _Lexer, carrier: FinPoset, opener, closer) -> tuple:
    """A tuple of carrier labels between ``opener`` and ``closer``, as indices."""
    lex.next(opener)
    indices = []
    while (text := lex.next()) != closer:
        if text != ",":
            indices.append(_built(lex, lex.line, carrier.index, text))
    return tuple(indices)


def _parse_poset(ws: Workspace, lex: _Lexer, line):
    name = lex.next()
    if name == "extnn":
        raise lex.error("poset name 'extnn' is reserved for the rational carrier", line)
    labels, covers = [], []
    while (word := lex.next()) != "end":
        if word == "elems":
            labels += lex.rest_of_line()
        elif word == "le":
            covers.append((lex.next(), lex.next()))
        else:
            raise lex.error(f"expected 'elems', 'le' or 'end', found {word!r}")
    poset = _built(lex, line, poset_from_cover, labels, covers)
    ws.define(ws.posets, "poset", name, poset, lex.path, line)


def _parse_literal(lex: _Lexer, parse, message):
    """``parse`` of the next token; ``message`` formats a token it refuses."""
    text = lex.next()
    try:
        return parse(text)
    except (ValueError, PowdomError):
        raise lex.error(message.format(text)) from None


def _parse_tag(lex: _Lexer) -> OpTag:
    return _parse_literal(lex, OpTag, "expected a tag LE, GE or EQ, found {!r}")


def _parse_extnn(lex: _Lexer) -> ExtNN:
    return _parse_literal(lex, ExtNN.parse, "bad numeric literal {!r}")


# the binary ``builtin`` kinds, realised by the catalog's rational ops
_BUILTIN_OPS = {kind: catalog.RATIONAL_OPS[kind].fn for kind in ("add", "mul", "max", "min")}


def _parse_algebra(ws: Workspace, lex: _Lexer, line):
    name = lex.next()
    lex.next("on")
    # ``extnn`` is the rational carrier, a name no poset may take
    carrier = lex.named({**ws.posets, "extnn": None}, "poset")
    ops, tables, builtins = [], {}, {}
    while (word := lex.next()) != "end":
        if word == "op":
            sym = lex.next()
            lex.next("arity")
            arity = lex.next()
            if not arity.isdecimal():
                raise lex.error("arity must be a natural number")
            lex.next("tag")
            ops.append((sym, int(arity), _parse_tag(lex)))
        elif word == "table":
            sym = lex.next()
            if carrier is None:  # located at the token that opens the body
                opener = lex.lines[lex.pos] if lex.peek() else 0
                raise lex.error("tables need a finite carrier; use 'builtin' on extnn", opener)
            table = tables[sym] = {}
            for _ in lex.entries("table"):
                args = _parse_indices(lex, carrier, "(", ")")
                lex.next("->")
                table[args] = lex.element(carrier)
        elif word == "builtin":
            sym = lex.next()
            kind = lex.next()
            if kind in ("scale", "const"):
                builtins[sym] = (kind, _parse_extnn(lex))
            elif kind in _BUILTIN_OPS:
                builtins[sym] = (kind, None)
            else:
                raise lex.error(f"unknown builtin realisation {kind!r}")
        else:
            raise lex.error("expected 'op', 'table', 'builtin' or 'end'")
    algebra = _built(lex, line, _assemble_algebra, name, carrier, ops, tables, builtins)
    ws.define(ws.algebras, "algebra", name, algebra, lex.path, line)


def _assemble_algebra(name, carrier, ops, tables, builtins):
    """A FinAlgebra on a finite carrier; on extnn (carrier None), a RatAlgebra."""
    declared = {sym for sym, _, _ in ops}
    for sym in list(tables) + list(builtins):
        if sym not in declared:
            raise PowdomError(f"realisation for undeclared operation {sym!r}")
    specs = tuple(OpSpec(sym, arity, tag) for sym, arity, tag in ops)
    if carrier is not None:
        return FinAlgebra(name, carrier, Signature(specs), tables)
    realisations = {}
    for sym, arity, _ in ops:
        if sym not in builtins:
            raise PowdomError(f"operation {sym!r} has no builtin realisation")
        kind, arg = builtins[sym]
        if kind == "scale":
            if arity != 1:
                raise PowdomError("scale realises a unary operation")
            realisations[sym] = functools.partial(catalog.RATIONAL_OPS["scale"].fn, arg)
        elif kind == "const":
            if arity != 0:
                raise PowdomError("const realises a nullary operation")
            realisations[sym] = lambda args, c=arg: c
        else:
            if arity != 2:
                raise PowdomError(f"builtin {kind} realises a binary operation")
            realisations[sym] = _BUILTIN_OPS[kind]
    return RatAlgebra(name, Signature(specs), realisations)


def _parse_map_body(lex: _Lexer, source: FinPoset, target: FinPoset):
    table = [None] * source.size
    for _ in lex.entries("map"):
        src, src_line = lex.next(), lex.line
        lex.next("|->")
        # the image first: of two unknown labels, the image's is reported
        dst = lex.element(target)
        table[_built(lex, src_line, source.index, src)] = dst
    missing = [source.labels[i] for i, v in enumerate(table) if v is None]
    if missing:
        raise lex.error(f"map body misses elements {missing}")
    return tuple(table)


def _parse_map(ws: Workspace, lex: _Lexer, line):
    name, source, target = _parse_arrow(ws, lex)
    table = _parse_map_body(lex, source, target)
    mono = _built(lex, line, MonoMap, source, target, table)
    ws.define(ws.maps, "map", name, mono, lex.path, line)


def _parse_atoms(lex: _Lexer, poset: FinPoset) -> SimpleValuation:
    """The ``{ weight @ x; ... }`` body of a valuation."""
    atoms = []
    for _ in lex.entries("valuation"):
        weight = _parse_extnn(lex)
        lex.next("@")
        atoms.append((weight, lex.element(poset)))
    return SimpleValuation(poset, tuple(atoms))


def _parse_valuation(ws: Workspace, lex: _Lexer, line):
    name, poset = _parse_on(ws, lex, "val")
    val = _parse_atoms(lex, poset)
    ws.define(ws.valuations, "valuation", name, val, lex.path, line)


def _parse_envelope(envelope, ws: Workspace, lex: _Lexer, line):
    name, poset = _parse_on(ws, lex, envelope.side.opener)
    comps = []
    for _ in lex.entries("functional"):
        lex.next("val")
        comps.append(_parse_atoms(lex, poset))
    fn = _built(lex, line, envelope, tuple(comps))
    keyword = envelope.side.keyword
    ws.define(ws.envelopes[keyword], keyword, name, fn, lex.path, line)


def _parse_predicate(ws: Workspace, lex: _Lexer, line):
    name, poset = _parse_on(ws, lex, "pred")
    values = [None] * poset.size
    for _ in lex.entries("predicate"):
        elem = lex.element(poset)
        lex.next("->")
        values[elem] = _parse_extnn(lex)
    for i, v in enumerate(values):
        if v is None:
            raise lex.error(f"predicate misses element {poset.labels[i]}", line)
    pred = _built(lex, line, Predicate, poset, tuple(values))
    ws.define(ws.predicates, "predicate", name, pred, lex.path, line)


def _parse_with(ws: Workspace, lex: _Lexer, line) -> FinAlgebra:
    """``with ALGEBRA``; transformers need a finite one."""
    lex.next("with")
    algebra = lex.named(ws.algebras, "algebra")
    if not isinstance(algebra, FinAlgebra):
        raise lex.error("transformers need a finite observation algebra", line)
    return algebra


def _at_lines(lex: _Lexer):
    """Walk ``at ...`` clauses up to ``end``, yielding the line of each ``at``."""
    while (word := lex.next()) != "end":
        if word != "at":
            raise lex.error(f"expected 'at' or 'end', found {word!r}")
        yield lex.line


def _parse_transformer(ws: Workspace, lex: _Lexer, line):
    name, source, target = _parse_arrow(ws, lex)
    algebra = _parse_with(ws, lex, line)
    space = functional_space(target, algebra, ws.size_guard)
    table = [None] * source.size
    for at in _at_lines(lex):
        x = lex.element(source)
        entries = {}
        for entry in lex.entries("functional"):
            g = _parse_indices(lex, algebra.carrier, "[", "]")
            lex.next("->")
            g = _built(lex, entry, space.predicates.index, g)
            entries[g] = lex.element(algebra.carrier)
        functional = tuple(entries.get(i) for i in range(len(space.predicates)))
        if any(v is None for v in functional):
            raise lex.error(f"functional at {source.labels[x]} is not total", at)
        table[x] = _built(lex, at, space.space.index, functional)
    missing = [source.labels[i] for i, v in enumerate(table) if v is None]
    if missing:
        raise lex.error(f"transformer misses elements {missing}", line)
    t = _built(lex, line, space.transformer, source, table)
    ws.define(ws.transformers, "transformer", name, t, lex.path, line)


def _parse_ptransformer(ws: Workspace, lex: _Lexer, line):
    # predicates on Y are transformed to predicates on X
    name, y, x = _parse_arrow(ws, lex)
    algebra = _parse_with(ws, lex, line)
    y_space = functional_space(y, algebra, ws.size_guard)
    x_space = functional_space(x, algebra, ws.size_guard)
    table = [None] * len(y_space.predicates)
    for at in _at_lines(lex):
        g = _parse_indices(lex, algebra.carrier, "[", "]")
        pred = _parse_map_body(lex, x, algebra.carrier)
        image = _built(lex, at, x_space.predicates.index, pred)
        table[_built(lex, at, y_space.predicates.index, g)] = image
    missing = table.count(None)
    if missing:
        raise lex.error(f"{missing} predicates have no image", line)
    s = _built(lex, line, PredicateTransformer, y_space, x_space, tuple(table))
    ws.define(ws.ptransformers, "predicate transformer", name, s, lex.path, line)


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
