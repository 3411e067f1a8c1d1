"""Formula syntax: lexer, recursive-descent parser, printer, dual pushing.

Grammar, loosest to tightest binding:

    formula  := plus ('-o' formula)?            right associative
    plus     := with ('+' with)*
    with     := par ('&' par)*
    par      := tensor ('|' tensor)*
    tensor   := unary ('*' unary)*
    unary    := '!' unary | '?' unary | postfix
    postfix  := primary '^'*
    primary  := '(' formula ')' | '1' | '0' | 'bot' | 'top' | identifier

Atoms are identifiers ([A-Za-z_][A-Za-z0-9_]*); `bot` and `top` are reserved.
More than MAX_DEPTH operators and parentheses around one token are a ParseError,
so no input can exhaust the Python stack here or in the readers of the tree.
normalize_dual pushes every dual to the leaves by the de Morgan pairs
(tensor/par, with/plus, bang/whynot, the four constants) and unwinds the
lollipop as first factor tensor dual-of-second; a^^ collapses to a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import ParseError

KINDS = {
    "atom",
    "dual",
    "tensor",
    "par",
    "with",
    "plus",
    "lollipop",
    "bang",
    "whynot",
    "one",
    "bot",
    "zero",
    "top",
}

_CONSTANTS = {"1": "one", "0": "zero", "bot": "bot", "top": "top"}

MAX_DEPTH = 64


@dataclass(frozen=True)
class Formula:
    kind: str
    children: tuple["Formula", ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown formula kind {self.kind!r}")


def atom(name: str) -> Formula:
    return Formula("atom", name=name)


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "punct", "end"
    text: str
    pos: int


def _lex(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("-o", i):
            out.append(_Token("punct", "-o", i))
            i += 2
            continue
        if c in "!?^*|&+()":
            out.append(_Token("punct", c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in "10":
            out.append(_Token("ident", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", n))
    return out


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.take()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end'!r}", t.pos)
        return t

    def deeper(self, depth: int, t: _Token) -> int:
        if depth >= MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} operators", t.pos)
        return depth + 1

    def formula(self, depth: int = 0) -> Formula:
        left = self.level("+", depth)
        if self.peek().text == "-o":
            depth = self.deeper(depth, self.take())
            return Formula("lollipop", (left, self.formula(depth)))
        return left

    _NEXT = {"+": "&", "&": "|", "|": "*", "*": None}
    _KIND = {"+": "plus", "&": "with", "|": "par", "*": "tensor"}

    def level(self, op: str, depth: int) -> Formula:
        below = self._NEXT[op]
        sub = self.unary if below is None else partial(self.level, below)
        node = sub(depth)
        while self.peek().text == op:
            depth = self.deeper(depth, self.take())
            node = Formula(self._KIND[op], (node, sub(depth)))
        return node

    def unary(self, depth: int) -> Formula:
        t = self.peek()
        if t.text == "!":
            return Formula("bang", (self.unary(self.deeper(depth, self.take())),))
        if t.text == "?":
            return Formula("whynot", (self.unary(self.deeper(depth, self.take())),))
        return self.postfix(depth)

    def postfix(self, depth: int) -> Formula:
        node = self.primary(depth)
        while self.peek().text == "^":
            depth = self.deeper(depth, self.take())
            node = Formula("dual", (node,))
        return node

    def primary(self, depth: int) -> Formula:
        t = self.take()
        if t.text == "(":
            inner = self.formula(self.deeper(depth, t))
            self.expect(")")
            return inner
        if t.kind == "ident":
            if t.text in _CONSTANTS:
                return Formula(_CONSTANTS[t.text])
            return atom(t.text)
        raise ParseError(f"expected a formula, found {t.text or 'end'!r}", t.pos)


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    node = p.formula()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.pos)
    return node


def atom_names(f: Formula) -> frozenset[str]:
    """The atom names a formula mentions."""
    if f.kind == "atom":
        return frozenset((f.name,))
    return frozenset().union(*map(atom_names, f.children))


# ---------------------------------------------------------------------------
# Printing

_BINARY = {"lollipop": "-o", "plus": "+", "with": "&", "par": "|", "tensor": "*"}
# binding strength, loosest first; unary is tighter than every binary
_LEVEL = {"lollipop": 0, "plus": 1, "with": 2, "par": 3, "tensor": 4}
_CONST_TEXT = {"one": "1", "zero": "0", "bot": "bot", "top": "top"}


def format_formula(f: Formula) -> str:
    return _fmt(f, -1)


def _fmt(f: Formula, parent_level: int) -> str:
    k = f.kind
    if k == "atom":
        return f.name
    if k in _CONST_TEXT:
        return _CONST_TEXT[k]
    if k == "dual":
        inner = _fmt(f.children[0], 99)
        # postfix binds tighter than prefix: (!a)^ needs its parentheses
        if f.children[0].kind in ("bang", "whynot"):
            inner = f"({inner})"
        return inner + "^"
    if k in ("bang", "whynot"):
        mark = "!" if k == "bang" else "?"
        return mark + _fmt(f.children[0], 99)
    lvl = _LEVEL[k]
    l, r = f.children
    if k == "lollipop":  # right associative
        text = f"{_fmt(l, lvl + 1)} -o {_fmt(r, lvl)}"
    else:  # left associative
        text = f"{_fmt(l, lvl)} {_BINARY[k]} {_fmt(r, lvl + 1)}"
    return f"({text})" if lvl < parent_level else text


# ---------------------------------------------------------------------------
# Dual normalization

_DE_MORGAN = {"tensor": "par", "par": "tensor", "with": "plus", "plus": "with"}
_CONST_DUAL = {"one": "bot", "bot": "one", "zero": "top", "top": "zero"}


def normalize_dual(f: Formula) -> Formula:
    """Push duals to the leaves; only atoms keep a ^ mark."""
    if f.kind == "dual":
        return _dual_nf(f.children[0])
    if f.kind in ("atom",) or f.kind in _CONST_TEXT:
        return f
    return Formula(f.kind, tuple(normalize_dual(c) for c in f.children), f.name)


def _dual_nf(f: Formula) -> Formula:
    k = f.kind
    if k == "atom":
        return Formula("dual", (f,))
    if k == "dual":
        return normalize_dual(f.children[0])
    if k in _DE_MORGAN:
        return Formula(_DE_MORGAN[k], tuple(_dual_nf(c) for c in f.children))
    if k == "lollipop":
        a, b = f.children
        return Formula("tensor", (normalize_dual(a), _dual_nf(b)))
    if k == "bang":
        return Formula("whynot", (_dual_nf(f.children[0]),))
    if k == "whynot":
        return Formula("bang", (_dual_nf(f.children[0]),))
    return Formula(_CONST_DUAL[k])


def dual_formula(f: Formula) -> Formula:
    return normalize_dual(Formula("dual", (f,)))


def formula_to_json(f: Formula):
    out = {"kind": f.kind}
    if f.kind == "atom":
        out["name"] = f.name
    if f.children:
        out["children"] = [formula_to_json(c) for c in f.children]
    return out
