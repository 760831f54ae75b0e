"""Reading and writing pre-proofs as labeled S-expression files.

File grammar (one form per line by convention, but whitespace is free):

    ; comment until end of line
    (node <id> (seq "<Gamma |- Delta>") (rule <Tag> <params...>) (children <id>*))
    (node <id> (seq "<Gamma |- Delta>") open)
    (back <open-leaf-id> <target-id>)

The root is the unique node that is nobody's child.  Rule parameters:

    Cut    "<formula>"
    ExL    <position>            ExR <position>
    Subst  (<var> "<expr>")*     -- the premise itself is the child's sequent
    Mono   "<formula>" <var> "<lower>" "<upper>" (<fresh-name>*)
    EqL    <hole-l> <hole-r> "<lhs>" "<rhs>" (left "<formula>"*) (right "<formula>"*)
    Nat    <var>
    all other tags take no parameters.

Formulas and sequents are quoted strings in the concrete syntax of the
`syntax` module; backslash and double quote are escaped with a backslash.

Reading costs one table lookup per repeated string: the text is split into
tokens by one regular-expression pass, each distinct string literal is
unescaped once, each distinct ``(seq "...")`` string is parsed once, and each
distinct ``(rule ...)`` form is built once.  Each ``(node ...)`` form is
checked in place, by its length and the heads of its entries, with no copy
of its tail; a child id that is a plain atom passes with one type test.  A
malformed text raises :class:`ProofFormatError`; the line and column of the
offending token are found only then.  These tables only save work: equal
sequents and rules are one object because they are interned when they are
built.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import length_hint
from typing import Iterator, Optional

from .syntax import (
    Expr, HflError, Sequent, line_column, parse_expr, parse_sequent, sequent_to_str, to_str,
)
from .kernel import (
    RULES, Cut, DerivTree, EqL, ExL, ExR, Mono, Nat, PreProof, Rule, Subst,
)


class ProofFormatError(HflError):
    pass


# ---------------------------------------------------------------------------
# S-expressions
# ---------------------------------------------------------------------------


class Quoted(str):
    """A string literal, as opposed to a bare atom."""


# A token is a parenthesis, a string literal, a comment, an atom, or the
# opening quote of an unterminated string.  Only blanks match none of these,
# and findall skips them.
_ATOM = r'[^ \t\r\n();"]+'
_TOKEN_RE = re.compile(r'[()]|"[^"\\]*(?:\\.[^"\\]*)*"|;[^\n]*|' + _ATOM + '|"', re.DOTALL)
_ATOM_RE = re.compile(_ATOM)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unquote(token: str) -> Quoted:
    """The string a string-literal token stands for."""
    body = token[1:-1]
    if "\\" in body:
        body = _ESCAPE.sub(lambda m: m[1], body)
    return Quoted(body)


def _read_forms(text: str) -> list:
    """The forms of ``text``: a parenthesised form is a list, an atom a str,
    and a string literal a :class:`Quoted`.

    Tokens come from one ``findall``; each distinct string-literal token is
    unescaped once, and equal literals read as one object.  A line and column
    are computed only for an error.
    """
    tokens = _TOKEN_RE.findall(text)
    strings: dict[str, Quoted] = {}
    forms: list = []
    top, stack = forms, []
    it = iter(tokens)
    for tok in it:
        first = tok[0]
        if first == "(":
            new: list = []
            top.append(new)
            stack.append(top)
            top = new
        elif first == ")":
            if not stack:
                raise ProofFormatError(_where(text, tokens, it, "unbalanced ')'"))
            top = stack.pop()
        elif first == '"':
            quoted = strings.get(tok)
            if quoted is None:
                if len(tok) == 1:
                    raise ProofFormatError(_where(text, tokens, it, "unterminated string literal"))
                quoted = strings[tok] = _unquote(tok)
            top.append(quoted)
        elif first != ";":
            top.append(tok)
    if stack:
        raise ProofFormatError("unbalanced '(' at end of input")
    return forms


def _where(text: str, tokens: list[str], it: Iterator[str], message: str) -> str:
    """``message`` at the line and column of the token ``it`` read last."""
    index = len(tokens) - length_hint(it) - 1
    pos = next(islice(_TOKEN_RE.finditer(text), index, None)).start()
    line, col = line_column(text, pos)
    return f"line {line}, column {col}: {message}"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_form(form) -> str:
    if isinstance(form, Quoted):
        return _quote(form)
    if isinstance(form, str):
        return form
    return "(" + " ".join(_write_form(x) for x in form) + ")"


# ---------------------------------------------------------------------------
# rule parameters
# ---------------------------------------------------------------------------


def _expr_param(x, what: str) -> Expr:
    if not isinstance(x, Quoted):
        raise ProofFormatError(f"{what} must be a quoted formula, got {x!r}")
    return parse_expr(str(x))


def _atom_param(x, what: str) -> str:
    if not isinstance(x, str) or isinstance(x, Quoted) or isinstance(x, list):
        raise ProofFormatError(f"{what} must be a bare name, got {x!r}")
    return x


def rule_from_form(parts: list, child_sequents: list[Sequent]) -> Rule:
    """Build a Rule from the body of a (rule Tag params...) form."""
    if not parts:
        raise ProofFormatError("empty (rule) form")
    tag = _atom_param(parts[0], "rule tag")
    cls = RULES.get(tag)
    if cls is None:
        raise ProofFormatError(f"unknown rule tag {tag!r}")
    args = parts[1:]

    if cls is Cut:
        if len(args) != 1:
            raise ProofFormatError("Cut takes one formula parameter")
        return Cut(_expr_param(args[0], "Cut formula"))
    if cls in (ExL, ExR):
        # a bare atom of ASCII digits: str.isdigit alone also accepts "²"
        if (len(args) != 1 or isinstance(args[0], (list, Quoted))
                or not (args[0].isascii() and args[0].isdigit())):
            raise ProofFormatError(f"{tag} takes one position parameter")
        return cls(int(args[0]))
    if cls is Subst:
        if len(child_sequents) != 1:
            raise ProofFormatError("Subst requires exactly one child node")
        mapping = []
        for pair in args:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ProofFormatError("Subst parameters are (<var> \"<expr>\") pairs")
            mapping.append((_atom_param(pair[0], "Subst variable"),
                            _expr_param(pair[1], "Subst replacement")))
        return Subst(child_sequents[0], tuple(mapping))
    if cls is Mono:
        if len(args) != 5 or not isinstance(args[4], list):
            raise ProofFormatError(
                'Mono takes "<formula>" <var> "<lower>" "<upper>" (<name>*)')
        return Mono(_expr_param(args[0], "Mono formula"),
                    _atom_param(args[1], "Mono variable"),
                    _expr_param(args[2], "Mono lower bound"),
                    _expr_param(args[3], "Mono upper bound"),
                    tuple(_atom_param(y, "Mono fresh name") for y in args[4]))
    if cls is EqL:
        # a string's slice is a string, so only a list passes these checks
        if len(args) != 6 or args[4][:1] != ["left"] or args[5][:1] != ["right"]:
            raise ProofFormatError(
                'EqL takes <hole-l> <hole-r> "<lhs>" "<rhs>" (left ...) (right ...)')
        return EqL(_atom_param(args[0], "EqL hole"),
                   _atom_param(args[1], "EqL hole"),
                   _expr_param(args[2], "EqL lhs"),
                   _expr_param(args[3], "EqL rhs"),
                   tuple(_expr_param(g, "EqL left context") for g in args[4][1:]),
                   tuple(_expr_param(d, "EqL right context") for d in args[5][1:]))
    if cls is Nat:
        if len(args) != 1:
            raise ProofFormatError("Nat takes one variable parameter")
        return Nat(_atom_param(args[0], "Nat variable"))
    if args:
        raise ProofFormatError(f"{tag} takes no parameters")
    return cls()


def _readable(value, show, parse) -> Quoted:
    """``show(value)``, once ``parse`` has read it back as ``value`` itself
    (equal formulas and sequents are one object), or a ProofFormatError."""
    text = show(value)
    try:
        again = parse(text)
    except HflError as exc:
        raise ProofFormatError(f"{text!r} does not parse back: {exc}") from None
    if again is not value:
        raise ProofFormatError(f"{text!r} parses back as something else")
    return Quoted(text)


def _formula(e: Expr) -> Quoted:
    return _readable(e, to_str, parse_expr)


def _name(x: str, what: str) -> str:
    """``x``, once it reads back as one bare atom, or a ProofFormatError."""
    if not _ATOM_RE.fullmatch(x):
        raise ProofFormatError(f"{what} {x!r} is not a bare name")
    return x


def rule_to_form(rule: Rule) -> list:
    """The body of the (rule ...) form of ``rule``; a formula parameter that
    would not parse back as itself, or a name parameter that is not one bare
    atom, raises ProofFormatError."""
    parts: list = [rule.tag]
    if isinstance(rule, Cut):
        parts.append(_formula(rule.formula))
    elif isinstance(rule, (ExL, ExR)):
        parts.append(str(rule.pos))
    elif isinstance(rule, Subst):
        for x, e in rule.mapping:
            parts.append([_name(x, "Subst variable"), _formula(e)])
    elif isinstance(rule, Mono):
        parts += [_formula(rule.formula), _name(rule.var, "Mono variable"),
                  _formula(rule.lower), _formula(rule.upper),
                  [_name(y, "Mono fresh name") for y in rule.names]]
    elif isinstance(rule, EqL):
        parts += [_name(rule.hole_l, "EqL hole"), _name(rule.hole_r, "EqL hole"),
                  _formula(rule.lhs), _formula(rule.rhs),
                  ["left"] + [_formula(g) for g in rule.left_ctx],
                  ["right"] + [_formula(d) for d in rule.right_ctx]]
    elif isinstance(rule, Nat):
        parts.append(_name(rule.var, "Nat variable"))
    return parts


# ---------------------------------------------------------------------------
# whole pre-proofs
# ---------------------------------------------------------------------------


def loads_preproof(text: str) -> PreProof:
    """The pre-proof written in ``text``, in the grammar of this module.

    The text is read in one pass (see :func:`_read_forms`).  Each distinct
    ``(seq "...")`` string is unescaped and parsed once, because parsing is
    the dearest part of a load, and each distinct ``(rule ...)`` form is built
    once.
    Raises :class:`ProofFormatError` or the parser's :class:`HflError`.
    """
    raw_nodes: dict[str, tuple[Sequent, Optional[list], list[str]]] = {}
    back: dict[str, str] = {}
    sequents: dict[Quoted, Sequent] = {}
    for form in _read_forms(text):
        if not (isinstance(form, list) and form):
            raise ProofFormatError(f"expected a (node ...) or (back ...) form, got {form!r}")
        head = form[0]
        if head == "back":
            if len(form) != 3:
                raise ProofFormatError("(back ...) takes a leaf id and a target id")
            leaf_id = _atom_param(form[1], "leaf id")
            if leaf_id in back:
                raise ProofFormatError(f"duplicate (back ...) form for leaf {leaf_id!r}")
            back[leaf_id] = _atom_param(form[2], "target id")
            continue
        if head != "node":
            raise ProofFormatError(f"unknown top-level form {head!r}")
        size = len(form)
        if size < 3:
            raise ProofFormatError("(node ...) needs an id and a (seq ...) entry")
        node_id = _atom_param(form[1], "node id")
        if node_id in raw_nodes:
            raise ProofFormatError(f"duplicate node id {node_id!r}")
        seq_form = form[2]
        if not (isinstance(seq_form, list) and len(seq_form) == 2 and seq_form[0] == "seq"
                and isinstance(seq_form[1], Quoted)):
            raise ProofFormatError(f"node {node_id}: expected (seq \"...\")")
        seq = sequents.get(seq_form[1])
        if seq is None:
            seq = sequents[seq_form[1]] = parse_sequent(str(seq_form[1]))
        if size == 4 and form[3] == "open":
            raw_nodes[node_id] = (seq, None, [])
            continue
        rule_form = form[3] if size in (4, 5) else None
        if not (isinstance(rule_form, list) and rule_form and rule_form[0] == "rule"):
            raise ProofFormatError(f"node {node_id}: expected (rule ...) or open")
        kids: list[str] = []
        if size == 5:
            children = form[4]
            if not (isinstance(children, list) and children and children[0] == "children"):
                raise ProofFormatError(f"node {node_id}: expected (children ...)")
            kids = children[1:]
            for k in kids:
                if type(k) is not str:  # a literal or a list
                    _atom_param(k, "child id")
        raw_nodes[node_id] = (seq, rule_form[1:], kids)

    if not raw_nodes:
        raise ProofFormatError("no (node ...) forms in input")
    referenced = {k for (_, _, kids) in raw_nodes.values() for k in kids}
    roots = [i for i in raw_nodes if i not in referenced]
    if len(roots) != 1:
        raise ProofFormatError(f"expected exactly one root node, found {sorted(roots)}")

    tree, seen = _build_tree(raw_nodes, roots[0])
    orphans = raw_nodes.keys() - seen
    if orphans:
        raise ProofFormatError(f"nodes not reachable from the root: {sorted(orphans)}")
    return PreProof(tree, back)


def _form_key(form: list) -> tuple:
    """``form`` flat, without recursion: a list as its length, then its items,
    and a string literal as a 1-tuple, so ``"x"`` stays apart from ``x``.
    A form of plain atoms, as most rule forms are, is ``(len, *form)``."""
    for x in form:
        if type(x) is not str:
            break
    else:
        return (len(form), *form)
    out: list = []
    todo = [form]
    while todo:
        x = todo.pop()
        if isinstance(x, list):
            out.append(len(x))
            todo += reversed(x)
        else:
            out.append((x,) if isinstance(x, Quoted) else x)
    return tuple(out)


def _build_tree(raw_nodes: dict[str, tuple[Sequent, Optional[list], list[str]]],
                root: str) -> tuple[DerivTree, set[str]]:
    """The tree below ``root``, built without recursion, and the ids in it.

    Each node is entered, then left after its children in order, so errors
    come in the order of a recursive build.
    """
    built: list[DerivTree] = []  # finished subtrees whose parent is pending
    rules: dict[tuple, Rule] = {}  # one object per distinct (rule ...) form
    path: set[str] = set()
    seen: set[str] = set()
    stack = [(root, False)]
    while stack:
        node_id, leaving = stack.pop()
        if not leaving:
            if node_id not in raw_nodes:
                raise ProofFormatError(f"child id {node_id!r} has no (node ...) form")
            if node_id in path:
                raise ProofFormatError(f"node {node_id!r} is its own ancestor")
            path.add(node_id)
            seen.add(node_id)
            stack.append((node_id, True))
            stack.extend((k, False) for k in reversed(raw_nodes[node_id][2]))
            continue
        path.discard(node_id)
        seq, rule_form, kids = raw_nodes[node_id]
        first = len(built) - len(kids)
        children, built[first:] = tuple(built[first:]), []
        rule = None
        if rule_form is not None:
            key = _form_key(rule_form)
            if rule_form and rule_form[0] == "Subst":  # the source is the child's sequent
                key += tuple(id(c.seq) for c in children)
            if key not in rules:
                rules[key] = rule_from_form(rule_form, [c.seq for c in children])
            rule = rules[key]
        built.append(DerivTree(node_id, seq, rule, children))
    return built[0], seen


def dumps_preproof(pp: PreProof) -> str:
    """The text of ``pp`` in the grammar of this module, which
    :func:`loads_preproof` reads back as the same proof.

    Each distinct sequent and rule is printed once, and checked once to parse
    back as itself; if one does not, a ProofFormatError names the first node
    in preorder that holds it.  So does a node id, a back-edge end or a name
    parameter of a rule that is not one bare atom of the grammar.
    """
    forms: dict[int, object] = {}  # id of each sequent and rule -> its entry
    lines = []
    for node in pp.tree.walk():
        _name(node.id, "node id")
        try:
            seq = forms.get(id(node.seq))
            if seq is None:
                seq = forms[id(node.seq)] = _readable(node.seq, sequent_to_str, parse_sequent)
            parts: list = ["node", node.id, ["seq", seq]]
            if node.rule is None:
                parts.append("open")
            else:
                rule = forms.get(id(node.rule))
                if rule is None:
                    rule = forms[id(node.rule)] = ["rule"] + rule_to_form(node.rule)
                parts += [rule, ["children"] + [c.id for c in node.children]]
        except ProofFormatError as exc:
            raise ProofFormatError(f"node {node.id}: {exc}") from None
        lines.append(_write_form(parts))
    for leaf_id in sorted(pp.back_edges):
        target = _name(pp.back_edges[leaf_id], f"node {leaf_id}: back-edge target")
        lines.append(_write_form(["back", _name(leaf_id, "back-edge source"), target]))
    return "\n".join(lines) + "\n"


def load_preproof(path) -> PreProof:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_preproof(fh.read())

