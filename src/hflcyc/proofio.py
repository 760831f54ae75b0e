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
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from .syntax import Expr, HflError, Sequent, parse_expr, parse_sequent, sequent_to_str, to_str
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


# Every character is in one match (blanks, a comment, a parenthesis, a string
# literal, an atom, or the opening quote of an unterminated string), so a
# token's position is the total length of the matches before it.
_SEXP_RE = re.compile(r'[ \t\r\n]+|;[^\n]*|[()]|"[^"\\]*(?:\\.[^"\\]*)*"|[^ \t\r\n();"]+|"',
                      re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _lex(text: str) -> Iterator[tuple[str, str, int]]:
    """(kind, token, position) for each parenthesis, atom and string literal.

    A parenthesis is its own kind; a string literal is unescaped and
    :class:`Quoted`.
    """
    pos = 0
    for tok in _SEXP_RE.findall(text):
        first = tok[0]
        if first == '"':
            if len(tok) == 1:
                raise ProofFormatError(_where(text, pos, "unterminated string literal"))
            yield "string", Quoted(_ESCAPE.sub(r"\1", tok[1:-1])), pos
        elif first in "()":
            yield first, first, pos
        elif first not in " \t\r\n;":
            yield "atom", tok, pos
        pos += len(tok)


def _where(text: str, pos: int, message: str) -> str:
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return f"line {line}, column {col}: {message}"


def _read_forms(text: str) -> list:
    stack: list[list] = [[]]
    for kind, tok, pos in _lex(text):
        if kind == "(":
            new: list = []
            stack[-1].append(new)
            stack.append(new)
        elif kind == ")":
            if len(stack) == 1:
                raise ProofFormatError(_where(text, pos, "unbalanced ')'"))
            stack.pop()
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ProofFormatError("unbalanced '(' at end of input")
    return stack[0]


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
        if len(args) != 1 or not str(args[0]).isdigit():
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
        if (len(args) != 6 or not isinstance(args[4], list)
                or not isinstance(args[5], list)
                or not args[4][:1] == ["left"] or not args[5][:1] == ["right"]):
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


def rule_to_form(rule: Rule) -> list:
    parts: list = [rule.tag]
    if isinstance(rule, Cut):
        parts.append(Quoted(to_str(rule.formula)))
    elif isinstance(rule, (ExL, ExR)):
        parts.append(str(rule.pos))
    elif isinstance(rule, Subst):
        for x, e in rule.mapping:
            parts.append([x, Quoted(to_str(e))])
    elif isinstance(rule, Mono):
        parts += [Quoted(to_str(rule.formula)), rule.var,
                  Quoted(to_str(rule.lower)), Quoted(to_str(rule.upper)),
                  list(rule.names)]
    elif isinstance(rule, EqL):
        parts += [rule.hole_l, rule.hole_r,
                  Quoted(to_str(rule.lhs)), Quoted(to_str(rule.rhs)),
                  ["left"] + [Quoted(to_str(g)) for g in rule.left_ctx],
                  ["right"] + [Quoted(to_str(d)) for d in rule.right_ctx]]
    elif isinstance(rule, Nat):
        parts.append(rule.var)
    return parts


# ---------------------------------------------------------------------------
# whole pre-proofs
# ---------------------------------------------------------------------------


def loads_preproof(text: str) -> PreProof:
    raw_nodes: dict[str, tuple[Sequent, Optional[list], list[str]]] = {}
    back: dict[str, str] = {}
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
        if len(form) < 3:
            raise ProofFormatError("(node ...) needs an id and a (seq ...) entry")
        node_id = _atom_param(form[1], "node id")
        if node_id in raw_nodes:
            raise ProofFormatError(f"duplicate node id {node_id!r}")
        seq_form = form[2]
        if not (isinstance(seq_form, list) and len(seq_form) == 2 and seq_form[0] == "seq"
                and isinstance(seq_form[1], Quoted)):
            raise ProofFormatError(f"node {node_id}: expected (seq \"...\")")
        seq = parse_sequent(str(seq_form[1]))
        rest = form[3:]
        if rest == ["open"]:
            raw_nodes[node_id] = (seq, None, [])
            continue
        if len(rest) not in (1, 2) or not isinstance(rest[0], list) or rest[0][:1] != ["rule"]:
            raise ProofFormatError(f"node {node_id}: expected (rule ...) or open")
        rule_form = rest[0][1:]
        kids: list[str] = []
        if len(rest) == 2:
            if not (isinstance(rest[1], list) and rest[1][:1] == ["children"]):
                raise ProofFormatError(f"node {node_id}: expected (children ...)")
            kids = [_atom_param(k, "child id") for k in rest[1][1:]]
        raw_nodes[node_id] = (seq, rule_form, kids)

    if not raw_nodes:
        raise ProofFormatError("no (node ...) forms in input")
    referenced = {k for (_, _, kids) in raw_nodes.values() for k in kids}
    roots = [i for i in raw_nodes if i not in referenced]
    if len(roots) != 1:
        raise ProofFormatError(f"expected exactly one root node, found {sorted(roots)}")

    tree = _build_tree(raw_nodes, roots[0])
    seen = {n.id for n in tree.walk()}
    orphans = set(raw_nodes) - seen
    if orphans:
        raise ProofFormatError(f"nodes not reachable from the root: {sorted(orphans)}")
    return PreProof(tree, back)


def _build_tree(raw_nodes: dict[str, tuple[Sequent, Optional[list], list[str]]],
                root: str) -> DerivTree:
    """The tree below ``root``, built without recursion.

    Each node is entered, then left after its children in order, so errors
    come in the order of a recursive build.
    """
    built: list[DerivTree] = []  # finished subtrees whose parent is pending
    path: set[str] = set()
    stack = [(root, False)]
    while stack:
        node_id, leaving = stack.pop()
        if not leaving:
            if node_id not in raw_nodes:
                raise ProofFormatError(f"child id {node_id!r} has no (node ...) form")
            if node_id in path:
                raise ProofFormatError(f"node {node_id!r} is its own ancestor")
            path.add(node_id)
            stack.append((node_id, True))
            stack.extend((k, False) for k in reversed(raw_nodes[node_id][2]))
            continue
        path.discard(node_id)
        seq, rule_form, kids = raw_nodes[node_id]
        first = len(built) - len(kids)
        children, built[first:] = tuple(built[first:]), []
        rule = None if rule_form is None else rule_from_form(rule_form, [c.seq for c in children])
        built.append(DerivTree(node_id, seq, rule, children))
    return built[0]


def dumps_preproof(pp: PreProof) -> str:
    lines = []
    for node in pp.tree.walk():
        parts: list = ["node", node.id, ["seq", Quoted(sequent_to_str(node.seq))]]
        if node.rule is None:
            parts.append("open")
        else:
            parts.append(["rule"] + rule_to_form(node.rule))
            parts.append(["children"] + [c.id for c in node.children])
        lines.append(_write_form(parts))
    for leaf_id in sorted(pp.back_edges):
        lines.append(_write_form(["back", leaf_id, pp.back_edges[leaf_id]]))
    return "\n".join(lines) + "\n"


def load_preproof(path) -> PreProof:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_preproof(fh.read())

