"""Reading and writing pre-proofs as labeled S-expression files.

File grammar (one form per line by convention, but whitespace is free):

    ; comment until end of line
    (seq <name> "<Gamma |- Delta>")          a sequent table entry
    (rule <name> <Tag> <params...>)          a rule table entry
    (node <id> <seq-name> <rule-name> <child-id>*)
    (node <id> <seq-name> open)
    (back <open-leaf-id> <target-id>)

A node names its sequent and rule by table entries above it.  The inline
shape, with no tables, reads too:

    (node <id> (seq "<Gamma |- Delta>") (rule <Tag> <params...>) (children <id>*))
    (node <id> (seq "<Gamma |- Delta>") open)

Sequent names, rule names and node ids are three separate name spaces, and
a node whose sequent name is followed by ``open`` alone is an open leaf.
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
:func:`dumps_preproof` writes the tables, then one short line per node, so a
text grows with its distinct sequents and rules, and by a few names per node.

Reading costs one table lookup per repeated object: the text is split into
tokens by one regular-expression pass, each distinct string literal is
unescaped once, each distinct sequent string is parsed once, and each rule
table entry, or distinct inline ``(rule ...)`` form, is built once (a
``Subst`` once per child sequent).  A node line is checked in place, by its
length and the types of its entries, and resolves its names with one dict
lookup each.  The tree is built in one walk from the root and one pass back
up.  A malformed text raises :class:`ProofFormatError`; the line and column
of the offending token are found only then.  These tables only save work:
equal sequents and rules are one object because they are interned when they
are built.
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


# A token is a flat form, a parenthesis, a string literal, a comment, an
# atom, or the opening quote of an unterminated string.  Only blanks match
# none of these, and findall skips them.  A flat form is a parenthesised list
# of atoms that hold no whitespace of any kind, which str.split cuts apart.
_ATOM = r'[^ \t\r\n();"]+'
_FLAT = r'\([ \t\r\n]*(?:[^\s();"]+(?:[ \t\r\n]+[^\s();"]+)*[ \t\r\n]*)?\)'
_TOKEN_RE = re.compile(_FLAT + r'|[()]|"[^"\\]*(?:\\.[^"\\]*)*"|;[^\n]*|' + _ATOM + '|"',
                       re.DOTALL)
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

    Tokens come from one ``findall``, a flat form of atoms being one token;
    each distinct string-literal token is unescaped once, and equal literals
    read as one object.  A line and column are computed only for an error.
    """
    tokens = _TOKEN_RE.findall(text)
    strings: dict[str, Quoted] = {}
    forms: list = []
    top, stack = forms, []
    it = iter(tokens)
    for tok in it:
        first = tok[0]
        if first not in '()";':  # an atom; a comment matches no branch
            top.append(tok)
        elif first == "(":
            if tok == "(":
                new: list = []
                top.append(new)
                stack.append(top)
                top = new
            else:
                top.append(tok[1:-1].split())
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

    The text is read in one pass (see :func:`_read_forms`).  A node names its
    sequent and rule in the tables above it, or writes them inline; each
    distinct sequent string is unescaped and parsed once, because parsing is
    the dearest part of a load, and each rule table entry or distinct inline
    ``(rule ...)`` form is built once (a ``Subst`` once per child sequent).
    Raises :class:`ProofFormatError` or the parser's :class:`HflError`.
    """
    raw_nodes: dict[str, tuple[Sequent, Optional[tuple], list[str]]] = {}
    back: dict[str, str] = {}
    sequents: dict[Quoted, Sequent] = {}  # each distinct sequent string, parsed
    seq_names: dict[str, Sequent] = {}
    rule_names: dict[str, tuple] = {}  # name -> (rule key, rule body)
    for form in _read_forms(text):
        if not (isinstance(form, list) and form):
            raise ProofFormatError(f"expected a (node ...) or (back ...) form, got {form!r}")
        head = form[0]
        size = len(form)
        if head == "node":
            if size < 3:
                raise ProofFormatError("(node ...) needs an id and a (seq ...) entry")
            node_id = form[1]
            if type(node_id) is not str:  # a literal or a list
                _atom_param(node_id, "node id")
            if node_id in raw_nodes:
                raise ProofFormatError(f"duplicate node id {node_id!r}")
            ref = form[2]
            named = type(ref) is str  # a sequent name, then a rule name and the children
            if named:
                seq = seq_names.get(ref)
                if seq is None:
                    raise ProofFormatError(f"node {node_id}: unknown sequent name {ref!r}")
            elif (isinstance(ref, list) and len(ref) == 2 and ref[0] == "seq"
                    and isinstance(ref[1], Quoted)):
                seq = sequents.get(ref[1])
                if seq is None:
                    seq = sequents[ref[1]] = parse_sequent(str(ref[1]))
            else:
                raise ProofFormatError(
                    f'node {node_id}: expected (seq "...") or a sequent name')
            if size == 4 and form[3] == "open":
                raw_nodes[node_id] = (seq, None, [])
                continue
            if named:
                if size == 3:
                    raise ProofFormatError(f"node {node_id}: expected a rule name or open")
                rule = rule_names.get(form[3]) if type(form[3]) is str else None
                if rule is None:
                    raise ProofFormatError(f"node {node_id}: unknown rule name {form[3]!r}")
                kids = form[4:]
            else:
                ref = form[3] if size in (4, 5) else None
                if not (isinstance(ref, list) and ref and ref[0] == "rule"):
                    raise ProofFormatError(f"node {node_id}: expected (rule ...) or open")
                rule = (None, ref[1:])
                kids = []
                if size == 5:
                    children = form[4]
                    if not (isinstance(children, list) and children and children[0] == "children"):
                        raise ProofFormatError(f"node {node_id}: expected (children ...)")
                    kids = children[1:]
            for k in kids:
                if type(k) is not str:  # a literal or a list
                    _atom_param(k, "child id")
            raw_nodes[node_id] = (seq, rule, kids)
        elif head == "seq":
            name = _table_name(form, seq_names, "sequent")
            if size != 3 or not isinstance(form[2], Quoted):
                raise ProofFormatError(f"sequent {name}: (seq {name} ...) takes one quoted sequent")
            seq = sequents.get(form[2])
            if seq is None:
                seq = sequents[form[2]] = parse_sequent(str(form[2]))
            seq_names[name] = seq
        elif head == "rule":
            name = _table_name(form, rule_names, "rule")
            rule_names[name] = ((name,), form[2:])
        elif head == "back":
            if size != 3:
                raise ProofFormatError("(back ...) takes a leaf id and a target id")
            leaf_id = _atom_param(form[1], "leaf id")
            if leaf_id in back:
                raise ProofFormatError(f"duplicate (back ...) form for leaf {leaf_id!r}")
            back[leaf_id] = _atom_param(form[2], "target id")
        else:
            raise ProofFormatError(f"unknown top-level form {head!r}")

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


def _table_name(form: list, table: dict, what: str) -> str:
    """The name that a (seq ...) or (rule ...) table form defines, once it is
    a bare atom that ``table`` does not hold yet."""
    name = _atom_param(form[1] if len(form) > 1 else None, f"{what} name")
    if name in table:
        raise ProofFormatError(f"duplicate {what} name {name!r}")
    return name


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


def _build_tree(raw_nodes: dict[str, tuple[Sequent, Optional[tuple], list[str]]],
                root: str) -> tuple[DerivTree, set[str]]:
    """The tree below ``root``, built without recursion, and the ids in it.

    One walk from the root, last child first, lists the nodes; reversed, the
    list is the postorder, in which each node is built from its children
    and rules are built from the leaf up.  A node reached twice is its own
    ancestor or is listed as a child twice.  A node's rule is ``None``
    (open) or a pair of a key and a rule body; the key is the table name's
    1-tuple, or ``None`` for an inline form, which :func:`_form_key` keys.
    """
    order: list[str] = []
    seen: set[str] = set()
    stack = [root]
    while stack:
        node_id = stack.pop()
        if node_id in seen:
            if _below(raw_nodes, node_id):
                raise ProofFormatError(f"node {node_id!r} is its own ancestor")
            raise ProofFormatError(f"node {node_id!r} is listed as a child twice")
        entry = raw_nodes.get(node_id)
        if entry is None:
            raise ProofFormatError(f"child id {node_id!r} has no (node ...) form")
        seen.add(node_id)
        order.append(node_id)
        stack += entry[2]

    built: list[DerivTree] = []  # finished subtrees whose parent is pending
    rules: dict[tuple, Rule] = {}  # one object per table entry or inline form
    for node_id in reversed(order):
        seq, entry, kids = raw_nodes[node_id]
        first = len(built) - len(kids)
        children, built[first:] = tuple(built[first:]), []
        rule = None
        if entry is not None:
            key, parts = entry
            if key is None:
                key = _form_key(parts)
            if parts and parts[0] == "Subst":  # the source is the child's sequent
                key += tuple(id(c.seq) for c in children)
            rule = rules.get(key)
            if rule is None:
                rule = rules[key] = rule_from_form(parts, [c.seq for c in children])
        built.append(DerivTree(node_id, seq, rule, children))
    return built[0], seen


def _below(raw_nodes: dict[str, tuple[Sequent, Optional[tuple], list[str]]],
           node_id: str) -> bool:
    """Whether ``node_id`` is among its own descendants."""
    todo, seen = list(raw_nodes[node_id][2]), set()
    while todo:
        k = todo.pop()
        if k == node_id:
            return True
        if k not in seen and k in raw_nodes:
            seen.add(k)
            todo += raw_nodes[k][2]
    return False


def dumps_preproof(pp: PreProof) -> str:
    """The text of ``pp`` in the grammar of this module, which
    :func:`loads_preproof` reads back as the same proof.

    The text is a table of the distinct sequents and rules, named ``s0, s1,
    ...`` and ``r0, r1, ...`` in the preorder of their first node, then one
    ``(node ...)`` line per node in preorder and one ``(back ...)`` line per
    back edge.  Each table entry is checked once to parse back as itself; if
    one does not, a ProofFormatError names the first node that holds it.  So
    does a node id, a back-edge end or a name parameter of a rule that is not
    one bare atom of the grammar.
    """
    seq_names: dict[int, str] = {}  # id of each sequent -> its table name
    rule_names: dict[int, str] = {}  # id of each rule -> its table name
    table, lines = [], []
    for node in pp.tree.walk():
        _name(node.id, "node id")
        try:
            seq = seq_names.get(id(node.seq))
            if seq is None:
                seq = seq_names[id(node.seq)] = f"s{len(seq_names)}"
                table.append(_write_form(
                    ["seq", seq, _readable(node.seq, sequent_to_str, parse_sequent)]))
            if node.rule is None:
                lines.append(_write_form(["node", node.id, seq, "open"]))
                continue
            rule = rule_names.get(id(node.rule))
            if rule is None:
                rule = rule_names[id(node.rule)] = f"r{len(rule_names)}"
                table.append(_write_form(["rule", rule] + rule_to_form(node.rule)))
        except ProofFormatError as exc:
            raise ProofFormatError(f"node {node.id}: {exc}") from None
        lines.append(_write_form(["node", node.id, seq, rule] + [c.id for c in node.children]))
    for leaf_id in sorted(pp.back_edges):
        target = _name(pp.back_edges[leaf_id], f"node {leaf_id}: back-edge target")
        lines.append(_write_form(["back", _name(leaf_id, "back-edge source"), target]))
    return "\n".join(table + lines) + "\n"


def load_preproof(path) -> PreProof:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_preproof(fh.read())

