"""Reading and writing pre-proofs as labeled S-expression files.

File grammar (one form per line by convention, but whitespace is free):

    ; comment until end of line
    (type <name> <arg-type> <result-type>)          an arrow type table entry
    (form <name> <Tag> <field>*)                    a formula table entry
    (seq <name> <formula>* |- <formula>*)           a sequent table entry
    (rule <name> <Tag> <params...>)                 a rule table entry
    (node <id> <seq-name> <rule-name> <child-id>*)
    (node <id> <seq-name> open)
    (back <open-leaf-id> <target-id>)

An entry names only entries above it.  Types, formulas, sequents, rules and
nodes are five separate name spaces; the types ``N`` and ``O`` are defined
from the start.  A formula entry is one node of the formula syntax, its tag
the class name and its fields those of the class, in order:

    Var x     Zero     Succ f     Eq f f     Or f f     And f f     App f f
    Lam x T f     Mu x T f     Nu x T f

where ``x`` is a variable, which must be a name that the formula grammar
reads as that variable (so not ``Z``, ``S``, ``mu`` or ``nu``), ``T`` a type
name and ``f`` a formula name.  Rule parameters:

    Cut    <formula>
    ExL    <position>            ExR <position>
    Subst  (<var> <formula>)*    -- the premise itself is the child's sequent
    Mono   <formula> <var> <lower> <upper> (<fresh-name>*)
    EqL    <hole-l> <hole-r> <lhs> <rhs> (left <formula>*) (right <formula>*)
    Nat    <var>
    all other tags take no parameters.

A node whose sequent name is followed by ``open`` alone is an open leaf.  The
root is the unique node that is nobody's child.  A formula may also be a
quoted string in the concrete syntax of the `syntax` module (backslash and
double quote escaped with a backslash), and a sequent entry one quoted
sequent, ``(seq <name> "<Gamma |- Delta>")``.  The inline shape, with no
tables, reads too:

    (node <id> (seq "<Gamma |- Delta>") (rule <Tag> <params...>) (children <id>*))
    (node <id> (seq "<Gamma |- Delta>") open)

:func:`dumps_preproof` writes the tables, then one short line per node, so a
text grows with its distinct types, formula nodes, sequents and rules, and
by a few names per node.  It writes no formula text.

Reading costs one table lookup per repeated object: the text is split into
tokens by one regular-expression pass, and a table entry or node line, being
a list of atoms, is one token that ``str.split`` cuts apart.  Each formula or
type entry is one constructor call over the entries it names, each sequent
entry one more, and each rule table entry, or distinct inline ``(rule ...)``
form, is built once (a ``Subst`` once per child sequent).  A quoted string
is unescaped once per distinct literal and a quoted sequent parsed once.  A
node line is checked in place, by its length and the types of its entries,
and resolves its names with one dict lookup each.  The tree is built in one
walk from the root and one pass back up.  A malformed text raises
:class:`ProofFormatError`; the line and column of the offending token are
found only then.  The tables only save work: a loaded proof holds the same
objects as one built in memory, since every value is interned when it is
built.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import length_hint
from typing import Iterator, Optional

from .syntax import (
    BINDERS, NAT, PROP, And, App, Arrow, Eq, Expr, HflError, HflTypeError, Interned, Lam, Mu,
    Nu, Or, Sequent, SimpleType, Succ, Var, Zero, line_column, parse_expr,
    parse_sequent, to_str,
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
    if isinstance(x, Expr):  # a formula name, which the loader has looked up
        return x
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


def _name(x: str, what: str) -> str:
    """``x``, once it reads back as one bare atom, or a ProofFormatError."""
    if not _ATOM_RE.fullmatch(x):
        raise ProofFormatError(f"{what} {x!r} is not a bare name")
    return x


def rule_to_form(rule: Rule, formula=lambda e: Quoted(to_str(e))) -> list:
    """The body of the (rule ...) form of ``rule``, with each formula
    parameter as ``formula`` gives it, by default a quoted formula.  A name
    parameter that is not one bare atom raises ProofFormatError."""
    parts: list = [rule.tag]
    if isinstance(rule, Cut):
        parts.append(formula(rule.formula))
    elif isinstance(rule, (ExL, ExR)):
        parts.append(str(rule.pos))
    elif isinstance(rule, Subst):
        for x, e in rule.mapping:
            parts.append([_name(x, "Subst variable"), formula(e)])
    elif isinstance(rule, Mono):
        parts += [formula(rule.formula), _name(rule.var, "Mono variable"),
                  formula(rule.lower), formula(rule.upper),
                  [_name(y, "Mono fresh name") for y in rule.names]]
    elif isinstance(rule, EqL):
        parts += [_name(rule.hole_l, "EqL hole"), _name(rule.hole_r, "EqL hole"),
                  formula(rule.lhs), formula(rule.rhs),
                  ["left"] + [formula(g) for g in rule.left_ctx],
                  ["right"] + [formula(d) for d in rule.right_ctx]]
    elif isinstance(rule, Nat):
        parts.append(_name(rule.var, "Nat variable"))
    return parts


# ---------------------------------------------------------------------------
# type and formula tables
# ---------------------------------------------------------------------------

_FORMULA_TAGS = {cls.__name__: cls for cls in (Var, Zero, Succ, Eq, Or, And, Lam, App, Mu, Nu)}
# the names that the formula grammar reads as a variable: its identifiers,
# less its keywords
_VARIABLE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_KEYWORDS = frozenset(("Z", "S", "mu", "nu"))


def _variable(x, where: str = "") -> str:
    """``x``, once the formula grammar reads it as the variable ``x``, or a
    ProofFormatError that starts with ``where``."""
    if type(x) is not str or not _VARIABLE_RE.fullmatch(x) or x in _KEYWORDS:
        raise ProofFormatError(f"{where}{x!r} is not a variable name of the formula grammar")
    return x


def _lookup(table: dict, x, what: str, where: str):
    """The entry of ``table`` that the atom ``x`` names, or a ProofFormatError."""
    value = table.get(x) if type(x) is str else None
    if value is None:
        raise ProofFormatError(f"{where}: unknown {what} name {x!r}")
    return value


def _formula_entry(form: list, forms: dict[str, Expr], types: dict[str, SimpleType]) -> Expr:
    """The formula node of the entry ``(form name Tag field...)``, built by one
    constructor call over the entries it names."""
    where = f"formula {form[1]}"
    tag = form[2] if len(form) > 2 else None
    cls = _FORMULA_TAGS.get(tag) if type(tag) is str else None
    if cls is None:
        raise ProofFormatError(f"{where}: unknown formula tag {tag!r}")
    fields = form[3:]
    if len(fields) != len(cls.__slots__):
        raise ProofFormatError(f"{where}: {tag} takes {' '.join(cls.__slots__) or 'no fields'}")
    if cls is Var:
        return Var(_variable(fields[0], where + ": "))
    if cls in BINDERS:
        var, ty, body = fields
        try:
            return cls(_variable(var, where + ": "), _lookup(types, ty, "type", where),
                       _lookup(forms, body, "formula", where))
        except HflTypeError as exc:  # a fixed point of type N
            raise ProofFormatError(f"{where}: {exc}") from None
    return cls(*[_lookup(forms, x, "formula", where) for x in fields])


def _sequent_entry(form: list, forms: dict[str, Expr]) -> Sequent:
    """The sequent of the entry ``(seq name formula* |- formula*)``."""
    where = f"sequent {form[1]}"
    items = form[2:]
    cut = items.index("|-") if "|-" in items else -1
    if cut < 0 or type(items[cut]) is not str or "|-" in items[cut + 1:]:
        raise ProofFormatError(f"{where}: (seq {form[1]} ...) takes one quoted sequent, "
                               "or formula names around one |-")
    return Sequent(tuple([_lookup(forms, x, "formula", where) for x in items[:cut]]),
                   tuple([_lookup(forms, x, "formula", where) for x in items[cut + 1:]]))


def _rule_formulas(form: list, forms: dict[str, Expr]) -> list:
    """The body of the entry ``(rule name Tag params...)``, with each atom in
    the place of a formula parameter replaced by the formula it names;
    :func:`rule_from_form` judges the rest."""
    parts, tag = form[2:], form[2] if len(form) > 2 else None
    if tag == "Cut":
        places = [(parts, 1)]
    elif tag == "Mono":
        places = [(parts, 1), (parts, 3), (parts, 4)]
    elif tag == "EqL":
        places = [(parts, 3), (parts, 4)] + [
            (ctx, i) for ctx in parts[5:7] if type(ctx) is list for i in range(1, len(ctx))]
    elif tag == "Subst":
        places = [(pair, 1) for pair in parts[1:] if type(pair) is list]
    else:
        return parts
    for row, i in places:
        if i < len(row) and type(row[i]) is str:
            row[i] = _lookup(forms, row[i], "formula", f"rule {form[1]}")
    return parts


def _table_entries(e, names: dict, types: list[str], forms: list[str]) -> str:
    """The table name of the formula or type ``e``, once each distinct type
    and formula node below it has an entry in ``types`` or ``forms``, named
    in ``names``, after the entries it names: the order of
    :func:`syntax._postorder`.  A variable that the formula grammar would
    not read back as itself, or a type that is not N, O or an arrow,
    raises ProofFormatError."""
    todo = [(e, False)]
    while todo:
        x, ready = todo.pop()
        if x in names:
            continue
        if not isinstance(x, (Expr, Arrow)):
            raise ProofFormatError(f"{x!r} is not a type of the grammar")
        fields = [getattr(x, slot) for slot in x.__slots__]
        if not ready:
            todo.append((x, True))
            todo += [(v, False) for v in fields if isinstance(v, Interned)]
            continue
        words = [names[v] if isinstance(v, Interned) else _variable(v) for v in fields]
        if type(x) is Arrow:
            names[x] = f"t{len(types)}"
            types.append(" ".join(["(type", names[x], *words]) + ")")
        else:
            names[x] = f"f{len(forms)}"
            forms.append(" ".join(["(form", names[x], type(x).__name__, *words]) + ")")
    return names[e]


# ---------------------------------------------------------------------------
# whole pre-proofs
# ---------------------------------------------------------------------------


def loads_preproof(text: str) -> PreProof:
    """The pre-proof written in ``text``, in the grammar of this module.

    The text is read in one pass (see :func:`_read_forms`).  Each type and
    formula entry is one constructor call, which interns the node, so the
    loaded proof holds the same objects as one built in memory; a sequent
    entry is one more call over formula entries, or, written as a quoted
    string, is unescaped and parsed once.  A node names its sequent and rule
    in the tables above it, or writes them inline, and each rule table entry
    or distinct inline ``(rule ...)`` form is built once (a ``Subst`` once
    per child sequent).  A name must be defined above its use and defined
    once.  Raises :class:`ProofFormatError`, or the parser's
    :class:`HflError` for a quoted sequent.
    """
    raw_nodes: dict[str, tuple[Sequent, Optional[tuple], list[str]]] = {}
    back: dict[str, str] = {}
    sequents: dict[Quoted, Sequent] = {}  # each distinct sequent string, parsed
    types: dict[str, SimpleType] = {"N": NAT, "O": PROP}
    forms: dict[str, Expr] = {}
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
        elif head == "form":
            forms[_table_name(form, forms, "formula")] = _formula_entry(form, forms, types)
        elif head == "seq":
            name = _table_name(form, seq_names, "sequent")
            if size == 3 and isinstance(form[2], Quoted):
                seq = sequents.get(form[2])
                if seq is None:
                    seq = sequents[form[2]] = parse_sequent(str(form[2]))
                seq_names[name] = seq
            else:
                seq_names[name] = _sequent_entry(form, forms)
        elif head == "rule":
            name = _table_name(form, rule_names, "rule")
            rule_names[name] = ((name,), _rule_formulas(form, forms))
        elif head == "type":
            name = _table_name(form, types, "type")
            if size != 4:
                raise ProofFormatError(f"type {name}: (type {name} ...) takes two type names")
            try:
                types[name] = Arrow(*[_lookup(types, x, "type", f"type {name}") for x in form[2:]])
            except HflTypeError as exc:  # an arrow to N
                raise ProofFormatError(f"type {name}: {exc}") from None
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
    """The name that a table form defines, once it is a bare atom that
    ``table`` does not hold yet."""
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
                try:
                    rule = rules[key] = rule_from_form(parts, [c.seq for c in children])
                except HflError as exc:
                    where = f"node {node_id}: " + ("" if entry[0] is None else f"rule {entry[0][0]}: ")
                    raise ProofFormatError(where + str(exc)) from None
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

    The text is a table of the distinct arrow types and formula nodes, named
    ``t0, t1, ...`` and ``f0, f1, ...`` in postorder; then a table of the
    distinct sequents and rules, named ``s0, s1, ...`` and ``r0, r1, ...`` in
    the preorder of their first node; then one ``(node ...)`` line per node
    in preorder and one ``(back ...)`` line per back edge.  So a text is
    linear in the distinct objects of the proof, whatever their size as
    trees, and holds no formula text.  A ProofFormatError names the first
    node that holds a variable the formula grammar would not read back as
    itself, or a ``Subst`` whose source is not its one child's sequent,
    which a load takes as the source.  So does a node id, a back-edge end or
    a name parameter of a rule that is not one bare atom of the grammar.
    """
    names: dict = {NAT: "N", PROP: "O"}  # each type and formula node -> its table name
    seq_names: dict[Sequent, str] = {}
    rule_names: dict[Rule, str] = {}
    types: list[str] = []
    forms: list[str] = []
    table, lines = [], []

    def formula(e: Expr) -> str:
        return _table_entries(e, names, types, forms)

    for node in pp.tree.walk():
        _name(node.id, "node id")
        seq, rule = node.seq, node.rule
        try:
            if seq not in seq_names:
                left, right = [formula(f) for f in seq.left], [formula(f) for f in seq.right]
                seq_names[seq] = f"s{len(seq_names)}"
                table.append(" ".join(["(seq", seq_names[seq], *left, "|-", *right]) + ")")
            if rule is None:
                lines.append(f"(node {node.id} {seq_names[seq]} open)")
                continue
            if type(rule) is Subst and [c.seq for c in node.children] != [rule.source]:
                raise ProofFormatError("the Subst source is not the sequent of its one child")
            if rule not in rule_names:
                parts = rule_to_form(rule, formula)
                rule_names[rule] = f"r{len(rule_names)}"
                table.append(_write_form(["rule", rule_names[rule], *parts]))
        except ProofFormatError as exc:
            raise ProofFormatError(f"node {node.id}: {exc}") from None
        lines.append(" ".join(["(node", node.id, seq_names[seq], rule_names[rule],
                               *[c.id for c in node.children]]) + ")")
    for leaf_id in sorted(pp.back_edges):
        target = _name(pp.back_edges[leaf_id], f"node {leaf_id}: back-edge target")
        lines.append(f"(back {_name(leaf_id, 'back-edge source')} {target})")
    return "\n".join(types + forms + table + lines) + "\n"


def load_preproof(path) -> PreProof:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_preproof(fh.read())

