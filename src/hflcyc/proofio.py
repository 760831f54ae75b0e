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
name and ``f`` a formula name.  Rule parameters, in the order that each
rule class declares them (:attr:`~hflcyc.kernel.Rule.params`):

    Cut    <formula>
    ExL    <position>            ExR <position>
    Subst  (<var> <formula>)*    -- the premise itself is the child's sequent
    Mono   <formula> <var> <lower> <upper> (<fresh-name>*)
    EqL    <hole-l> <hole-r> <lhs> <rhs> (left <formula>*) (right <formula>*)
    Nat    <var>
    all other tags take no parameters.

A position is at most 19 ASCII digits; a var, hole or fresh name is a bare atom.

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
and resolves its names with one dict lookup each, which gives the node's
row: its sequent, rule and child ids.  The kernel's one walk from the root
(:meth:`~hflcyc.kernel.PreProof.from_rows`) checks the rows and back edges
and puts the rows in preorder; no derivation tree is built.  A malformed
text raises :class:`ProofFormatError`; the line and column of the
offending token, or which fault of a node table comes first, are found
only then, and a bad ``(back ...)`` line gets the kernel's text.  The
tables only save work: a loaded proof holds the same objects as one built
in memory, since every value is interned when it is built.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import length_hint
from typing import Iterator, Optional, Union

from .syntax import (
    BINDERS, NAT, PROP, And, App, Arrow, Eq, Expr, HflError, HflTypeError, Interned, Lam, Mu,
    Nu, Or, Sequent, SimpleType, Succ, Var, Zero, line_column, parse_expr,
    parse_sequent, to_str,
)
from .kernel import (
    FORMULA, LEFT, NAME, NAMES, PAIRS, POSITION, RIGHT, RULES, SOURCE, KernelError, PreProof,
    Rule, Subst,
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
# of atoms that hold no whitespace of any kind, which str.split cuts apart:
# between its parentheses it has no parenthesis, quote or semicolon, and no
# whitespace but the blanks, which are space, tab, CR and LF.
_ATOM = r'[^ \t\r\n();"]+'
# the characters that str.isspace and the pattern \s take for whitespace,
# but the blanks do not include
_OTHER_SPACE = "\x0b\x0c\x1c-\x1f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000"
_FLAT = r'\([^();"' + _OTHER_SPACE + r']*\)'
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


def _atom_param(x, what: str) -> str:
    if not isinstance(x, str) or isinstance(x, Quoted):
        raise ProofFormatError(f"{what} must be a bare name, got {x!r}")
    return x


# What each rule with parameters takes, for a form of another shape.
_USAGE = {
    "Cut": "Cut takes one formula parameter", "Nat": "Nat takes one variable parameter",
    "ExL": "ExL takes one position parameter", "ExR": "ExR takes one position parameter",
    "Subst": 'Subst parameters are (<var> "<expr>") pairs',
    "Mono": 'Mono takes "<formula>" <var> "<lower>" "<upper>" (<name>*)',
    "EqL": 'EqL takes <hole-l> <hole-r> "<lhs>" "<rhs>" (left ...) (right ...)',
}
_DIGITS = 19  # a position's most digits: those of 2**63 - 1, past any sequent's end


def _fits(kind: str, x) -> bool:
    """Whether the form ``x`` has the shape of a parameter of ``kind``; its
    atoms are judged when it is read."""
    if kind == POSITION:  # ASCII digits: str.isdigit alone also accepts "²"
        return type(x) is str and x.isascii() and x.isdigit()
    if kind == NAMES:
        return isinstance(x, list)
    return kind not in (LEFT, RIGHT) or x[:1] == [kind]  # a str's slice is a str


def _expr_param(x, what: str) -> Expr:
    if isinstance(x, Expr):  # a formula name, which the loader has looked up
        return x
    if not isinstance(x, Quoted):
        raise ProofFormatError(f"{what} must be a quoted formula, got {x!r}")
    return parse_expr(str(x))


def _param(kind: str, x, what: str):
    """The parameter of ``kind`` that the form ``x``, of its shape, writes."""
    if kind == FORMULA:
        return _expr_param(x, what)
    if kind == NAME:
        return _atom_param(x, what)
    if kind == NAMES:
        return tuple(_atom_param(y, what) for y in x)
    if kind == POSITION:
        if len(x) > _DIGITS:  # int() refuses more than 4,300 digits
            raise ProofFormatError(f"{what} has more than {_DIGITS} digits")
        return int(x)
    return tuple(_expr_param(f, what) for f in x[1:])  # LEFT or RIGHT


def rule_from_form(parts: list, child_sequents: list[Sequent]) -> Rule:
    """Build a Rule from the body of a (rule Tag params...) form, reading the
    parameters its class declares (:attr:`~hflcyc.kernel.Rule.params`): a
    SOURCE is the one child's sequent, and PAIRS are all the arguments, each
    judged as it is read."""
    if not parts:
        raise ProofFormatError("empty (rule) form")
    tag = _atom_param(parts[0], "rule tag")
    cls = RULES.get(tag)
    if cls is None:
        raise ProofFormatError(f"unknown rule tag {tag!r}")
    args, params, values = parts[1:], cls.params, []
    usage = _USAGE.get(tag, f"{tag} takes no parameters")
    if params[:1] and params[0][0] == SOURCE:
        if len(child_sequents) != 1:
            raise ProofFormatError(f"{tag} requires exactly one child node")
        params, values = params[1:], [child_sequents[0]]
    if params[:1] and params[0][0] == PAIRS:
        pairs = []
        for pair in args:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ProofFormatError(usage)
            pairs.append((_atom_param(pair[0], f"{tag} variable"),
                          _expr_param(pair[1], f"{tag} replacement")))
        return cls(*values, tuple(pairs))
    if len(args) != len(params) or not all(_fits(k, x) for (k, _), x in zip(params, args)):
        raise ProofFormatError(usage)
    return cls(*[_param(kind, x, f"{tag} {what}") for (kind, what), x in zip(params, args)])


def _name(x: str, what: str) -> str:
    """``x``, once it reads back as one bare atom, or a ProofFormatError."""
    if not _ATOM_RE.fullmatch(x):
        raise ProofFormatError(f"{what} {x!r} is not a bare name")
    return x


def rule_to_form(rule: Rule, formula=lambda e: Quoted(to_str(e))) -> list:
    """The body of the (rule ...) form of ``rule``: its parameters as its
    class declares them, a SOURCE left out, each formula as ``formula``
    gives it, by default a quoted formula.  A name parameter that is not
    one bare atom raises ProofFormatError."""
    parts: list = [rule.tag]
    for field, (kind, what) in zip(rule.__slots__, rule.params):
        x, what = getattr(rule, field), f"{rule.tag} {what}"
        if kind == FORMULA:
            parts.append(formula(x))
        elif kind == NAME:
            parts.append(_name(x, what))
        elif kind == NAMES:
            parts.append([_name(y, what) for y in x])
        elif kind == POSITION:
            parts.append(str(x))
        elif kind in (LEFT, RIGHT):
            parts.append([kind] + [formula(f) for f in x])
        elif kind == PAIRS:
            parts += [[_name(y, f"{rule.tag} variable"), formula(e)] for y, e in x]
    return parts


# ---------------------------------------------------------------------------
# type and formula tables
# ---------------------------------------------------------------------------

_FORMULA_TAGS = {cls.__name__: cls for cls in (Var, Zero, Succ, Eq, Or, And, Lam, App, Mu, Nu)}
# the names that the formula grammar reads as a variable: its identifiers,
# less its keywords
_VARIABLE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_KEYWORDS = frozenset(("Z", "S", "mu", "nu"))


_ENTRY_KINDS = {"type": "type", "form": "formula", "seq": "sequent", "rule": "rule"}


def _entry_name(form: list) -> str:
    """The entry that a table form defines, as its errors name it."""
    return f"{_ENTRY_KINDS[form[0]]} {form[1]}"


def _variable(x, form: Optional[list] = None) -> str:
    """``x``, once the formula grammar reads it as the variable ``x``, or a
    ProofFormatError that names the entry ``form``, if given."""
    if type(x) is not str or not _VARIABLE_RE.fullmatch(x) or x in _KEYWORDS:
        where = "" if form is None else f"{_entry_name(form)}: "
        raise ProofFormatError(f"{where}{x!r} is not a variable name of the formula grammar")
    return x


def _lookup(table: dict, x, what: str, form: list):
    """The entry of ``table`` that the atom ``x`` names, or a ProofFormatError
    that names the entry ``form``."""
    value = table.get(x) if type(x) is str else None
    if value is None:
        raise ProofFormatError(f"{_entry_name(form)}: unknown {what} name {x!r}")
    return value


def _formula_entry(form: list, forms: dict[str, Expr], types: dict[str, SimpleType]) -> Expr:
    """The formula node of the entry ``(form name Tag field...)``, built by one
    constructor call over the entries it names."""
    tag = form[2] if len(form) > 2 else None
    cls = _FORMULA_TAGS.get(tag) if type(tag) is str else None
    if cls is None:
        raise ProofFormatError(f"{_entry_name(form)}: unknown formula tag {tag!r}")
    fields = form[3:]
    if len(fields) != len(cls.__slots__):
        raise ProofFormatError(
            f"{_entry_name(form)}: {tag} takes {' '.join(cls.__slots__) or 'no fields'}")
    if cls is Var:
        return Var(_variable(fields[0], form))
    if cls in BINDERS:
        var, ty, body = fields
        try:
            return cls(_variable(var, form), _lookup(types, ty, "type", form),
                       _lookup(forms, body, "formula", form))
        except HflTypeError as exc:  # a fixed point of type N
            raise ProofFormatError(f"{_entry_name(form)}: {exc}") from None
    return cls(*[_lookup(forms, x, "formula", form) for x in fields])


def _sequent_entry(form: list, forms: dict[str, Expr]) -> Sequent:
    """The sequent of the entry ``(seq name formula* |- formula*)``."""
    items = form[2:]
    cut = items.index("|-") if "|-" in items else -1
    if cut < 0 or type(items[cut]) is not str or "|-" in items[cut + 1:]:
        raise ProofFormatError(f"{_entry_name(form)}: (seq {form[1]} ...) takes one quoted "
                               "sequent, or formula names around one |-")
    return Sequent(tuple([_lookup(forms, x, "formula", form) for x in items[:cut]]),
                   tuple([_lookup(forms, x, "formula", form) for x in items[cut + 1:]]))


def _rule_formulas(form: list, forms: dict[str, Expr]) -> list:
    """The body of the entry ``(rule name Tag params...)``, with each atom in
    the place of a formula parameter, as the rule class declares them,
    replaced by the formula it names; :func:`rule_from_form` judges the rest."""
    parts = form[2:]
    cls = RULES.get(parts[0]) if parts and isinstance(parts[0], str) else None
    kinds = [kind for kind, _ in cls.params if kind != SOURCE] if cls else []
    places = []
    for i, kind in enumerate(kinds, 1):
        x = parts[i] if i < len(parts) else None
        if kind == FORMULA:
            places.append((parts, i))
        elif kind in (LEFT, RIGHT) and type(x) is list:
            places += [(x, j) for j in range(1, len(x))]
        elif kind == PAIRS:
            places += [(pair, 1) for pair in parts[i:] if type(pair) is list]
    for row, i in places:
        if i < len(row) and type(row[i]) is str:
            row[i] = _lookup(forms, row[i], "formula", form)
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
    once.

    Each node line becomes a row of the node table, once the rules that
    need their node (a ``Subst``) are built.  A dump lists the root first,
    so :meth:`~hflcyc.kernel.PreProof.from_rows` from the first node checks
    the table and its back edges; only a text that it refuses is judged in
    full: by the root that no node lists as a child, then by
    :func:`_tree_error`, then by the kernel's text for nodes never reached
    or a bad ``(back ...)`` line.
    Raises :class:`ProofFormatError`, or the parser's :class:`HflError` for
    a quoted sequent.
    """
    table: dict[str, _Entry] = {}  # each node line, in the order of the text
    waiting: list[str] = []  # the nodes whose rule needs the node (see _rule_or_body)
    back: dict[str, str] = {}
    sequents: dict[Quoted, Sequent] = {}  # each distinct sequent string, parsed
    types: dict[str, SimpleType] = {"N": NAT, "O": PROP}
    forms: dict[str, Expr] = {}
    seq_names: dict[str, Sequent] = {}
    rule_names: dict[str, Union[Rule, tuple]] = {}  # see _rule_or_body
    inline_rules: dict[tuple, Union[Rule, tuple]] = {}  # by _form_key
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
            if node_id in table:
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
                table[node_id] = (seq, None, ())
                continue
            if named:
                if size == 3:
                    raise ProofFormatError(f"node {node_id}: expected a rule name or open")
                rule = rule_names.get(form[3]) if type(form[3]) is str else None
                if rule is None:
                    raise ProofFormatError(f"node {node_id}: unknown rule name {form[3]!r}")
                kids = tuple(form[4:])
            else:
                ref = form[3] if size in (4, 5) else None
                if not (isinstance(ref, list) and ref and ref[0] == "rule"):
                    raise ProofFormatError(f"node {node_id}: expected (rule ...) or open")
                parts = ref[1:]
                key = _form_key(parts)
                rule = inline_rules.get(key)
                if rule is None:
                    rule = inline_rules[key] = _rule_or_body(None, parts)
                kids = ()
                if size == 5:
                    children = form[4]
                    if not (isinstance(children, list) and children and children[0] == "children"):
                        raise ProofFormatError(f"node {node_id}: expected (children ...)")
                    kids = tuple(children[1:])
            for k in kids:
                if type(k) is not str:  # a literal or a list
                    _atom_param(k, "child id")
            table[node_id] = (seq, rule, kids)
            if type(rule) is tuple:
                waiting.append(node_id)
        elif head == "form":
            if size < 2:  # the entry names itself in its errors
                _table_name(form, forms, "formula")
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
            rule_names[name] = _rule_or_body((name,), _rule_formulas(form, forms))
        elif head == "type":
            name = _table_name(form, types, "type")
            if size != 4:
                raise ProofFormatError(f"type {name}: (type {name} ...) takes two type names")
            try:
                types[name] = Arrow(*[_lookup(types, x, "type", form) for x in form[2:]])
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

    if not table:
        raise ProofFormatError("no (node ...) forms in input")
    built: dict[tuple, Rule] = {}  # a Subst once per rule body and child sequents
    for node_id in waiting:  # a rule left unbuilt fails from_rows; _tree_error names it
        seq, (key, parts), kids = table[node_id]
        try:
            premises = [table[k][0] for k in kids]
            key = (_form_key(parts) if key is None else key) + tuple(map(id, premises))
            rule = built.get(key)
            if rule is None:
                rule = built[key] = rule_from_form(parts, premises)
        except (KeyError, HflError):
            continue
        table[node_id] = (seq, rule, kids)
    # a dump lists the root first; any other text is judged in full
    root = next(iter(table))
    try:
        return PreProof.from_rows(root, table, back)
    except KernelError as exc:
        error = exc
        referenced = {k for (_, _, kids) in table.values() for k in kids}
        roots = [i for i in table if i not in referenced]
    if len(roots) != 1:
        raise ProofFormatError(f"expected exactly one root node, found {sorted(roots)}")
    if roots[0] != root:
        try:
            return PreProof.from_rows(roots[0], table, back)
        except KernelError as exc:
            error = exc
    raise _tree_error(table, roots[0]) or ProofFormatError(str(error))


def _table_name(form: list, table: dict, what: str) -> str:
    """The name that a table form defines, once it is a bare atom that
    ``table`` does not hold yet."""
    name = form[1] if len(form) > 1 else None
    if type(name) is not str:  # a literal, a list or nothing
        _atom_param(name, f"{what} name")
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


# A node line: its sequent, and its rule (see _rule_or_body) or None for an
# open leaf, and its child ids.
_Entry = tuple[Sequent, Union[Rule, tuple, None], tuple[str, ...]]


def _rule_or_body(key: Optional[tuple], parts: list) -> Union[Rule, tuple]:
    """The rule whose body is ``parts``, or ``(key, parts)`` when it needs the
    node: a ``Subst``, whose source is its child's sequent, or a rule that
    does not build, which :func:`_tree_error` reports at its first node.  The
    key is a table name's 1-tuple, or ``None`` for an inline form."""
    try:
        return rule_from_form(parts, [])
    except HflError:
        return key, parts


def _tree_error(table: dict[str, _Entry], root: str) -> Optional[ProofFormatError]:
    """The error of node lines that do not form a tree below ``root`` or
    hold a rule that does not build: the first node reached twice, or
    child with no ``(node ...)`` form, in a walk from the root that takes
    the last child first; else the first rule that does not build, from the
    leaves up.  Else None: the fault, the nodes that the walk left out or
    a bad back edge, is the one that the kernel's error names."""
    order: list[str] = []
    seen: set[str] = set()
    stack = [root]
    while stack:
        node_id = stack.pop()
        if node_id in seen:
            if _below(table, node_id):
                return ProofFormatError(f"node {node_id!r} is its own ancestor")
            return ProofFormatError(f"node {node_id!r} is listed as a child twice")
        entry = table.get(node_id)
        if entry is None:
            return ProofFormatError(f"child id {node_id!r} has no (node ...) form")
        seen.add(node_id)
        order.append(node_id)
        stack += entry[2]
    for node_id in reversed(order):
        _, rule, kids = table[node_id]
        if type(rule) is tuple:
            key, parts = rule
            try:
                rule_from_form(parts, [table[k][0] for k in kids])
            except HflError as exc:
                where = f"node {node_id}: " + ("" if key is None else f"rule {key[0]}: ")
                return ProofFormatError(where + str(exc))
    return None


def _below(table: dict[str, _Entry], node_id: str) -> bool:
    """Whether ``node_id`` is among its own descendants."""
    todo, seen = list(table[node_id][2]), set()
    while todo:
        k = todo.pop()
        if k == node_id:
            return True
        if k not in seen and k in table:
            seen.add(k)
            todo += table[k][2]
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

    The nodes are read from the node table (:attr:`PreProof.rows`), so a
    dump builds no derivation tree.
    """
    names: dict = {NAT: "N", PROP: "O"}  # each type and formula node -> its table name
    seq_names: dict[Sequent, str] = {}
    rule_names: dict[Rule, str] = {}
    types: list[str] = []
    forms: list[str] = []
    table, lines = [], []

    def formula(e: Expr) -> str:
        return _table_entries(e, names, types, forms)

    rows = pp.rows
    for node_id, (seq, rule, kids) in rows.items():
        _name(node_id, "node id")
        try:
            if seq not in seq_names:
                left, right = [formula(f) for f in seq.left], [formula(f) for f in seq.right]
                seq_names[seq] = f"s{len(seq_names)}"
                table.append(" ".join(["(seq", seq_names[seq], *left, "|-", *right]) + ")")
            if rule is None:
                lines.append(f"(node {node_id} {seq_names[seq]} open)")
                continue
            if type(rule) is Subst and [rows[k][0] for k in kids] != [rule.source]:
                raise ProofFormatError("the Subst source is not the sequent of its one child")
            if rule not in rule_names:
                parts = rule_to_form(rule, formula)
                rule_names[rule] = f"r{len(rule_names)}"
                table.append(_write_form(["rule", rule_names[rule], *parts]))
        except ProofFormatError as exc:
            raise ProofFormatError(f"node {node_id}: {exc}") from None
        lines.append(" ".join(["(node", node_id, seq_names[seq], rule_names[rule], *kids]) + ")")
    for leaf_id in sorted(pp.back_edges):
        target = _name(pp.back_edges[leaf_id], f"node {leaf_id}: back-edge target")
        lines.append(f"(back {_name(leaf_id, 'back-edge source')} {target})")
    return "\n".join(types + forms + table + lines) + "\n"


def load_preproof(path) -> PreProof:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_preproof(fh.read())

