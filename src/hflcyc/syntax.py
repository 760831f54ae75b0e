"""Object language: simple types, terms and formulas, parsing, printing,
type inference and capture-avoiding substitution.

The term language is ``x | Z | S t`` and the formula language is

    phi ::= s = t | phi \\/ phi | phi /\\ phi | x | \\x:A. phi
          | phi psi | phi t | mu x:T. phi | nu x:T. phi

Both layers share one expression datatype; the two application typing rules
are disambiguated by type inference, not by a stored tag.  Alpha-equivalence
(not syntactic equality) is the notion of identity every other module uses.
No walk of a formula or a type recurses, and neither does the parser: every
walk keeps its work on an explicit stack, so any printed formula, however
deeply nested, parses back.
"""

from __future__ import annotations

import re
import weakref
from functools import partial
from typing import Iterable, Mapping, Optional

# ---------------------------------------------------------------------------
# Interned values
# ---------------------------------------------------------------------------

_INTERNED: dict[tuple, weakref.ref] = {}  # (cls, *args) -> a weak reference to the object
_setattr = object.__setattr__  # how a constructor sets a field of a frozen value


def _forget(key: tuple, ref: weakref.ref, table: dict = _INTERNED) -> None:
    """Drop ``key``'s entry when its object dies, unless an equal object made
    since then holds the entry already."""
    if table.get(key) is ref:
        del table[key]


class _Frozen:
    """What interned values and records share: the fields in ``_compared``
    (by default the class's ``__slots__``), set once and then checked by
    ``_check``, their dataclass ``repr``, and a copy or pickle that calls the
    class with them."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" in cls.__dict__ and "_compared" not in cls.__dict__:
            cls._compared = cls.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        """``Cls(field=value, ...)``, written from an explicit stack of
        pieces (text to copy, or a value to write) that opens interned
        objects, records and tuples, so a long chain prints without
        recursion."""
        out: list[str] = []
        todo: list[tuple[bool, object]] = [(False, self)]
        while todo:
            is_text, value = todo.pop()
            if is_text:
                out.append(value)
            elif isinstance(value, _Frozen):
                pieces = [(True, f"{type(value).__qualname__}(")]
                for k, name in enumerate(value._compared):
                    pieces += [(True, f"{', ' if k else ''}{name}="), (False, getattr(value, name))]
                todo += reversed(pieces + [(True, ")")])
            elif type(value) is tuple:
                pieces = [(True, "(")]
                for k, item in enumerate(value):
                    pieces += [(True, ", "), (False, item)] if k else [(False, item)]
                todo += reversed(pieces + [(True, ",)" if len(value) == 1 else ")")])
            else:
                out.append(repr(value))
        return "".join(out)

    # dataclasses is imported only to raise: it pulls in inspect and ast,
    # which nothing on the checker's start-up path needs
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Interned(_Frozen):
    """An immutable value that is one object per value (hash-consing:
    Filliâtre and Conchon, "Type-safe modular hash-consing", 2006).

    ``cls(*args)``, the values of the fields in ``cls.__slots__``, returns
    the live object made from equal arguments, or makes one, runs its
    :meth:`_check` and keeps it if that passes.  Interned arguments compare
    and hash by identity, so building a node never walks its children, and
    ``==`` is ``is``.  The table is a plain dict of weak references, so
    finding or making a value runs no Python-level weakref code; each
    reference's callback removes its entry when the value dies.  Assigning
    or deleting a field raises ``dataclasses.FrozenInstanceError``.

    ``kinds`` declares, in ``__slots__`` order, the class of each field's
    values (``object`` where a class declares none; a sequent's
    :meth:`_check` tests its rows).  A value is made only from fields of
    their kinds, so an argument of another kind, an unhashable one too,
    raises :class:`HflTypeError` naming the class and the field.  No kind
    of a formula, type or sequent holds a number, so a wrong argument equal
    to a right one (``True == 1``) cannot find a value in the table.
    """

    __slots__ = ("__weakref__",)
    kinds: tuple[type, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" in cls.__dict__ and "kinds" not in cls.__dict__:
            cls.kinds = (object,) * len(cls._compared)  # fields of any kind

    def __new__(cls, *args):
        key = (cls, *args)
        try:
            ref = _INTERNED.get(key)
        except TypeError:  # an unhashable field, which a check below refuses
            ref = None
        if ref is not None:
            obj = ref()
            if obj is not None:
                return obj
        if len(args) != len(cls._compared):
            raise TypeError(f"{cls.__name__} takes the fields {cls._compared}")
        obj = object.__new__(cls)
        for name, value, kind in zip(cls._compared, args, cls.kinds):
            if not isinstance(value, kind):
                raise _kind_error(cls, name, value, kind.__name__)
            _setattr(obj, name, value)
        obj._check()
        _INTERNED[key] = weakref.ref(obj, partial(_forget, key))
        return obj

    def _check(self) -> None:
        """Raise if the fields do not make a value of this class; their
        kinds have been checked."""


def _kind_error(cls: type, name: str, value, kind: str) -> HflTypeError:
    article = "an" if kind[0] in "AEIOU" else "a"
    return HflTypeError(f"{cls.__name__} {name} must be {article} {kind}, got {value!r}")


class Record(_Frozen):
    """An immutable value that is not interned: two records are equal when
    they are of one class and their compared fields are equal, as for a
    frozen dataclass, and the hash is the hash of those fields.

    ``cls(*fields, **named)`` sets the fields, by position or by name, and
    the missing last ones from the class's ``_defaults``; a missing, extra
    or repeated field raises ``TypeError``.  A class with other slots,
    tables or caches, has its own ``__init__`` and ``__reduce__``.
    """

    __slots__ = ()
    _defaults: tuple = ()
    _check = None  # a record whose fields need a check defines it

    def __init__(self, /, *fields, **named) -> None:
        names = self._compared
        if named or len(fields) != len(names):
            defaults = self._defaults
            missing = len(names) - len(fields)
            if not named and 0 < missing <= len(defaults):
                fields += defaults[len(defaults) - missing:]
            else:
                given = dict(zip(names[len(names) - len(defaults):], defaults))
                given.update(zip(names, fields), **named)
                if missing < 0 or len(given) < len(names) or not named.keys() <= set(names[len(fields):]):
                    raise TypeError(f"{type(self).__name__} takes the fields {names}")
                fields = [given[name] for name in names]
        for name, value in zip(names, fields):
            _setattr(self, name, value)
        if self._check is not None:
            self._check()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


# ---------------------------------------------------------------------------
# Simple types
# ---------------------------------------------------------------------------


class SimpleType(Interned):
    """Base class for the simple types N, O and A -> T."""

    __slots__ = ()

    def __str__(self) -> str:
        return type_to_str(self)


class NatType(SimpleType):
    __slots__ = ()


class PropType(SimpleType):
    __slots__ = ()


class Arrow(SimpleType):
    __slots__ = ("arg", "result")
    kinds = (SimpleType, SimpleType)
    arg: SimpleType
    result: SimpleType

    def _check(self) -> None:
        if isinstance(self.result, NatType):
            raise HflTypeError("arrow result must be a proposition type, not N")


NAT = NatType()
PROP = PropType()


def arrow(*types: SimpleType) -> SimpleType:
    """Right-associated arrow: arrow(A, B, C) = A -> (B -> C)."""
    if not types:
        raise ValueError("arrow needs at least one type")
    result = types[-1]
    for arg in reversed(types[:-1]):
        result = Arrow(arg, result)
    return result


def type_to_str(ty: SimpleType) -> str:
    """``A -> T``, an arrow argument in parentheses, written from an explicit
    stack of types and text still to write."""
    out, todo = [], [ty]
    while todo:
        ty = todo.pop()
        if type(ty) is Arrow:
            todo += ((ty.result, " -> ", ")", ty.arg, "(") if type(ty.arg) is Arrow
                     else (ty.result, " -> ", ty.arg))
        else:  # "?" is an inference metavariable
            out.append(ty if type(ty) is str else "N" if ty is NAT else "O" if ty is PROP else "?")
    return "".join(out)


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class HflError(Exception):
    """Base class for all object-language errors."""


def line_column(text: str, pos: int) -> tuple[int, int]:
    """The line and column, both from 1, of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class HflSyntaxError(HflError):
    def __init__(self, message: str, text: str = "", pos: int = -1):
        if pos >= 0:
            line, col = line_column(text, pos)
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.pos = pos


class HflTypeError(HflError):
    pass


class UnboundVariable(HflTypeError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class IllTyped(HflTypeError):
    def __init__(self, subject, expected: str, found: str):
        super().__init__(f"ill-typed {to_str(subject)!r}: expected {expected}, found {found}")
        self.subject = subject
        self.expected = expected
        self.found = found


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Interned):
    """Base class of terms and formulas (interned: equal ones are one object).

    ``free`` holds the node's free variables, filled from the children's when
    the node is made; ``sigmas`` its operator positions, None until
    :func:`sigma_paths` fills them.  Neither is a constructor field.
    """

    __slots__ = ("free", "sigmas")
    free: frozenset[str]
    sigmas: Optional[tuple[Path, ...]]

    def _check(self) -> None:
        free = frozenset((self.name,)) if type(self) is Var else frozenset()
        for kid in children(self):
            if not kid.free <= free:  # else share the sets already made
                free = free | kid.free if free else kid.free
        if isinstance(self, BINDERS) and self.var in free:
            free = free - {self.var}
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "sigmas", None)

    def __reduce__(self):
        """Pickle and copy the distinct nodes below, as one flat list, so a
        long chain does not recurse; rebuilding gives the live objects back."""
        return _from_postorder, (_postorder(self),)

    def __str__(self) -> str:
        return to_str(self)


class Var(Expr):
    __slots__ = ("name",)
    kinds = (str,)
    name: str


class Zero(Expr):
    __slots__ = ()


class Succ(Expr):
    __slots__ = ("arg",)
    kinds = (Expr,)
    arg: Expr


class Eq(Expr):
    __slots__ = ("lhs", "rhs")
    kinds = (Expr, Expr)
    lhs: Expr
    rhs: Expr


class Or(Expr):
    __slots__ = ("lhs", "rhs")
    kinds = (Expr, Expr)
    lhs: Expr
    rhs: Expr


class And(Expr):
    __slots__ = ("lhs", "rhs")
    kinds = (Expr, Expr)
    lhs: Expr
    rhs: Expr


class Lam(Expr):
    __slots__ = ("var", "var_type", "body")
    kinds = (str, SimpleType, Expr)
    var: str
    var_type: SimpleType
    body: Expr


class App(Expr):
    __slots__ = ("fn", "arg")
    kinds = (Expr, Expr)
    fn: Expr
    arg: Expr


def _check_fixpoint(self) -> None:
    if isinstance(self.var_type, NatType):
        raise HflTypeError("fixed-point binder cannot have type N")
    Expr._check(self)


class Mu(Expr):
    __slots__ = ("var", "var_type", "body")
    kinds = (str, SimpleType, Expr)
    var: str
    var_type: SimpleType
    body: Expr
    _check = _check_fixpoint


class Nu(Expr):
    __slots__ = ("var", "var_type", "body")
    kinds = (str, SimpleType, Expr)
    var: str
    var_type: SimpleType
    body: Expr
    _check = _check_fixpoint


FIXPOINTS = (Mu, Nu)
BINDERS = (Lam, Mu, Nu)

Path = tuple[int, ...]


def children(e: Expr) -> tuple[Expr, ...]:
    """Subexpressions in canonical child order (defines path indices)."""
    if isinstance(e, (Var, Zero)):
        return ()
    if isinstance(e, Succ):
        return (e.arg,)
    if isinstance(e, (Eq, Or, And)):
        return (e.lhs, e.rhs)
    if isinstance(e, BINDERS):
        return (e.body,)
    if isinstance(e, App):
        return (e.fn, e.arg)
    raise TypeError(f"not an expression: {e!r}")


def rebuild(e: Expr, kids: tuple[Expr, ...]) -> Expr:
    """Rebuild a node of the same shape with new children."""
    if isinstance(e, (Var, Zero)):
        return e
    if isinstance(e, (Succ, Eq, Or, And, App)):
        return type(e)(*kids)
    if isinstance(e, BINDERS):
        return type(e)(e.var, e.var_type, kids[0])
    raise TypeError(f"not an expression: {e!r}")


def _postorder(e: Expr) -> tuple[tuple[type, tuple, tuple[int, ...]], ...]:
    """The distinct nodes of e, each after its children, as its class, its
    fields that are not children, and its children's indices in the list.
    A node's children are its last fields."""
    index: dict[Expr, int] = {}
    out: list[tuple[type, tuple, tuple[int, ...]]] = []
    todo: list[tuple[Expr, bool]] = [(e, False)]
    while todo:
        node, kids_done = todo.pop()
        if node in index:
            continue
        kids = children(node)
        if not kids_done:
            todo.append((node, True))
            todo += [(kid, False) for kid in kids]
            continue
        names = node.__slots__[:len(node.__slots__) - len(kids)]
        index[node] = len(out)
        out.append((type(node), tuple([getattr(node, name) for name in names]),
                    tuple([index[kid] for kid in kids])))
    return tuple(out)


def _from_postorder(nodes: tuple[tuple[type, tuple, tuple[int, ...]], ...]) -> Expr:
    """The expression :func:`_postorder` listed."""
    built: list[Expr] = []
    for cls, fields, kids in nodes:
        built.append(cls(*fields, *[built[i] for i in kids]))
    return built[-1]


def subexpr_at(e: Expr, path: Path) -> Expr:
    for i in path:
        e = children(e)[i]
    return e


def sigma_paths(e: Expr) -> tuple[Path, ...]:
    """Paths of every fixed-point operator in preorder, found once per
    formula and kept on it.  The walk needs no recursion: it follows each
    first child, and a second one waits on a stack."""
    if e.sigmas is None:
        out: list[Path] = []
        todo: list[tuple[Expr, Path]] = [(e, ())]
        while todo:
            node, path = todo.pop()
            while True:
                t = type(node)
                if t is App:
                    todo.append((node.arg, path + (1,)))
                    node, path = node.fn, path + (0,)
                elif t is Var or t is Zero:
                    break
                elif t is Mu or t is Nu:
                    out.append(path)
                    node, path = node.body, path + (0,)
                else:
                    kids = children(node)
                    if len(kids) == 2:
                        todo.append((kids[1], path + (1,)))
                    node, path = kids[0], path + (0,)
        object.__setattr__(e, "sigmas", tuple(out))
    return e.sigmas


def free_vars(e: Expr) -> frozenset[str]:
    """The free variables of e, kept on the node when it was made."""
    return e.free


def is_term_shaped(e: Expr) -> bool:
    """True for expressions built only from Var, Z and S (term candidates)."""
    while isinstance(e, Succ):
        e = e.arg
    return isinstance(e, (Var, Zero))


def numeral(n: int) -> Expr:
    """The closed term S^n Z."""
    if n < 0:
        raise ValueError("numerals are non-negative")
    e: Expr = Zero()
    for _ in range(n):
        e = Succ(e)
    return e


def app_spine(e: Expr) -> tuple[Expr, tuple[Expr, ...]]:
    """Unroll an application chain: app_spine(f a b) = (f, (a, b))."""
    args: list[Expr] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    return e, tuple(reversed(args))


def make_app(fn: Expr, *args: Expr) -> Expr:
    for a in args:
        fn = App(fn, a)
    return fn


# ---------------------------------------------------------------------------
# Alpha-equivalence
# ---------------------------------------------------------------------------


def _rebuild(e: Expr, ctx, enter) -> Expr:
    """Rebuild e from the bottom up, without recursion.

    ``enter(node, ctx)`` is called on each node in preorder.  It returns the
    node's result, or the rebuilt node's binder name (None for a node that
    binds nothing) with one ``(child, ctx)`` item per child; the children's
    results then become the rebuilt node's children.
    """
    out: list[Expr] = []
    todo: list[tuple] = [(e, ctx)]
    while todo:
        e, ctx = todo.pop()
        if e is None:  # ctx is a node and its binder name; its rebuilt children are last on out
            e, var = ctx
            if isinstance(e, BINDERS):
                out.append(type(e)(var, e.var_type, out.pop()))
            else:
                n = len(children(e))
                kids = tuple(out[len(out) - n:])
                del out[len(out) - n:]
                out.append(rebuild(e, kids))
            continue
        step = enter(e, ctx)
        if isinstance(step, Expr):
            out.append(step)
        else:
            var, items = step
            todo.append((None, (e, var)))
            todo += reversed(items)
    return out[0]


# Canonical bound names use a character the lexer rejects, so they can never
# collide with user-written free variables.
_CANON = "\x00"


def canonical(e: Expr) -> Expr:
    """Rename bound variables to a canonical scheme (de Bruijn levels).

    The result has the same tree structure as the input (paths are stable),
    and two expressions are alpha-equivalent iff their canonical forms are
    one object.  Free variables are left untouched.
    """

    def enter(e: Expr, ctx: tuple[Mapping[str, str], int]):
        env, depth = ctx
        t = type(e)
        if t is Var:
            return Var(env.get(e.name, e.name))
        if t is Zero:
            return e
        if t is Lam or t is Mu or t is Nu:
            fresh = _CANON + str(depth)
            return fresh, [(e.body, ({**env, e.var: fresh}, depth + 1))]
        return None, [(kid, ctx) for kid in children(e)]

    return _rebuild(e, ({}, 0), enter)


def alpha_eq(a: Expr, b: Expr) -> bool:
    """Alpha-equivalence: the two canonical forms are one object, since a
    bound name becomes the level of its binder and a free name stays."""
    return a is b or canonical(a) is canonical(b)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def _fresh_variant(name: str, avoid: frozenset[str]) -> str:
    """`name` itself when available, else the smallest unused numeric suffix."""
    if name not in avoid:
        return name
    base = re.sub(r"_\d+$", "", name) or "v"
    k = 2
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


def substitute(e: Expr, subst: Mapping[str, Expr]) -> Expr:
    """Simultaneous capture-avoiding substitution e[subst].

    Binders are renamed (deterministically) only when they would capture a
    free variable of a live replacement.
    """

    def enter(e: Expr, sub: Mapping[str, Expr]):
        live = {x: r for x, r in sub.items() if x in e.free}
        if not live:
            return e
        t = type(e)
        if t is Var:  # e.name is a live key
            return live[e.name]
        if t is Lam or t is Mu or t is Nu:
            # every live key is free in e, so none is e.var
            avoid = frozenset().union(*(r.free for r in live.values()))
            var = e.var
            if var in avoid:
                var = _fresh_variant(var, avoid | e.body.free)
                live = {**live, e.var: Var(var)}
            return var, [(e.body, live)]
        return None, [(kid, live) for kid in children(e)]

    return _rebuild(e, subst, enter)


# --- the substitution walk ---------------------------------------------------
#
# substitute is one walk, run by _rebuild.  Each node carries its free
# variables, so the walk keeps, at each node, only the substituted variables
# free there, and returns a node where none is as it is: a substitution is
# linear in the part of e it changes.  A binder that would capture a free
# variable of a live replacement is renamed, and the walk goes on into its
# body with the renaming added to the simultaneous substitution, so a nest of
# renamed binders is still one walk.
#
# The trace/gtc machinery also needs to know, for every fixed-point operator
# of e[x := r], where it comes from.  Substitution keeps the shape of the tree
# above each replaced occurrence, so no walk records it: an operator of e
# keeps its path, and the copy of r that replaces the occurrence of x at path
# v (:func:`var_paths`) has r's operator at q at path v + q.


def var_paths(e: Expr, x: str) -> tuple[Path, ...]:
    """Paths of the free occurrences of x in e, in preorder; the walk enters
    only the nodes where x is free."""
    out: list[Path] = []
    todo: list[tuple[Expr, Path]] = [(e, ())]
    while todo:
        e, path = todo.pop()
        if x in e.free:  # a binder of x has no free x
            if type(e) is Var:
                out.append(path)
            else:
                kids = children(e)
                todo += [(kids[i], path + (i,)) for i in range(len(kids) - 1, -1, -1)]
    return tuple(out)


# --- head reduction steps ---------------------------------------------------


def _head_redex(e: Expr, kind) -> Optional[tuple[Expr, Expr, tuple[Expr, ...]]]:
    """Split e at its head redex into the head binder, the expression
    substituted for its variable and the arguments kept after the step.

    ``kind`` is the class (or tuple of classes) the head must be: Lam for a
    beta-redex, which also needs an argument, or Mu, Nu or FIXPOINTS for an
    unfolding.  None when e has no such redex.
    """
    head, args = app_spine(e)
    if not isinstance(head, kind):
        return None
    if isinstance(head, Lam):
        return (head, args[0], args[1:]) if args else None
    return head, head, args


class HeadStep(Record):
    """A head reduction step together with the induced correspondence of
    fixed-point operator positions.

    sources maps every sigma-path of `result` to the sigma-path of the source
    expression it descends from: first the operators of the arguments the
    step keeps, then those of the reduced body in preorder.  The head's body
    operators keep their paths below the kept arguments; each occurrence of
    the head's variable becomes a copy of the replacement, with the
    replacement's operators below it.  For an unfold, the consumed operator
    sits at `head_path` in the source; its descendants in the result are
    exactly the roots of the copies, listed in `copy_roots`, and sigma_kind
    is "mu" or "nu" as it is a least or a greatest fixed point.  For a beta
    step head_path and sigma_kind are None and copy_roots is empty: every
    result operator has a unique source and no operator is consumed or
    duplicated at the root.
    """

    __slots__ = ("result", "sources", "head_path", "copy_roots", "sigma_kind")
    result: Expr
    sources: dict[Path, Path]
    head_path: Optional[Path]
    copy_roots: tuple[Path, ...]
    sigma_kind: Optional[str]


def head_step(e: Expr, kind) -> Optional[HeadStep]:
    """The head step of e with its sigma-position correspondence, when e's
    head redex is a ``kind`` (as for :func:`_head_redex`), else None.

    This is the only redex check of the lambda and fixed-point rules: the
    kernel turns None into its schema error and keeps the step.
    """
    redex = _head_redex(e, kind)
    if redex is None:
        return None
    head, repl, rest = redex
    body = substitute(head.body, {head.var: repl})
    # the outermost kept arguments sit at the same paths in e and the result
    # (the i-th from the outside at (0,)*(i-1) + (1,)), so their operators
    # map by the identity
    sources: dict[Path, Path] = {}
    p: Path = ()
    for arg in reversed(rest):
        for q in sigma_paths(arg):
            sources[p + (1,) + q] = p + (1,) + q
        p = p + (0,)
    # a beta redex's head is applied to the replacement as well, as the
    # innermost argument; an unfolded head is the replacement itself
    beta = isinstance(head, Lam)
    head_path = p + (0,) if beta else p
    repl_path = p + (1,) if beta else head_path
    # the copy of repl at each occurrence v of the variable has repl's
    # operator q at v + q; every other operator is head.body's at its path
    copies = var_paths(head.body, head.var)
    in_copy = {v + q: q for v in copies for q in sigma_paths(repl)}
    for q in sigma_paths(body):
        src = in_copy.get(q)
        sources[p + q] = head_path + (0,) + q if src is None else repl_path + src
    result = make_app(body, *rest)
    if beta:
        return HeadStep(result, sources, None, (), None)
    return HeadStep(result, sources, head_path, tuple(p + v for v in copies),
                    "mu" if isinstance(head, Mu) else "nu")


# ---------------------------------------------------------------------------
# Type inference
# ---------------------------------------------------------------------------


class _TMeta(SimpleType):
    """Type metavariable used only inside inference."""

    __slots__ = ("id",)
    id: int


def _parts(ty: SimpleType) -> set[SimpleType]:
    """The distinct types inside ty, ty among them, found in a loop."""
    seen, todo = set(), [ty]
    while todo:
        ty = todo.pop()
        if ty not in seen:
            seen.add(ty)
            if type(ty) is Arrow:
                todo += (ty.arg, ty.result)
    return seen


class _Unifier:
    def __init__(self, free: Optional[dict[str, _TMeta]] = None) -> None:
        self.sol: dict[int, SimpleType] = {}
        self._next = 0
        self.free = free  # a metavariable per free variable met, or None: unbound
        # the metavariables that stand for an arrow's result, never N: a
        # lambda body's type and an application's result type
        self.props: set[_TMeta] = set()

    def fresh(self) -> _TMeta:
        self._next += 1
        return _TMeta(self._next)

    def free_var(self, name: str) -> _TMeta:
        """The metavariable of the free variable ``name``, made when first met."""
        if self.free is None:
            raise UnboundVariable(name)
        return self.free.get(name) or self.free.setdefault(name, self.fresh())

    def resolve(self, ty: SimpleType) -> SimpleType:
        """ty with each solved metavariable replaced by its solution, built
        from an explicit stack once each part's parts are done."""
        sol = self.sol
        while type(ty) is _TMeta and ty.id in sol:
            ty = sol[ty.id]
        if not sol or type(ty) is not Arrow:  # a closed formula types with no copying
            return ty
        done, todo = {}, [ty]
        while todo:
            t = todo[-1]
            parts = ((t.arg, t.result) if type(t) is Arrow else
                     (sol[t.id],) if type(t) is _TMeta and t.id in sol else ())
            todo += [part for part in parts if part not in done]
            if todo[-1] is t:
                done[todo.pop()] = (Arrow(done[t.arg], done[t.result]) if len(parts) == 2
                                    else done[parts[0]] if parts else t)
        return done[ty]

    def unify(self, found: SimpleType, want: SimpleType, where: Expr) -> None:
        """Unify the two types, or raise naming both whole, as far as they
        are solved, however deep inside them they differ."""
        if found is not want and not self._unify(found, want):
            raise IllTyped(where, type_to_str(self.resolve(want)),
                           type_to_str(self.resolve(found)))

    def _unify(self, found: SimpleType, want: SimpleType) -> bool:
        """Solve metavariables, arguments before results, so that the types
        are equal, or return False.  The occurs check (Robinson, J. ACM 1965)
        keeps a metavariable from a solution that holds it, and one in
        ``props`` is not solved to N."""
        pairs = [(found, want)]
        while pairs:
            found, want = pairs.pop()
            found, want = self.resolve(found), self.resolve(want)
            if found is want:
                continue
            meta, ty = (found, want) if type(found) is _TMeta else (want, found)
            if type(meta) is _TMeta:
                if meta in _parts(ty) or (meta in self.props and ty is NAT):
                    return False
                self.sol[meta.id] = ty
                if meta in self.props and type(ty) is _TMeta:
                    self.props.add(ty)
            elif type(found) is Arrow and type(want) is Arrow:
                pairs += ((found.result, want.result), (found.arg, want.arg))
            else:
                return False
        return True

    def unify_if_possible(self, found: SimpleType, want: SimpleType) -> None:
        """Unify the two types when they unify; else leave the solution as it was."""
        saved = dict(self.sol)
        if not self._unify(found, want):
            self.sol = saved


def _infer(formulas, env: dict[str, SimpleType], uni: _Unifier,
           want: Optional[SimpleType] = None) -> list[SimpleType]:
    """Type the formulas, each at ``want`` if it is not None, else return
    their types, as far as ``uni`` has solved them.

    One walk from a stack of items ``(node, env, memo, want, leaving)``:
    ``want`` is the type the context requires, or None; ``leaving`` is False
    when the node is met and True once its children are typed.  On leaving a
    node, its type is made from the types on ``out`` of its children that
    have no ``want``, then unified with ``want`` or put on ``out``.  An
    application first unifies its result type with ``want`` where it can, so
    an inferred free variable is blamed at the same subterm as a declared
    one.  ``memo`` belongs to ``env``, so a node met again under the same env
    is typed once.
    """
    memo: dict[Expr, SimpleType] = {}
    todo: list = [(phi, env, memo, want, False) for phi in reversed(formulas)]
    out: list[SimpleType] = []
    while todo:
        e, env, memo, want, leaving = todo.pop()
        cls = type(e)
        if leaving:
            if cls is App:
                fn_ty, arg_ty = out[-2:]
                del out[-2:]
                fn_ty = uni.resolve(fn_ty)
                if type(fn_ty) is _TMeta:
                    fn_ty, meta = Arrow(arg_ty, uni.fresh()), fn_ty
                    uni.props.add(fn_ty.result)
                    uni.unify(fn_ty, meta, e)
                if type(fn_ty) is not Arrow:
                    raise IllTyped(e.fn, "an arrow type", type_to_str(fn_ty))
                if want is not None:
                    uni.unify_if_possible(fn_ty.result, want)
                uni.unify(arg_ty, fn_ty.arg, e.arg)
                ty = fn_ty.result
            elif cls is Lam:
                body_ty = uni.resolve(out[-1])
                if body_ty is NAT:
                    raise HflTypeError(f"abstraction body {to_str(e.body)!r} has type N")
                if type(body_ty) is _TMeta:
                    uni.props.add(body_ty)
                ty = Arrow(e.var_type, out.pop())
            else:
                ty = e.var_type if cls is Mu or cls is Nu else NAT if cls is Succ else PROP
            memo[e] = ty
        elif cls is Var:
            ty = env.get(e.name) or uni.free_var(e.name)
        elif cls is Zero:
            ty = NAT
        elif e in memo:
            ty = memo[e]
        else:
            todo.append((e, env, memo, want, True))
            if cls is App:
                todo += ((e.arg, env, memo, None, False), (e.fn, env, memo, None, False))
            elif cls is Lam or cls is Mu or cls is Nu:
                todo.append((e.body, {**env, e.var: e.var_type}, {},
                             None if cls is Lam else e.var_type, False))
            else:  # children raises on what is not an expression
                kid_ty = NAT if cls is Succ or cls is Eq else PROP
                todo += [(kid, env, memo, kid_ty, False) for kid in reversed(children(e))]
            continue
        if want is None:
            out.append(ty)
        else:
            uni.unify(ty, want, e)
    return out


def infer_type(env: Mapping[str, SimpleType], e: Expr) -> SimpleType:
    """The unique type of e under env (syntax-directed; raises on failure)."""
    return _infer((e,), dict(env), _Unifier())[0]  # no metavariable: every type is known


def infer_env(formulas, env: Optional[Mapping[str, SimpleType]] = None) -> dict[str, SimpleType]:
    """Infer types for the free variables of the given Omega-formulas.

    Known types may be supplied in env; the result extends it.  Raises
    HflTypeError when a free variable's type is not fully determined.
    """
    full: dict[str, SimpleType] = dict(env or {})
    uni = _Unifier({})
    _infer(tuple(formulas), full, uni, PROP)
    for name, meta in uni.free.items():
        ty = uni.resolve(meta)
        if any(type(part) is _TMeta for part in _parts(ty)):
            raise HflTypeError(f"cannot determine the type of free variable {name!r}")
        full[name] = ty
    return full


# ---------------------------------------------------------------------------
# Sequents
# ---------------------------------------------------------------------------


class Sequent(Interned):
    """A pair of ordered formula lists Gamma |- Delta (interned)."""

    __slots__ = ("left", "right")
    left: tuple[Expr, ...]
    right: tuple[Expr, ...]

    def _check(self) -> None:
        for name, row in (("left", self.left), ("right", self.right)):
            if not isinstance(row, tuple) or not all([isinstance(f, Expr) for f in row]):
                raise _kind_error(Sequent, name, row, "tuple of Exprs")

    def __str__(self) -> str:
        return sequent_to_str(self)

    def free_vars(self) -> frozenset[str]:
        return frozenset().union(*(f.free for f in self.left + self.right))


def sequent(left=(), right=()) -> Sequent:
    return Sequent(tuple(left), tuple(right))


def sequent_alpha_eq(a: Sequent, b: Sequent) -> bool:
    return a is b or (len(a.left) == len(b.left) and len(a.right) == len(b.right)
                      and all(map(alpha_eq, a.left + a.right, b.left + b.right)))


def check_sequent(seq: Sequent, env: Optional[Mapping[str, SimpleType]] = None) -> dict[str, SimpleType]:
    """Type-check every member formula at type O; returns the inferred env
    (see :func:`infer_env`)."""
    return infer_env(seq.left + seq.right, env)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# Every character is in one match (blanks and comments, an operator, a number,
# a name, punctuation, or one character that starts no token), so a token's
# position is the total length of the matches before it.
_TOKEN_RE = re.compile(
    r"\s+|\#[^\n]*|->|\\/|/\\|\\|\|-|⊢|\d+|[A-Za-z_][A-Za-z0-9_']*|[().:,=]|.",
    re.DOTALL)

_KINDS = {"->": "arrow", "\\/": "orop", "/\\": "andop", "\\": "lam",
          "|-": "turnstile", "⊢": "turnstile", "mu": "mu", "nu": "nu", "Z": "Z",
          "S": "S", **dict.fromkeys("().:,=", "punct")}
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# The binary operators, for the printer and the parser: separator, precedence,
# and the levels of the two operands (binder bodies are at level 0, atoms at 5)
_BINARY = {Eq: (" = ", 3, 4, 4), Or: (" \\/ ", 1, 1, 2), And: (" /\\ ", 2, 2, 3),
           App: (" ", 4, 4, 5)}
_INFIX = {sep.strip(): cls for cls, (sep, *_levels) in _BINARY.items() if sep.strip()}
_ATOM_LEVEL = _BINARY[App][3]
# A binder may start an operand up to the level of /\'s right operand: not
# after = or S, and not as an application's argument.
_BINDER_LEVEL = _BINARY[And][3]
_BINDER_KEYWORDS = {"lam": Lam, "mu": Mu, "nu": Nu}
_ATOM_START = frozenset(("ident", "num", "Z", "S"))  # and "("

Token = tuple[str, str, int]
"""(kind, text, position); a keyword's kind is its own text."""


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    pos = 0
    for tok in _TOKEN_RE.findall(text):
        kind = _KINDS.get(tok)
        if kind is None:
            first = tok[0]
            if first in _NAME_START:
                kind = "ident"
            elif first.isdecimal():
                kind = "num"
            elif not (first.isspace() or first == "#"):
                raise HflSyntaxError(f"unexpected character {tok!r}", text, pos)
        if kind:
            toks.append((kind, tok, pos))
        pos += len(tok)
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    # -- helpers --
    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        tok = self.next()
        if tok[0] != kind and tok[1] != kind:
            raise HflSyntaxError(
                f"expected {what or kind!r}, found {tok[1] or 'end of input'!r}",
                self.text, tok[2])
        return tok

    # -- types --
    def type_expr(self) -> SimpleType:
        """A type, whose arrows nest to the right, read in one loop.  A stack
        holds each open parenthesis (None) and each arrow's left operand and position."""
        stack: list = []
        while True:
            _kind, text, pos = self.next()
            if text == "(":
                stack.append(None)
                continue
            if text not in ("N", "O"):
                raise HflSyntaxError(f"expected a type, found {text!r}", self.text, pos)
            ty = NAT if text == "N" else PROP
            while self.peek()[0] != "arrow":
                while stack and stack[-1] is not None:
                    left, arrow_pos = stack.pop()
                    try:
                        ty = Arrow(left, ty)
                    except HflTypeError as exc:
                        raise HflSyntaxError(str(exc), self.text, arrow_pos) from None
                if not stack:
                    return ty
                stack.pop()
                self.expect(")", ")")
            stack.append((ty, self.next()[2]))

    # -- expressions --
    def expr(self) -> Expr:
        """A formula, read in one loop by precedence climbing over ``_BINARY``:
        an operand at ``level`` is a binder (up to ``_BINDER_LEVEL``), whose body
        extends as far as it can, or an atom and then each operator of precedence
        at least ``level`` that takes what is read so far as its left operand.
        Application is juxtaposition with an atom.  What waits for an operand is
        on a stack with the level it was read at: an open parenthesis (None) with
        the run of S before it, a binder, or an operator with its left operand."""
        stack, level = [], 0
        while True:
            kind, text, pos = self.next()
            if kind in _BINDER_KEYWORDS and level <= _BINDER_LEVEL:
                name = self.expect("ident", "a variable")[1]
                self.expect(":", ":")
                ty = self.type_expr()
                self.expect(".", ".")
                stack.append((_BINDER_KEYWORDS[kind], (name, ty, pos), level))
                level = 0
                continue
            depth = 0  # S binds to the immediately following atom: S x, S (f y), S S x
            while kind == "S":
                depth += 1
                kind, text, pos = self.next()
            if text == "(":
                stack.append((None, depth, level))
                level = 0
                continue
            if kind == "Z":
                left = Zero()
            elif kind == "ident":
                left = Var(text)
            elif kind == "num":
                # S^n Z is n + 1 nodes: a fixed bound on the work one literal makes
                if len(text.lstrip("0")) > len("10000") or int(text) > 10_000:
                    raise HflSyntaxError("numeral larger than 10000, the most successors "
                                         "one literal may make", self.text, pos)
                left = numeral(int(text))
            else:
                raise HflSyntaxError(f"expected an expression, found {text or 'end of input'!r}",
                                     self.text, pos)
            prec = _ATOM_LEVEL
            while True:
                while depth:
                    left, depth = Succ(left), depth - 1
                kind, text, _pos = self.peek()
                cls = App if kind in _ATOM_START or text == "(" else _INFIX.get(text)
                if cls is not None:
                    _sep, op_prec, left_level, right_level = _BINARY[cls]
                    if op_prec >= level and prec >= left_level:
                        if cls is not App:
                            self.next()
                        stack.append((cls, left, level))
                        level = right_level
                        break
                # no operator takes left: it is the operand the stack's top waits for
                if not stack:
                    return left
                cls, arg, level = stack.pop()
                if cls is None:
                    self.expect(")", ")")
                    depth, prec = arg, _ATOM_LEVEL
                elif cls in _BINARY:
                    left, prec = cls(arg, left), _BINARY[cls][1]
                else:
                    name, ty, pos = arg
                    try:  # nothing takes a binder as its left operand: prec 0
                        left, prec = cls(name, ty, left), 0
                    except HflTypeError as exc:
                        raise HflSyntaxError(str(exc), self.text, pos) from None

    # -- sequents --
    def formula_list(self, stop_kinds: tuple[str, ...]) -> tuple[Expr, ...]:
        if self.peek()[0] in stop_kinds:
            return ()
        items = [self.expr()]
        while self.peek()[1] == ",":
            self.next()
            items.append(self.expr())
        return tuple(items)

    def sequent(self) -> Sequent:
        left = self.formula_list(("turnstile",))
        self.expect("turnstile", "|-")
        right = self.formula_list(("eof",))
        return Sequent(left, right)


def _parse_all(p: _Parser, rule):
    out = rule(p)
    kind, text, pos = p.peek()
    if kind != "eof":
        raise HflSyntaxError(f"unexpected trailing input {text!r}", p.text, pos)
    return out


def parse_expr(text: str) -> Expr:
    return _parse_all(_Parser(text), _Parser.expr)


def parse_sequent(text: str) -> Sequent:
    return _parse_all(_Parser(text), _Parser.sequent)


def parse_type(text: str) -> SimpleType:
    return _parse_all(_Parser(text), _Parser.type_expr)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Precedence levels: binder bodies 0, \/ 1, /\ 2, = 3, application 4, atoms 5.


def to_str(e: Expr, notes: Optional[Mapping[Path, tuple[int, ...]]] = None) -> str:
    """The concrete syntax of e.  With ``notes``, the fixed-point operator at
    each path p carries ``notes[p]`` in braces (nothing when it is empty).

    This fills e's :func:`print_template`, so a subformula that e holds
    many times is laid out once and its text copied where it recurs.
    """
    pieces = print_template(e)
    if notes is None:
        return "".join(pieces)
    return fill_template(pieces, [annotation_label(notes[p]) for p in sigma_paths(e)])


def annotation_label(note: tuple[int, ...]) -> str:
    """``{1.2.3}`` for the annotation (1, 2, 3); nothing for the empty one."""
    return "{" + ".".join(map(str, note)) + "}" if note else ""


Template = tuple[str, ...]
"""A printed formula with a gap after each fixed-point keyword, where its
annotation goes, as the text pieces around the gaps.  Both the gaps and
:func:`sigma_paths` are in preorder, so the i-th gap is the operator at the
i-th sigma-path."""


_DONE = object()  # the bottom of the printer's stack


def print_template(e: Expr) -> Template:
    """The concrete syntax of e with a gap for each fixed-point annotation."""
    return print_templates((e,))[0]


def print_templates(formulas: Iterable[Expr]) -> list[Template]:
    """The :func:`print_template` of each formula, printed without recursion
    and with one table for all of them: each distinct node is laid out once
    (:func:`_layout`), and met again it copies the span of text and gaps it
    printed the first time.  So the work is one layout per distinct node
    plus the size of the output, even on a deep term that shares nothing."""
    out: list[str] = []
    gaps: list[int] = []  # the index in out of each gap
    spans: dict[Expr, tuple[int, int, int, int, int]] = {}  # precedence, out and gaps spans
    templates = []
    for e in formulas:
        start, first_gap = len(out), len(gaps)
        # last first: text, a gap (None), a node and its level, or the end
        # of a node's first print (precedence, start in out and gaps, node);
        # a for loop, as CPython 3.11 warms up a while loop only over calls
        todo: list = [_DONE, (e, 0)]
        for item in iter(todo.pop, _DONE):
            if item.__class__ is str:
                out.append(item)
            elif item is None:
                gaps.append(len(out))
            elif len(item) == 4:
                prec, at, gap, node = item
                spans[node] = (prec, at, len(out), gap, len(gaps))
            elif item[0].__class__ is Var:
                out.append(item[0].name)
            elif item[0].__class__ is Zero:
                out.append("Z")
            else:
                node, level = item
                span = spans.get(node)
                prec, parts = _layout(node) if span is None else (span[0], ())
                if prec < level:
                    out.append("(")
                    todo.append(")")
                if span is None:
                    todo.append((prec, len(out), len(gaps), node))
                    todo += reversed(parts)
                    continue
                _, at, end, gap, gap_end = span
                shift = len(out) - at
                gaps += [g + shift for g in gaps[gap:gap_end]]
                out += out[at:end]
        cuts = gaps[first_gap:]
        templates.append(tuple(["".join(out[a:b])
                                for a, b in zip([start, *cuts], [*cuts, len(out)])]))
    return templates


def _layout(e: Expr) -> tuple[int, list]:
    """A node's precedence and its parts: text, None for the gap after a
    fixed-point keyword, or a child and the level it prints at.  A chain of
    S is laid out at its top: a decimal over Z, else S S ... and no
    parentheses, as the parser reads S S x."""
    if isinstance(e, Succ):
        n, bottom = 0, e
        while True:  # a backward jump, which warms up (see print_templates)
            if not isinstance(bottom, Succ):
                break
            n, bottom = n + 1, bottom.arg
        return (5, [str(n)]) if isinstance(bottom, Zero) else (4, ["S " * n, (bottom, 5)])
    if isinstance(e, BINDERS):
        binding = f" {e.var}:{type_to_str(e.var_type)}. "
        if isinstance(e, FIXPOINTS):
            return 0, ["mu" if isinstance(e, Mu) else "nu", None, binding, (e.body, 0)]
        return 0, ["\\" + binding[1:], (e.body, 0)]
    if type(e) in _BINARY:
        sep, prec, left, right = _BINARY[type(e)]
        lhs, rhs = children(e)
        return prec, [(lhs, left), sep, (rhs, right)]
    raise TypeError(f"not an expression: {e!r}")


def fill_template(template: Template, labels: Iterable[str]) -> str:
    """The text of a template with its gaps filled by ``labels``, in order."""
    out = [template[0]]
    for label, piece in zip(labels, template[1:]):
        out += (label, piece)
    return "".join(out)


def sequent_to_str(seq: Sequent) -> str:
    left = ", ".join(to_str(f) for f in seq.left)
    right = ", ".join(to_str(f) for f in seq.right)
    if left:
        return f"{left} |- {right}" if right else f"{left} |-"
    return f"|- {right}" if right else "|-"


# ---------------------------------------------------------------------------
# The encodings that the Nat rule builds
# ---------------------------------------------------------------------------


def exists_nat(x: str, phi: Expr) -> Expr:
    """exists x:N. phi  :=  (mu E:N->O. \\y:N. phi[y/x] \\/ E (S y)) Z."""
    avoid = free_vars(phi) - {x}
    y = _fresh_variant(x, avoid)
    e = _fresh_variant("E", avoid | {y})
    body = substitute(phi, {x: Var(y)})
    return App(Mu(e, arrow(NAT, PROP), Lam(y, NAT, Or(body, App(Var(e), Succ(Var(y)))))), Zero())


def nat_pred() -> Expr:
    """N := mu X. \\x:N. (x = Z) \\/ exists x'. (x = S x' /\\ X x')."""
    step = exists_nat("x'", And(Eq(Var("x"), Succ(Var("x'"))), App(Var("X"), Var("x'"))))
    return Mu("X", arrow(NAT, PROP),
              Lam("x", NAT, Or(Eq(Var("x"), Zero()), step)))
