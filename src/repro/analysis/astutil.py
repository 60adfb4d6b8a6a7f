"""Shared AST infrastructure for the repo-aware checkers.

Everything the checkers need to reason about the tree is computed once
per lint run and shared:

* :class:`ModuleInfo` — parsed AST + per-line comment map (comments are
  where the annotation conventions live: ``# holds-lock: <lock>``,
  ``# lint: event-loop``, ``# zht-lint: ignore[CODE] reason``).
* :class:`ClassInfo` — per-class lock attributes (with their kind:
  ``Lock`` / ``RLock`` / ``Condition``), attribute types inferred from
  ``__init__`` assignments and annotations, lock-aliasing properties
  (``NoVoHT.lock`` → ``NoVoHT._lock``).
* type-inference-lite (:func:`TypeResolver.resolve`) — just enough
  static typing to resolve ``part.store.apply_batch`` to
  ``NoVoHT.apply_batch``: parameter annotations, ``self`` attributes,
  locals assigned from constructors or annotated methods.  Anything
  unresolvable returns ``None`` and the checkers stay silent about it —
  precision over recall, so findings stay actionable.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

# Lock constructor names in the threading module, with their kind.
_LOCK_CTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
}


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` → ``["a", "b", "c"]``; ``None`` for non-trivial exprs."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _called_name(call: ast.Call) -> list[str] | None:
    return _attr_chain(call.func)


def _annotation_class_names(node: ast.expr | None) -> list[str]:
    """Class names referenced by an annotation expression.

    Handles ``Foo``, ``"Foo"``, ``Foo | None``, ``Optional[Foo]``,
    ``Foo[...]`` — returns the candidate concrete class names.
    """
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return []
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_class_names(node.left) + _annotation_class_names(
            node.right
        )
    if isinstance(node, ast.Subscript):
        base = _annotation_class_names(node.value)
        inner = node.slice
        elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        if base and base[0] in ("Optional", "Union"):
            names: list[str] = []
            for elt in elts:
                names.extend(_annotation_class_names(elt))
            return names
        if base and base[0] in _SEQUENCE_GENERICS:
            # Conflate container with element: ``list[Partition]`` resolves
            # to Partition so ``parts[i].store`` keeps resolving.
            names = []
            for elt in elts:
                names.extend(_annotation_class_names(elt))
            return names
        if base and base[0] in _MAPPING_GENERICS and len(elts) == 2:
            return _annotation_class_names(elts[1])
        return base
    return []


_SEQUENCE_GENERICS = frozenset(
    {"list", "List", "set", "Set", "frozenset", "FrozenSet", "tuple",
     "Tuple", "Sequence", "Iterable", "Iterator", "deque"}
)
_MAPPING_GENERICS = frozenset(
    {"dict", "Dict", "Mapping", "MutableMapping", "defaultdict",
     "OrderedDict"}
)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path  #: absolute path
    relpath: str  #: path relative to the lint root (findings use this)
    tree: ast.Module
    source: str
    #: line number -> full comment text (without the leading ``#``).
    comments: dict[int, str] = field(default_factory=dict)
    #: module-level lock globals: name -> kind ("lock"/"rlock"/"condition").
    module_locks: dict[str, str] = field(default_factory=dict)

    def comment_in_range(self, first: int, last: int, tag: str) -> str | None:
        """First ``<tag>: value`` comment on lines ``first..last``."""
        for line in range(first, last + 1):
            comment = self.comments.get(line, "")
            if tag in comment:
                return comment.split(tag, 1)[1].strip().split()[0]
        return None


def parse_module(path: Path, relpath: str) -> ModuleInfo | None:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, UnicodeDecodeError):
        return None
    comments: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string.lstrip("#").strip()
    except (tokenize.TokenError, IndentationError):
        pass
    info = ModuleInfo(
        path=path, relpath=relpath, tree=tree, source=source, comments=comments
    )
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            kind = _is_lock_ctor(node.value)
            if kind is not None:
                info.module_locks[node.targets[0].id] = kind
    return info


@dataclass(frozen=True)
class LockId:
    """Identity of one lock *class-wide* (all instances conflated)."""

    owner: str  #: "Class" or "<module>" for function-local locks
    attr: str
    kind: str  #: "lock" | "rlock" | "condition"

    def __str__(self) -> str:
        return f"{self.owner}.{self.attr}"


@dataclass
class FunctionInfo:
    """One function or method."""

    module: ModuleInfo
    cls: "ClassInfo | None"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    qualname: str  #: "Class.method" or "function"

    #: Locks named by ``# holds-lock: <attr>`` annotations on the def
    #: signature lines: the body runs with these already held by callers.
    holds_locks: set[str] = field(default_factory=set)
    #: ``# lint: single-threaded`` marker — body never runs concurrently
    #: (construction-time helpers, test-only paths).
    single_threaded: bool = False
    #: ``# lint: event-loop`` marker — the body runs ON an event-loop
    #: thread (selector callbacks, inline fast-path dispatch); everything
    #: transitively reachable from it is event-loop context for the LOOP
    #: checker.  ``async def`` coroutines are event-loop entries
    #: automatically.
    event_loop: bool = False
    #: ``# holds-executor: <reason>`` marker — although this function is
    #: *called* from event-loop code, its body actually executes on a
    #: worker-pool thread (the call edge hands off, it does not run
    #: inline).  The LOOP checker's reachability stops here.
    holds_executor: bool = False


@dataclass
class ClassInfo:
    """Facts about one class needed by the lock-aware checkers."""

    module: ModuleInfo
    node: ast.ClassDef
    name: str

    #: lock attribute -> kind ("lock"/"rlock"/"condition").
    lock_attrs: dict[str, str] = field(default_factory=dict)
    #: property name -> lock attribute it aliases (``lock`` -> ``_lock``).
    lock_aliases: dict[str, str] = field(default_factory=dict)
    #: attribute -> candidate class names (from __init__ / annotations).
    attr_types: dict[str, list[str]] = field(default_factory=dict)
    #: method name -> FunctionInfo.
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    def lock_id(self, attr: str) -> LockId | None:
        attr = self.lock_aliases.get(attr, attr)
        kind = self.lock_attrs.get(attr)
        if kind is None:
            return None
        return LockId(self.name, attr, kind)


def _is_lock_ctor(value: ast.expr) -> str | None:
    """``threading.Lock()`` / ``Lock()`` → its kind, else ``None``."""
    if isinstance(value, ast.ListComp) or isinstance(value, ast.List):
        # [threading.Lock() for ...] — a family of locks; treat as one id.
        elt = value.elt if isinstance(value, ast.ListComp) else (
            value.elts[0] if value.elts else None
        )
        if elt is not None and isinstance(elt, ast.Call):
            return _is_lock_ctor_call(elt)
        return None
    if isinstance(value, ast.Call):
        return _is_lock_ctor_call(value)
    return None


def _is_lock_ctor_call(call: ast.Call) -> str | None:
    chain = _called_name(call)
    if not chain:
        return None
    return _LOCK_CTORS.get(chain[-1]) if chain[-1] in _LOCK_CTORS and (
        len(chain) == 1 or chain[-2] == "threading"
    ) else None


def _function_info(
    module: ModuleInfo,
    cls: ClassInfo | None,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> FunctionInfo:
    qual = f"{cls.name}.{node.name}" if cls is not None else node.name
    info = FunctionInfo(module=module, cls=cls, node=node, qualname=qual)
    first_body_line = node.body[0].lineno if node.body else node.lineno
    held = module.comment_in_range(node.lineno, first_body_line, "holds-lock:")
    if held:
        info.holds_locks.add(held)
    if isinstance(node, ast.AsyncFunctionDef):
        info.event_loop = True
    # Markers are honored on the def line, inside the signature, or in
    # the contiguous comment block immediately above the def (mirrors
    # the line-above rule for inline suppressions).
    start = node.lineno
    while module.comments.get(start - 1, "").strip():
        start -= 1
    for line in range(start, first_body_line + 1):
        comment = module.comments.get(line, "")
        if "lint: single-threaded" in comment:
            info.single_threaded = True
        if "lint: event-loop" in comment:
            info.event_loop = True
        if "holds-executor:" in comment:
            info.holds_executor = True
    return info


def _collect_class(module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(module=module, node=node, name=node.name)
    # Class-level annotated attributes contribute types.
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = _annotation_class_names(stmt.annotation)
            if names:
                info.attr_types.setdefault(stmt.target.id, []).extend(names)
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        info.methods[stmt.name] = _function_info(module, info, stmt)
        decorators = {
            d.id for d in stmt.decorator_list if isinstance(d, ast.Name)
        }
        # Attribute types and locks come from ``self.X = ...``
        # assignments in EVERY method, not just __init__ — late-binding
        # setters (``attach_core(self, core: ZHTServerCore)``) are how
        # cluster builders wire servers, and missing them would sever
        # the call graph right at the dispatch boundary.
        _collect_self_assigns(info, stmt)
        if "property" in decorators:
            # A property whose body is ``return self._X`` where _X is a
            # lock (or will be discovered as one) aliases that lock.
            for sub in stmt.body:
                if (
                    isinstance(sub, ast.Return)
                    and isinstance(sub.value, ast.Attribute)
                    and isinstance(sub.value.value, ast.Name)
                    and sub.value.value.id == "self"
                ):
                    info.lock_aliases[stmt.name] = sub.value.attr
            # Property return annotations contribute attribute types.
            names = _annotation_class_names(stmt.returns)
            if names:
                info.attr_types.setdefault(stmt.name, []).extend(names)
    # Aliases only count when the target really is a lock attribute.
    info.lock_aliases = {
        prop: target
        for prop, target in info.lock_aliases.items()
        if target in info.lock_attrs
    }
    return info


def _collect_self_assigns(
    info: ClassInfo,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
) -> None:
    params: dict[str, list[str]] = {}
    args = method.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        names = _annotation_class_names(arg.annotation)
        if names:
            params[arg.arg] = names
    for stmt in ast.walk(method):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        annotation: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
            value, annotation = stmt.value, stmt.annotation
        else:
            continue
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            kind = _is_lock_ctor(value) if value is not None else None
            if kind is not None:
                info.lock_attrs[attr] = kind
            names = _annotation_class_names(annotation)
            if not names and isinstance(value, ast.Call):
                chain = _called_name(value)
                if chain:
                    names = [chain[-1]]
            if not names and isinstance(value, ast.Name):
                # ``self.core = core`` where ``core`` is an annotated
                # parameter of this method (setter-injection idiom).
                names = params.get(value.id, [])
            if names:
                known = info.attr_types.setdefault(attr, [])
                known.extend(n for n in names if n not in known)


@dataclass
class ProjectIndex:
    """Cross-module indexes shared by every checker."""

    modules: list[ModuleInfo]
    #: simple class name -> ClassInfo (first definition wins; this repo
    #: has no duplicate class names across modules).
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: "Class.method" -> FunctionInfo, plus "function" for module level.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: module-level function name -> FunctionInfo (cross-module by name).
    module_functions: dict[str, FunctionInfo] = field(default_factory=dict)

    @classmethod
    def build(cls, modules: list[ModuleInfo]) -> "ProjectIndex":
        index = cls(modules=modules)
        for module in modules:
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    cinfo = _collect_class(module, node)
                    index.classes.setdefault(node.name, cinfo)
                    for minfo in cinfo.methods.values():
                        index.functions.setdefault(minfo.qualname, minfo)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    finfo = _function_info(module, None, node)
                    index.functions.setdefault(node.name, finfo)
                    index.module_functions.setdefault(node.name, finfo)
        index._flatten_inheritance()
        return index

    def _flatten_inheritance(self) -> None:
        """Copy lock/type declarations and methods from base classes into
        subclasses: a subclass method may take a lock its base declares
        (``with self.write_lock:``), and ``self.m()`` may call a method
        only the base defines (``ZHT`` running ``OpClient.op``)."""
        flattened: set[str] = set()

        def flatten(name: str) -> None:
            if name in flattened:
                return
            flattened.add(name)
            cinfo = self.classes[name]
            for base in cinfo.node.bases:
                if not isinstance(base, ast.Name) or base.id not in self.classes:
                    continue
                flatten(base.id)
                binfo = self.classes[base.id]
                for attr, kind in binfo.lock_attrs.items():
                    cinfo.lock_attrs.setdefault(attr, kind)
                for alias, attr in binfo.lock_aliases.items():
                    cinfo.lock_aliases.setdefault(alias, attr)
                for attr, types in binfo.attr_types.items():
                    cinfo.attr_types.setdefault(attr, list(types))
                for method, finfo in binfo.methods.items():
                    cinfo.methods.setdefault(method, finfo)

        for name in list(self.classes):
            flatten(name)


class TypeResolver:
    """Best-effort static type resolution inside one function."""

    def __init__(self, index: ProjectIndex, fn: FunctionInfo):
        self.index = index
        self.fn = fn
        self.locals: dict[str, list[str]] = {}
        self._seed_params()
        self._seed_locals()

    def _seed_params(self) -> None:
        args = self.fn.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            names = _annotation_class_names(arg.annotation)
            if names:
                self.locals[arg.arg] = names

    def _seed_locals(self) -> None:
        for stmt in ast.walk(self.fn.node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if not isinstance(target, ast.Name):
                continue
            names = _annotation_class_names(annotation)
            if not names and value is not None:
                names = self._value_types(value)
            if names:
                self.locals.setdefault(target.id, []).extend(names)

    def _value_types(self, value: ast.expr) -> list[str]:
        if isinstance(value, ast.Call):
            chain = _called_name(value)
            if chain == ["cls"] and self.fn.cls is not None:
                return [self.fn.cls.name]
            if chain is not None and chain[-1] in self.index.classes:
                return [chain[-1]]
            # x = <expr>.method(...): return annotation of the resolved
            # method, or — for ``.get()`` on a container attribute whose
            # element type we conflated — the receiver's classes.
            if isinstance(value.func, ast.Attribute):
                owners = self.resolve(value.func.value)
                names: list[str] = []
                for owner in owners:
                    method = owner.methods.get(value.func.attr)
                    if method is not None:
                        names.extend(
                            _annotation_class_names(method.node.returns)
                        )
                if not names and value.func.attr == "get":
                    names = [o.name for o in owners]
                return names
        elif isinstance(value, (ast.Attribute, ast.Name, ast.Subscript)):
            return [c.name for c in self.resolve(value)]
        elif isinstance(value, ast.BoolOp):
            names = []
            for operand in value.values:
                names.extend(self._value_types(operand))
            return names
        return []

    def resolve(self, expr: ast.expr) -> list[ClassInfo]:
        """Candidate classes for *expr*; empty when unresolvable."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self.fn.cls is not None:
                return [self.fn.cls]
            local = self._classes_for(self.locals.get(expr.id, []))
            if local:
                return local
            # The class object itself (Project.load(...)): conflate the
            # class with its instances — fine for method lookup.
            cinfo = self.index.classes.get(expr.id)
            return [cinfo] if cinfo is not None else []
        if isinstance(expr, ast.Attribute):
            result: list[ClassInfo] = []
            for owner in self.resolve(expr.value):
                result.extend(
                    self._classes_for(owner.attr_types.get(expr.attr, []))
                )
            return result
        if isinstance(expr, ast.Subscript):
            # Container element conflation: parts[i] has parts' classes.
            return self.resolve(expr.value)
        if isinstance(expr, ast.Call):
            return self._classes_for(self._value_types(expr))
        return []

    def _classes_for(self, names: list[str]) -> list[ClassInfo]:
        seen: list[ClassInfo] = []
        for name in names:
            cinfo = self.index.classes.get(name)
            if cinfo is not None and cinfo not in seen:
                seen.append(cinfo)
        return seen

    # -- call resolution -------------------------------------------------

    def resolve_call(self, call: ast.Call) -> list[FunctionInfo]:
        """Candidate callee functions for *call* (resolvable only)."""
        func = call.func
        if isinstance(func, ast.Name):
            fn = self.index.module_functions.get(func.id)
            return [fn] if fn is not None else []
        if isinstance(func, ast.Attribute):
            callees: list[FunctionInfo] = []
            for owner in self.resolve(func.value):
                method = owner.methods.get(func.attr)
                if method is not None and method not in callees:
                    callees.append(method)
            return callees
        return []

    # -- lock identity ---------------------------------------------------

    def lock_identity(self, expr: ast.expr) -> LockId | None:
        """The lock acquired by ``with <expr>:``, if it is one."""
        if isinstance(expr, ast.Subscript):
            # with self._locks[i]: — a lock family declared in __init__.
            return self.lock_identity(expr.value)
        if isinstance(expr, ast.Attribute):
            for owner in self.resolve(expr.value):
                lock = owner.lock_id(expr.attr)
                if lock is not None:
                    return lock
            return None
        if isinstance(expr, ast.Name):
            # Function-local lock: x = threading.Lock().
            for stmt in ast.walk(self.fn.node):
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == expr.id
                ):
                    kind = _is_lock_ctor(stmt.value)
                    if kind is not None:
                        return LockId(f"<{self.fn.qualname}>", expr.id, kind)
            # Module-level lock global: _LOCK = threading.Lock() at top level.
            kind = self.fn.module.module_locks.get(expr.id)
            if kind is not None:
                return LockId(f"<{self.fn.module.relpath}>", expr.id, kind)
        return None


def iter_functions(index: ProjectIndex):
    """Every FunctionInfo in the project, classes and module level."""
    seen: set[int] = set()
    for fn in index.functions.values():
        if id(fn) not in seen:
            seen.add(id(fn))
            yield fn


def iter_nodes_with_scope(tree: ast.Module):
    """Yield ``(node, scope)`` for every node, where *scope* is the
    dotted Class.method path of the innermost enclosing definition."""

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            child_scope = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_scope = f"{scope}.{child.name}" if scope else child.name
            yield child, child_scope
            yield from visit(child, child_scope)

    yield from visit(tree, "")
