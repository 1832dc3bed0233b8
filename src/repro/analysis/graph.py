"""Project-wide semantic model: import graph, symbol tables, call graph.

``SemanticModel.build`` turns a parsed :class:`~repro.analysis.visitor.
Project` into a queryable model of the package:

* **modules** — one :class:`ModuleInfo` per file, with its dotted name,
  resolved imports (``local alias -> dotted target``), top-level
  functions/classes, module-level mutable globals, and enum classes;
* **import graph** — which project modules each module imports
  (``imports_of`` / ``importers_of``);
* **call graph** — an approximate, static function-level graph: direct
  calls, ``from``-imported calls, ``module.function`` calls, ``self``
  method calls, constructor calls, and method calls through locals whose
  class was inferred from a constructor assignment.  Dynamic dispatch
  (callbacks, factories, ``getattr``) is *not* resolved — the graph
  under-approximates, which is the safe direction for the reachability
  queries the RACE rules run (a hazard inside an unresolvable callback
  is missed, never invented).

The model is built once per analysis run and cached on the project
(:meth:`Project.semantic`), so every rule family shares one build.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.visitor import Project, SourceFile

#: builtin constructors whose results are mutable containers
MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "deque",
        "defaultdict",
        "Counter",
        "OrderedDict",
    }
)

#: base-class names that make a ClassDef an enumeration
ENUM_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"})

#: executor/pool methods whose first argument runs in another process
SUBMIT_METHODS = frozenset(
    {"submit", "map", "apply", "apply_async", "imap", "imap_unordered", "starmap"}
)

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(frozen=True)
class MutableGlobal:
    """One module-level name bound to a known-mutable object."""

    name: str
    line: int
    kind: str  # e.g. "dict literal", "list literal", "Foo() instance"


@dataclass
class ModuleInfo:
    """Symbol table of one project module."""

    rel: str
    name: str  # dotted module name, e.g. "repro.sim.parallel"
    source: SourceFile
    #: local alias -> dotted target; ``from a.b import c as d`` maps
    #: ``d -> a.b.c``; ``import a.b as x`` maps ``x -> a.b``
    imports: dict[str, str] = field(default_factory=dict)
    #: "f" and "Class.method" -> def node
    functions: dict[str, FunctionNode] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    mutable_globals: dict[str, MutableGlobal] = field(default_factory=dict)
    #: local function names invoked (or used as decorators) at module
    #: scope — the import-time registration pattern
    module_level_called: set[str] = field(default_factory=set)
    #: class names that subclass an enum base
    enums: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class WorkerEntry:
    """One function that runs in another process.

    Handed to an executor's submit-like method, or as ``target=`` to a
    ``Process``.
    """

    target: str  # qualname of the submitted function
    submitter: str  # qualname of the function containing the submit call
    rel: str
    line: int
    call: ast.Call
    submitter_node: FunctionNode
    #: the argument expressions that cross the boundary with ``target``
    args: tuple[ast.expr, ...] = ()


def _module_name(package: str, rel: str) -> str:
    parts = rel[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package


def _is_package(rel: str) -> bool:
    return rel.endswith("__init__.py")


def _relative_base(modname: str, rel: str, level: int) -> str:
    """The dotted package a level-``level`` relative import resolves in."""
    parts = modname.split(".")
    if not _is_package(rel):
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[: -drop or None]
    return ".".join(parts)


def _import_bindings(
    stmt: ast.Import | ast.ImportFrom, info: ModuleInfo
) -> dict[str, str]:
    """Local alias -> dotted target for one import statement."""
    out: dict[str, str] = {}
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            local = alias.asname or alias.name.split(".")[0]
            out[local] = alias.name if alias.asname else alias.name.split(".")[0]
        return out
    base = (
        _relative_base(info.name, info.rel, stmt.level)
        if stmt.level
        else (stmt.module or "")
    )
    if stmt.level and stmt.module:
        base = f"{base}.{stmt.module}" if base else stmt.module
    for alias in stmt.names:
        if alias.name != "*":
            out[alias.asname or alias.name] = (
                f"{base}.{alias.name}" if base else alias.name
            )
    return out


def _mutable_kind(value: ast.expr, info: ModuleInfo) -> str | None:
    """Why a module-level value is mutable, or None if it is not known to be."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list literal"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict literal"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set literal"
    if isinstance(value, ast.Call):
        func = value.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in MUTABLE_CONSTRUCTORS:
            return f"{name}() container"
        if name is not None and (
            name in info.classes or _imports_project_class(name, info)
        ):
            return f"{name}() instance"
    return None


def _imports_project_class(name: str, info: ModuleInfo) -> bool:
    # cheap syntactic check: an imported CapWord is assumed to be a class
    # (verified against the target module later when the model resolves)
    return name in info.imports and name[:1].isupper()


class SemanticModel:
    """Queryable project-wide view: modules, imports, calls, reachability."""

    def __init__(self, project: Project, package: str):
        self.project = project
        self.package = package
        self.modules: dict[str, ModuleInfo] = {}
        self.by_rel: dict[str, ModuleInfo] = {}
        #: function qualname ("mod.f" / "mod.Class.m") -> (module, node)
        self.functions: dict[str, tuple[ModuleInfo, FunctionNode]] = {}
        #: caller qualname -> callee qualnames
        self.call_graph: dict[str, set[str]] = {}
        self._import_edges: dict[str, set[str]] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, project: Project) -> "SemanticModel":
        model = cls(project, package=project.root.name)
        for rel in sorted(project.files):
            info = model._build_module(project.files[rel])
            model.modules[info.name] = info
            model.by_rel[rel] = info
        for info in model.modules.values():
            model._index_functions(info)
        for info in model.modules.values():
            model._import_edges[info.name] = model.imports_of(info.name)
        for qualname, (info, node) in sorted(model.functions.items()):
            model.call_graph[qualname] = model._callees(qualname, info, node)
        return model

    def _build_module(self, source: SourceFile) -> ModuleInfo:
        info = ModuleInfo(
            rel=source.rel,
            name=_module_name(self.package, source.rel),
            source=source,
        )
        for stmt in source.tree.body:
            self._collect_stmt(stmt, info)
        # second pass: module-scope calls and decorators (registration)
        for stmt in source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in stmt.decorator_list:
                    self._note_module_call(deco, info)
                continue
            if isinstance(stmt, ast.ClassDef):
                for deco in stmt.decorator_list:
                    self._note_module_call(deco, info)
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    self._note_module_call(node.func, info)
        return info

    def _collect_stmt(self, stmt: ast.stmt, info: ModuleInfo) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            info.imports.update(_import_bindings(stmt, info))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            info.classes[stmt.name] = stmt
            bases = {
                b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
                for b in stmt.bases
            }
            if bases & ENUM_BASES:
                info.enums.add(stmt.name)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.functions[f"{stmt.name}.{sub.name}"] = sub
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if value is None:
                return
            kind = _mutable_kind(value, info)
            if kind is None:
                return
            for target in targets:
                if isinstance(target, ast.Name):
                    info.mutable_globals[target.id] = MutableGlobal(
                        name=target.id, line=stmt.lineno, kind=kind
                    )
        elif isinstance(stmt, (ast.If, ast.Try)):
            # TYPE_CHECKING blocks, guarded imports
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._collect_stmt(sub, info)

    def _note_module_call(self, func: ast.expr, info: ModuleInfo) -> None:
        if isinstance(func, ast.Name) and func.id in info.functions:
            info.module_level_called.add(func.id)

    def _index_functions(self, info: ModuleInfo) -> None:
        for local, node in info.functions.items():
            self.functions[f"{info.name}.{local}"] = (info, node)

    # -- resolution -----------------------------------------------------

    def _owning_module(self, dotted: str) -> str:
        """The longest project-module prefix of a dotted import target."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return ""

    def _normalize_target(self, dotted: str) -> tuple[str, str]:
        """``(owner module, normalized dotted)`` for an import target.

        Tries the target as written, then package-prefixed — a tree
        whose root sits on ``sys.path`` imports its own modules without
        the package name (fixture packages, scripts).
        """
        owner = self._owning_module(dotted)
        if owner:
            return owner, dotted
        if not dotted.startswith(self.package + "."):
            prefixed = f"{self.package}.{dotted}"
            owner = self._owning_module(prefixed)
            if owner:
                return owner, prefixed
        return "", dotted

    def resolve(
        self,
        info: ModuleInfo,
        dotted: str,
        local_imports: dict[str, str] | None = None,
    ) -> tuple[str, str, "ModuleInfo | None"]:
        """Resolve a dotted name used in ``info`` against the project.

        ``local_imports`` are the bindings of imports made inside the
        function the name appears in; they shadow module-level ones.
        Returns ``(kind, qualname, target_module)`` where kind is one of
        ``"function"``, ``"class"``, ``"module"`` or ``""`` (unresolved).
        """
        head, _, rest = dotted.partition(".")
        target = (local_imports or {}).get(head) or info.imports.get(head)
        if target is None:
            # a name defined in this module itself
            if dotted in info.functions:
                return "function", f"{info.name}.{dotted}", info
            if head in info.classes:
                return "class", f"{info.name}.{head}", info
            return "", "", None
        full = f"{target}.{rest}" if rest else target
        owner, full = self._normalize_target(full)
        if not owner:
            return "", "", None
        owner_info = self.modules[owner]
        symbol = full[len(owner) + 1 :] if len(full) > len(owner) else ""
        if not symbol:
            return "module", owner, owner_info
        if symbol in owner_info.functions:
            return "function", f"{owner}.{symbol}", owner_info
        if symbol.split(".")[0] in owner_info.classes:
            return "class", f"{owner}.{symbol.split('.')[0]}", owner_info
        return "", "", owner_info

    # -- import graph ---------------------------------------------------

    def imports_of(self, modname: str) -> set[str]:
        """Project modules ``modname`` imports (directly)."""
        info = self.modules.get(modname)
        if info is None:
            return set()
        out: set[str] = set()
        for target in info.imports.values():
            owner, _ = self._normalize_target(target)
            if owner and owner != modname:
                out.add(owner)
        return out

    def importers_of(self, modname: str) -> set[str]:
        """Project modules that import ``modname`` (directly)."""
        return {
            name
            for name, deps in self._import_edges.items()
            if modname in deps
        }

    # -- call graph -----------------------------------------------------

    def _callees(
        self, qualname: str, info: ModuleInfo, node: FunctionNode
    ) -> set[str]:
        out: set[str] = set()
        class_name = (
            qualname[len(info.name) + 1 :].rsplit(".", 1)[0]
            if "." in qualname[len(info.name) + 1 :]
            else ""
        )
        local_types = self._local_class_types(info, node)
        # lazy imports inside the function (cycle breakers) bind names too
        local_imports: dict[str, str] = {}
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                local_imports.update(_import_bindings(sub, info))
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Name):
                kind, target, target_info = self.resolve(
                    info, func.id, local_imports
                )
                if kind == "function":
                    out.add(target)
                elif kind == "class" and target_info is not None:
                    self._add_constructor(target, target_info, out)
            elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                base, attr = func.value.id, func.attr
                if base == "self" and class_name:
                    if f"{class_name}.{attr}" in info.functions:
                        out.add(f"{info.name}.{class_name}.{attr}")
                    continue
                if base in local_types:
                    cls_qual = local_types[base]
                    if f"{cls_qual}.{attr}" in self.functions:
                        out.add(f"{cls_qual}.{attr}")
                    continue
                kind, target, target_info = self.resolve(
                    info, f"{base}.{attr}", local_imports
                )
                if kind == "function":
                    out.add(target)
                elif kind == "class" and target_info is not None:
                    self._add_constructor(target, target_info, out)
        return out

    def _add_constructor(
        self, class_qual: str, target_info: ModuleInfo, out: set[str]
    ) -> None:
        local = class_qual[len(target_info.name) + 1 :]
        ctor = f"{local}.__init__"
        if ctor in target_info.functions:
            out.add(f"{target_info.name}.{ctor}")

    def _local_class_types(
        self, info: ModuleInfo, node: FunctionNode
    ) -> dict[str, str]:
        """Locals assigned from a resolved constructor call -> class qualname."""
        types: dict[str, str] = {}
        for sub in ast.walk(node):
            if not (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Call)
            ):
                continue
            func = sub.value.func
            dotted = None
            if isinstance(func, ast.Name):
                dotted = func.id
            elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                dotted = f"{func.value.id}.{func.attr}"
            if dotted is None:
                continue
            kind, target, _ = self.resolve(info, dotted)
            if kind == "class":
                types[sub.targets[0].id] = target
        return types

    def callees(self, qualname: str) -> set[str]:
        return self.call_graph.get(qualname, set())

    def reachable(self, entries: Iterable[str]) -> set[str]:
        """Transitive closure of the call graph from ``entries``."""
        seen: set[str] = set()
        stack = [e for e in entries if e in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.call_graph.get(current, ()))
        return seen

    # -- worker entries -------------------------------------------------

    def worker_entries(self) -> list[WorkerEntry]:
        """Every function that runs in another process.

        Detected syntactically: ``anything.submit(fn, ...)`` (and the
        ``map``/``apply_async`` family), and ``Process(target=fn,
        args=(...))`` (bare, or as ``ctx.Process``), where ``fn``
        resolves to a project function.  The receiver is not
        type-checked — any object with a ``submit`` method is treated as
        an executor, which errs towards auditing more code, never less.
        """
        out: list[WorkerEntry] = []
        for modname in sorted(self.modules):
            info = self.modules[modname]
            for local, fn_node in sorted(info.functions.items()):
                for sub in ast.walk(fn_node):
                    if not isinstance(sub, ast.Call):
                        continue
                    entry = _entry_call(sub)
                    if entry is None:
                        continue
                    first, args = entry
                    dotted = None
                    if isinstance(first, ast.Name):
                        dotted = first.id
                    elif isinstance(first, ast.Attribute) and isinstance(
                        first.value, ast.Name
                    ):
                        dotted = f"{first.value.id}.{first.attr}"
                    if dotted is None:
                        continue
                    kind, target, _ = self.resolve(info, dotted)
                    if kind != "function":
                        continue
                    out.append(
                        WorkerEntry(
                            target=target,
                            submitter=f"{modname}.{local}",
                            rel=info.rel,
                            line=sub.lineno,
                            call=sub,
                            submitter_node=fn_node,
                            args=args,
                        )
                    )
        return out


def _entry_call(
    call: ast.Call,
) -> tuple[ast.expr, tuple[ast.expr, ...]] | None:
    """``(function expr, argument exprs)`` if ``call`` starts a worker."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in SUBMIT_METHODS and call.args:
        return call.args[0], tuple(call.args[1:])
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != "Process":
        return None
    keywords = {kw.arg: kw.value for kw in call.keywords}
    if "target" not in keywords:
        return None
    args = keywords.get("args")
    elts = tuple(args.elts) if isinstance(args, (ast.Tuple, ast.List)) else ()
    return keywords["target"], elts
