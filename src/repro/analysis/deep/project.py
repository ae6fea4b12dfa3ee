"""Whole-program model for the deep passes.

Built from the files the engine has already parsed, it holds the symbol
tables the interprocedural passes resolve against:

- per-module import/alias tables (``import x as y``, ``from m import f``,
  relative imports resolved against the module's dotted name);
- every function, method, nested function, and named lambda, keyed by a
  dotted qualname (``repro.bft.replica.Replica.handle_request``);
- every class with its resolved base-class names, ``kind`` class
  attribute and contract proof (wire messages), and inferred
  ``self.x = Cls(...)`` attribute types;
- the subclass map and a deterministic MRO walk over locally-defined
  classes.

Everything is keyed and iterated in sorted order: the passes built on
this model must produce byte-identical reports across runs.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.config import NODE_ROOT, AnalysisConfig

if TYPE_CHECKING:  # the engine builds the model, so it imports this module
    from repro.analysis.engine import FileContext

#: Builtins the resolver names explicitly (sources, sanitizers, and the
#: handful of constructors the set-inference cares about).
BUILTIN_NAMES = frozenset({
    "hash", "id", "sorted", "set", "frozenset", "list", "tuple", "dict",
    "len", "min", "max", "sum", "iter", "bool", "str", "int", "float",
    "bytes", "bytearray", "isinstance", "issubclass", "type", "range",
    "enumerate", "zip", "map", "filter", "reversed", "abs", "round",
    "any", "all", "repr", "getattr", "setattr", "hasattr", "next",
    "divmod", "pow", "ord", "chr", "super", "print", "vars", "callable",
})

#: Methods of builtin containers/strings: attribute calls with these
#: names never fall back to same-named project methods — ``d.get(k)``
#: must not grow edges to every class that happens to define ``get``.
BUILTIN_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "index",
    "count", "sort", "reverse", "copy", "get", "items", "keys", "values",
    "setdefault", "update", "popitem", "add", "discard", "union",
    "intersection", "difference", "issubset", "issuperset", "join",
    "split", "rsplit", "strip", "lstrip", "rstrip", "startswith",
    "endswith", "format", "encode", "decode", "replace", "find", "rfind",
    "lower", "upper", "hex", "to_bytes", "from_bytes", "bit_length",
    "popleft", "appendleft", "most_common", "splitlines", "partition",
    "ljust", "rjust", "zfill", "title", "casefold", "isdigit",
})


class FunctionInfo:
    """One function, method, nested def, or named lambda."""

    __slots__ = ("qualname", "name", "rel", "node", "module", "cls",
                 "params", "kwonly", "is_op", "lineno")

    def __init__(self, qualname: str, name: str, node: ast.AST,
                 module: "ModuleInfo", cls: Optional["ClassInfo"],
                 is_op: bool):
        self.qualname = qualname
        self.name = name
        self.rel = module.rel
        self.node = node
        self.module = module
        self.cls = cls
        args = node.args
        self.params: Tuple[str, ...] = tuple(
            a.arg for a in list(getattr(args, "posonlyargs", [])) + args.args)
        self.kwonly: Tuple[str, ...] = tuple(a.arg for a in args.kwonlyargs)
        self.is_op = is_op
        self.lineno = getattr(node, "lineno", 1)

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname})"


class ClassInfo:
    """One class definition with resolved bases and inferred attr types."""

    __slots__ = ("qualname", "name", "rel", "node", "module", "bases",
                 "methods", "kind", "proof", "attr_class_types", "lineno")

    def __init__(self, qualname: str, name: str, node: ast.ClassDef,
                 module: "ModuleInfo"):
        self.qualname = qualname
        self.name = name
        self.rel = module.rel
        self.node = node
        self.module = module
        self.bases: Tuple[str, ...] = ()        # resolved after load
        self.methods: Dict[str, FunctionInfo] = {}
        self.kind: Optional[str] = None         # `kind = "..."` class attr
        self.proof: Optional[str] = None    # `contract = Contract(_, MAC)`
        #: self.attr -> sorted tuple of class dotted names ever assigned
        #: via ``self.attr = Cls(...)`` in any method of this class.
        self.attr_class_types: Dict[str, Tuple[str, ...]] = {}
        self.lineno = node.lineno

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.qualname})"


class ModuleInfo:
    """One parsed source file and its module-scope symbol table."""

    __slots__ = ("rel", "modname", "tree", "imports", "functions",
                 "classes", "assigns", "ctx")

    def __init__(self, ctx: FileContext):
        self.rel = ctx.rel
        self.modname = ctx.modname
        self.tree = ctx.tree
        self.imports: Dict[str, str] = {}     # local name -> dotted origin
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.assigns: Dict[str, str] = {}     # NAME = <resolvable alias>
        #: Where findings in this module are reported.
        self.ctx = ctx


class Project:
    """All modules plus the cross-module indexes the passes query."""

    def __init__(self, config: AnalysisConfig):
        self.config = config
        self.modules: Dict[str, ModuleInfo] = {}        # by rel
        self.by_modname: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}    # by qualname
        self.classes: Dict[str, ClassInfo] = {}         # by qualname
        #: method name -> sorted tuple of method qualnames (fallback
        #: resolution for dynamic attribute calls).
        self.methods_by_name: Dict[str, Tuple[str, ...]] = {}
        #: base dotted name -> sorted tuple of direct subclass qualnames.
        self.subclasses: Dict[str, Tuple[str, ...]] = {}

    # -- name resolution -------------------------------------------------------

    def resolve_name(self, module: ModuleInfo, name: str) -> Optional[str]:
        """Module-scope resolution of a bare name to a dotted origin."""
        if name in module.classes:
            return module.classes[name].qualname
        if name in module.functions:
            return module.functions[name].qualname
        if name in module.imports:
            return module.imports[name]
        if name in module.assigns:
            return module.assigns[name]
        if name in BUILTIN_NAMES:
            return "builtins." + name
        return None

    def resolve_dotted(self, module: ModuleInfo,
                       node: ast.AST) -> Optional[str]:
        """``a.b.c`` expression -> dotted origin, module scope only."""
        parts: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        base = self.resolve_name(module, cur.id)
        if base is None:
            return None
        parts.reverse()
        return self.normalize(".".join([base] + parts))

    def normalize(self, dotted: str) -> str:
        """Rebase a dotted path through module aliases onto a definition
        qualname when one exists (``pkg.mod.Cls`` -> the real ClassInfo
        key even if reached through ``import pkg.mod as m``)."""
        if dotted in self.classes or dotted in self.functions:
            return dotted
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            module = self.by_modname.get(prefix)
            if module is None:
                continue
            tail = parts[cut:]
            resolved = self.resolve_name(module, tail[0])
            if resolved is None:
                return dotted
            rebased = ".".join([resolved] + tail[1:])
            # A name its own module defines (an inherited ``Cls.method``
            # has no definition of its own) rebases onto itself.
            return dotted if rebased == dotted else self.normalize(rebased)
        return dotted

    # -- class hierarchy -------------------------------------------------------

    def mro(self, qualname: str) -> List[ClassInfo]:
        """Deterministic left-to-right DFS linearization over project
        classes (close enough to C3 for analysis purposes)."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()

        def walk(q: str) -> None:
            cls = self.classes.get(q)
            if cls is None or q in seen:
                return
            seen.add(q)
            out.append(cls)
            for base in cls.bases:
                walk(base)

        walk(qualname)
        return out

    def is_subclass(self, qualname: str, root: str) -> bool:
        """True if ``qualname`` derives (transitively) from ``root`` —
        matching either a project class or an external dotted name."""
        if qualname == root:
            return True
        seen: Set[str] = set()
        stack = [qualname]
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            cls = self.classes.get(q)
            if cls is None:
                continue
            for base in cls.bases:
                if base == root:
                    return True
                stack.append(base)
        return False

    def family(self, qualname: str) -> List[str]:
        """Ancestors and descendants of a class, sorted — the set of
        classes an instance statically typed ``qualname`` might be."""
        out: Set[str] = {c.qualname for c in self.mro(qualname)}
        stack = [qualname]
        while stack:
            q = stack.pop()
            for sub in self.subclasses.get(q, ()):
                if sub not in out:
                    out.add(sub)
                    stack.append(sub)
        return sorted(out)

    def find_methods(self, cls_qualname: str, name: str,
                     skip_own: bool = False) -> List[FunctionInfo]:
        """All definitions of method ``name`` an instance statically
        typed ``cls_qualname`` might dispatch to (MRO plus overrides in
        descendants — conservative).  ``skip_own`` starts the MRO walk
        past the class itself (``super().name(...)`` resolution)."""
        found: Dict[str, FunctionInfo] = {}
        if skip_own:
            for cls in self.mro(cls_qualname)[1:]:
                if name in cls.methods:
                    return [cls.methods[name]]
            return []
        for q in self.family(cls_qualname):
            cls = self.classes.get(q)
            if cls is not None and name in cls.methods:
                found[cls.methods[name].qualname] = cls.methods[name]
        return [found[k] for k in sorted(found)]

    def message_classes(self, root: str) -> List[ClassInfo]:
        """Wire message classes: strict subclasses of ``root`` that
        declare a ``kind`` class attribute."""
        out = []
        for q in sorted(self.classes):
            cls = self.classes[q]
            if q != root and cls.kind is not None \
                    and self.is_subclass(q, root):
                out.append(cls)
        return out

    def handled_kind(self, info: FunctionInfo, kinds) -> Optional[str]:
        """The kind a method handles: as ``handle_<kind>`` on a protocol
        node, or ``on_<kind>`` for a kind in ``kinds`` (a replica hands
        those to the manager that runs that part of the protocol)."""
        prefix, _, kind = info.name.partition("_")
        if info.cls is not None and (prefix == "on" and kind in kinds or (
                prefix == "handle"
                and self.is_subclass(info.cls.qualname, NODE_ROOT))):
            return kind
        return None


def _decorator_is_op(dec: ast.AST) -> bool:
    """True for ``@op`` / ``@op(...)`` / ``@kernel.op(...)`` — the
    service kernel's dispatch registration."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Name):
        return target.id == "op"
    if isinstance(target, ast.Attribute):
        return target.attr == "op"
    return False


def build_project(contexts: Sequence[FileContext],
                  config: AnalysisConfig) -> Project:
    """The whole-program model of the parsed files in ``contexts``.

    A file that did not parse is left out.  When two files share a
    finding path (two scan roots each holding ``bft/replica.py``), the
    first in ``contexts`` order stands for it."""
    project = Project(config)
    for ctx in contexts:
        if ctx.tree is None or ctx.rel in project.modules:
            continue
        module = ModuleInfo(ctx)
        project.modules[ctx.rel] = module
        project.by_modname[module.modname] = module

    for rel in sorted(project.modules):
        _scan_module(project, project.modules[rel])
    for rel in sorted(project.modules):
        _resolve_module(project, project.modules[rel])
    _index_hierarchy(project)
    for rel in sorted(project.modules):
        _infer_attr_types(project, project.modules[rel])
    return project


# -- load passes ---------------------------------------------------------------

def _scan_module(project: Project, module: ModuleInfo) -> None:
    """Pass 1: imports plus every def/class, including nested ones."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.imports[alias.asname] = alias.name
                else:
                    first = alias.name.split(".", 1)[0]
                    module.imports.setdefault(first, first)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.modname.split(".")
                anchor = parts[: len(parts) - node.level] \
                    if len(parts) >= node.level else []
                base = ".".join(anchor + ([node.module]
                                          if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                origin = f"{base}.{alias.name}" if base else alias.name
                module.imports[alias.asname or alias.name] = origin

    def register_function(node, qualname: str, cls: Optional[ClassInfo],
                          top_level: bool) -> FunctionInfo:
        is_op = any(_decorator_is_op(d) for d in node.decorator_list)
        info = FunctionInfo(qualname, node.name, node, module, cls, is_op)
        project.functions[info.qualname] = info
        if cls is not None:
            cls.methods.setdefault(node.name, info)
        elif top_level:
            module.functions.setdefault(node.name, info)
        walk_body(node.body, qualname, None)
        return info

    def register_class(node: ast.ClassDef, qualname: str,
                       top_level: bool) -> None:
        cls = ClassInfo(qualname, node.name, node, module)
        project.classes[qualname] = cls
        if top_level:
            module.classes.setdefault(node.name, cls)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                register_function(stmt, f"{qualname}.{stmt.name}", cls,
                                  False)
            elif isinstance(stmt, ast.ClassDef):
                register_class(stmt, f"{qualname}.{stmt.name}", False)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                if name == "kind" and isinstance(stmt.value, ast.Constant) \
                        and isinstance(stmt.value.value, str):
                    cls.kind = stmt.value.value
                elif name == "contract" and isinstance(stmt.value, ast.Call) \
                        and len(stmt.value.args) > 1:
                    cls.proof = ast.unparse(stmt.value.args[1])

    def walk_body(body, prefix: str, cls: Optional[ClassInfo]) -> None:
        """Register nested defs/classes under ``prefix`` (no dispatch
        semantics — just graph nodes reachable from the enclosing
        function's body analysis)."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                register_function(stmt, f"{prefix}.{stmt.name}", None,
                                  False)
            elif isinstance(stmt, ast.ClassDef):
                register_class(stmt, f"{prefix}.{stmt.name}", False)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, (ast.stmt,)):
                        walk_body([child], prefix, cls)

    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            register_function(stmt, f"{module.modname}.{stmt.name}", None,
                              True)
        elif isinstance(stmt, ast.ClassDef):
            register_class(stmt, f"{module.modname}.{stmt.name}", True)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, (ast.Name, ast.Attribute)):
            # Module-level alias: CANON = canonical  /  Msg = messages.Req
            target = stmt.targets[0].id
            module.assigns[target] = ast.unparse(stmt.value)

    # Second pass over aliases now that local defs are known.
    for name in sorted(module.assigns):
        expr = module.assigns[name]
        parts = expr.split(".")
        base = project.resolve_name(module, parts[0]) \
            if parts[0] not in module.assigns else None
        if base is None:
            del module.assigns[name]
        else:
            module.assigns[name] = ".".join([base] + parts[1:])


def _resolve_module(project: Project, module: ModuleInfo) -> None:
    """Pass 2: resolve class bases (needs every module's pass 1)."""
    for name in sorted(module.classes):
        cls = module.classes[name]
        bases = []
        for base in cls.node.bases:
            dotted = project.resolve_dotted(module, base)
            if dotted is not None:
                bases.append(dotted)
        cls.bases = tuple(bases)
    # Nested classes got qualnames but not module.classes entries;
    # resolve their bases too.
    for qualname in sorted(project.classes):
        cls = project.classes[qualname]
        if cls.module is module and not cls.bases and cls.node.bases:
            bases = []
            for base in cls.node.bases:
                dotted = project.resolve_dotted(module, base)
                if dotted is not None:
                    bases.append(dotted)
            cls.bases = tuple(bases)


def _index_hierarchy(project: Project) -> None:
    subs: Dict[str, Set[str]] = {}
    for qualname in sorted(project.classes):
        for base in project.classes[qualname].bases:
            subs.setdefault(base, set()).add(qualname)
    project.subclasses = {base: tuple(sorted(qs))
                          for base, qs in sorted(subs.items())}
    methods: Dict[str, Set[str]] = {}
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        if info.cls is not None:
            methods.setdefault(info.name, set()).add(qualname)
    project.methods_by_name = {name: tuple(sorted(qs))
                               for name, qs in sorted(methods.items())}


def _infer_attr_types(project: Project, module: ModuleInfo) -> None:
    """Pass 3: ``self.x = Cls(...)`` attribute-type inference."""
    for qualname in sorted(project.classes):
        cls = project.classes[qualname]
        if cls.module is not module:
            continue
        types: Dict[str, Set[str]] = {}
        for mname in sorted(cls.methods):
            for node in ast.walk(cls.methods[mname].node):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if not (isinstance(value, ast.Call)
                        and isinstance(value.func,
                                       (ast.Name, ast.Attribute))):
                    continue
                dotted = project.resolve_dotted(module, value.func)
                if dotted is None or dotted not in project.classes:
                    if dotted is None or "." not in dotted:
                        continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        types.setdefault(target.attr, set()).add(dotted)
        cls.attr_class_types = {attr: tuple(sorted(vals))
                                for attr, vals in sorted(types.items())}
