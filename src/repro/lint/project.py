"""Whole-program module index for the graph-powered lint rules.

The per-file rules (REP001-REP006) see one ``ast.Module`` at a time;
the project rules (REP007-REP009 and interprocedural REP002, see
:mod:`repro.lint.graph_rules`) need the *relationships between* files:
who imports whom, who calls whom, and which functions are reachable
from which engine entry points.  This module builds that picture:

* :func:`summarize_module` — a pure function from one file's source to
  a JSON-serializable :class:`ModuleSummary` dict: imports (with line
  numbers), class declarations (bases, attribute types, methods) and a
  per-function digest of call sites, shared-RNG draws, nondeterminism
  sources, ``PhaseEvent`` emissions, ``plan_delivery*`` calls and
  sanitizer hooks.  Pure means cacheable: the engine keys summaries by
  content hash (:class:`LintCache`) so warm runs skip parsing entirely.
* :class:`ProjectIndex` — links the summaries: resolves import edges,
  builds the class hierarchy (bases, subclasses, MRO) and resolves call
  sites into call-graph edges, then answers reachability queries.

Call resolution is deliberately *context-aware* for ``self`` dispatch:
a reachability item is ``(function, context_class)`` and ``self.m()``
resolves through the context class's MRO only — never through sibling
subclasses.  That is what keeps the object-engine path and the
array-engine path distinct even though ``ArraySteppedEngine`` inherits
most of its machinery from ``SimulationEngine``: walking
``SimulationEngine.run`` with context ``SimulationEngine`` does not
leak into ``ArraySteppedEngine`` overrides, and vice versa.  Calls
through a *declared-typed* attribute (``self.network: Network``) are
virtual: they dispatch to the declared class's MRO hit *and* every
subclass override, each with the override's own class as new context.
``super().m()`` resolves through the defining class's MRO tail with
the context preserved.

The type inference feeding typed dispatch is local and flow-
insensitive: parameter annotations, ``self`` attribute types collected
from ``__init__``/``AnnAssign`` assignments, container element types
(``list[T]``, ``dict[K, V]``, ``x.values()``, ``x.items()``,
subscripts) and simple assignment propagation.  Unresolvable calls are
dropped (under-approximation) — the rules built on top are curated so
the chains they need are resolvable on this codebase, and the fixture
corpus pins that they stay so.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Iterator

from repro.lint.rules import ImportMap, WallClockRule, _path_segments

__all__ = [
    "ModuleSummary",
    "LintCache",
    "ProjectIndex",
    "module_name_for",
    "summarize_module",
    "source_hash",
]

#: A module summary is a plain JSON-serializable dict (cacheable).
ModuleSummary = dict

#: RNG draw methods on numpy ``Generator`` streams (REP008 detection).
_DRAW_METHODS = frozenset({
    "random", "integers", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "geometric", "exponential", "poisson",
    "binomial", "lognormal", "gamma", "beta", "bytes",
})

#: Runtime-sanitizer hooks whose presence must be engine-path paired.
_SANITIZE_HOOKS = frozenset({
    "SCREEN", "check_compose", "check_phase_bump", "composing",
})

#: ``Network`` delivery-planning entry points (REP009 pairing).
_PLAN_CALLS = frozenset({"plan_delivery", "plan_delivery_block"})

#: Registry feed points (repro.obs.metrics): an engine path that
#: reaches one must be matched by the other engine path (REP009).
_METRIC_SITES = frozenset({"observe_phase_event"})

#: Containers whose subscript/iteration yields their element type.
_SEQ_NAMES = frozenset({
    "list", "tuple", "set", "frozenset", "sequence", "iterable",
    "iterator", "deque",
})
_MAP_NAMES = frozenset({"dict", "mapping", "mutablemapping", "defaultdict"})


def source_hash(source: str) -> str:
    """Content hash keying the on-disk cache (algorithm-prefixed)."""
    return "sha256:" + hashlib.sha256(source.encode("utf-8")).hexdigest()


def module_name_for(path: Path, base: Path) -> str:
    """Dotted module name of ``path`` as the index will know it.

    Files inside a ``repro`` package are anchored there
    (``src/repro/sim/engine.py`` -> ``repro.sim.engine``) so names match
    real import targets; anything else (the fixture corpus) is named
    relative to the lint invocation root (``tests/lint_corpus/sim/
    engine.py`` linted as ``tests/lint_corpus`` -> ``sim.engine``).
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[anchor:]
    else:
        try:
            rel = path.relative_to(base if base.is_dir() else base.parent)
        except ValueError:
            rel = Path(path.name)
        dotted = list(rel.parts)
        if dotted and dotted[-1].endswith(".py"):
            dotted[-1] = dotted[-1][: -len(".py")]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted) or path.stem


# ---------------------------------------------------------------------------
# type references (plain dicts so summaries stay JSON-serializable)
# ---------------------------------------------------------------------------

def _cls(name: str) -> dict:
    return {"kind": "cls", "name": name}


def _type_from_annotation(
    node: ast.expr | None, resolver: "_Resolver"
) -> dict | None:
    """A TypeRef dict for an annotation expression, or None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return _type_from_annotation(parsed, resolver)
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = resolver.dotted(node)
        if dotted is None or dotted in ("None", "builtins.None"):
            return None
        return _cls(dotted)
    if isinstance(node, ast.Subscript):
        base = resolver.dotted(node.value)
        base_last = (base or "").rsplit(".", 1)[-1].lower()
        slice_node = node.slice
        elements = (
            list(slice_node.elts)
            if isinstance(slice_node, ast.Tuple)
            else [slice_node]
        )
        if base_last in _SEQ_NAMES:
            item = _type_from_annotation(elements[0], resolver)
            return {"kind": "list", "item": item} if item else None
        if base_last in _MAP_NAMES and len(elements) >= 2:
            key = _type_from_annotation(elements[0], resolver)
            value = _type_from_annotation(elements[1], resolver)
            return {"kind": "dict", "key": key, "value": value}
        if base_last == "optional":
            return _type_from_annotation(elements[0], resolver)
        if base_last in ("union", "classvar", "final", "annotated"):
            for element in elements:
                inner = _type_from_annotation(element, resolver)
                if inner is not None:
                    return inner
            return None
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (
            _type_from_annotation(node.left, resolver)
            or _type_from_annotation(node.right, resolver)
        )
    return None


class _Resolver:
    """Name resolution for one module: imports + local definitions."""

    def __init__(self, module: str, tree: ast.Module):
        self.module = module
        self.imports = ImportMap(tree)
        self.local_classes = {
            n.name for n in tree.body if isinstance(n, ast.ClassDef)
        }
        self.local_functions = {
            n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def dotted(self, node: ast.expr) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or None."""
        full = self.imports.resolve(node)
        if full is not None:
            return full
        if isinstance(node, ast.Name):
            if node.id in self.local_classes or (
                node.id in self.local_functions
            ):
                return f"{self.module}.{node.id}"
            return node.id
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None


# ---------------------------------------------------------------------------
# per-function digest
# ---------------------------------------------------------------------------

class _FunctionWalker:
    """One pass over a function body collecting the summary facts.

    Tracks a *conditional depth*: draws recorded at depth > 0 sit on a
    branch (``if``/``while``/ternary/``except``/comprehension filter)
    and therefore make the function's draw count on that stream
    control-dependent — the REP008 signal.  Plain ``for`` bodies do not
    bump the depth: per-member loops over fixed membership are the
    codebase's bread and butter and their counts are config-determined.
    """

    def __init__(
        self,
        resolver: _Resolver,
        env: dict[str, dict],
        self_attrs: dict[str, dict] | None,
    ):
        self.resolver = resolver
        self.env = env
        self.self_attrs = self_attrs or {}
        self.calls: list[dict] = []
        self.draws: list[dict] = []
        self.banned: list[dict] = []
        self.phase_emits: list[dict] = []
        self.plan_calls: list[dict] = []
        self.sanitize_hooks: list[dict] = []
        self.oracle_calls: list[dict] = []
        self.metric_calls: list[dict] = []

    # -- driving --------------------------------------------------------
    def walk_body(self, body: list[ast.stmt], depth: int) -> None:
        for stmt in body:
            self._stmt(stmt, depth)

    def _stmt(self, stmt: ast.stmt, depth: int) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are folded into the parent: their facts belong
            # to whoever can execute them.
            self.walk_body(stmt.body, depth)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test, depth)
            self.walk_body(stmt.body, depth + 1)
            self.walk_body(stmt.orelse, depth + 1)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test, depth + 1)
            self.walk_body(stmt.body, depth + 1)
            self.walk_body(stmt.orelse, depth + 1)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter, depth)
            self._bind_for_target(stmt.target, stmt.iter)
            self.walk_body(stmt.body, depth)
            self.walk_body(stmt.orelse, depth)
        elif isinstance(stmt, ast.Try):
            self.walk_body(stmt.body, depth)
            for handler in stmt.handlers:
                self.walk_body(handler.body, depth + 1)
            self.walk_body(stmt.orelse, depth)
            self.walk_body(stmt.finalbody, depth)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._expr(item.context_expr, depth)
            self.walk_body(stmt.body, depth)
        elif isinstance(stmt, ast.Assign):
            self._expr(stmt.value, depth)
            inferred = self._infer(stmt.value)
            for target in stmt.targets:
                self._bind(target, inferred)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value, depth)
            annotated = _type_from_annotation(
                stmt.annotation, self.resolver
            )
            self._bind(stmt.target, annotated)
        elif isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value, depth)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value, depth)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value, depth)
        elif isinstance(stmt, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, depth)
        elif hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            self._expr(stmt.subject, depth)
            for case in stmt.cases:
                if case.guard is not None:
                    self._expr(case.guard, depth + 1)
                self.walk_body(case.body, depth + 1)
        # imports, global/nonlocal, pass, break, continue: nothing to do

    # -- binding --------------------------------------------------------
    def _bind(self, target: ast.expr, type_ref: dict | None) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = type_ref
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, None)
        # self.x = ... targets are collected by the class-attr pass

    def _bind_for_target(self, target: ast.expr, iterable: ast.expr):
        iter_type = self._infer(iterable)
        element = _element_type(iter_type)
        if isinstance(target, ast.Name):
            self.env[target.id] = element
        elif isinstance(target, (ast.Tuple, ast.List)) and (
            element is not None and element.get("kind") == "pair"
        ):
            parts = (element.get("first"), element.get("second"))
            for sub_target, sub_type in zip(target.elts, parts):
                if isinstance(sub_target, ast.Name):
                    self.env[sub_target.id] = sub_type
        elif isinstance(target, (ast.Tuple, ast.List)):
            for sub_target in target.elts:
                self._bind(sub_target, None)

    # -- expressions ----------------------------------------------------
    def _expr(self, node: ast.expr, depth: int) -> None:
        if isinstance(node, ast.Call):
            self._call(node, depth)
            return
        if isinstance(node, ast.Attribute):
            self._attribute_site(node)
            self._expr(node.value, depth)
            return
        if isinstance(node, ast.Name):
            self._name_site(node)
            return
        if isinstance(node, ast.IfExp):
            self._expr(node.test, depth)
            self._expr(node.body, depth + 1)
            self._expr(node.orelse, depth + 1)
            return
        if isinstance(node, ast.BoolOp):
            self._expr(node.values[0], depth)
            for value in node.values[1:]:
                self._expr(value, depth + 1)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            guarded = 0
            for comp in node.generators:
                self._expr(comp.iter, depth)
                self._bind_for_target(comp.target, comp.iter)
                for condition in comp.ifs:
                    self._expr(condition, depth)
                guarded += len(comp.ifs)
            body_depth = depth + 1 if guarded else depth
            if isinstance(node, ast.DictComp):
                self._expr(node.key, body_depth)
                self._expr(node.value, body_depth)
            else:
                self._expr(node.elt, body_depth)
            return
        if isinstance(node, ast.Lambda):
            self._expr(node.body, depth)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, depth)

    def _attribute_site(self, node: ast.Attribute) -> None:
        if node.attr in _SANITIZE_HOOKS:
            self.sanitize_hooks.append(
                {"name": node.attr, "line": node.lineno}
            )
        if self.resolver.imports.resolve(node) == "os.environ":
            self.banned.append({"name": "os.environ", "line": node.lineno})

    def _name_site(self, node: ast.Name) -> None:
        full = self.resolver.imports.resolve(node)
        if full is not None and full.rsplit(".", 1)[-1] in _SANITIZE_HOOKS:
            self.sanitize_hooks.append(
                {"name": full.rsplit(".", 1)[-1], "line": node.lineno}
            )

    @staticmethod
    def _const_kinds(node: ast.expr) -> list[str]:
        """Constant string value(s) of an expression (IfExp = both arms)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.IfExp):
            arms = (
                _FunctionWalker._const_kinds(node.body)
                + _FunctionWalker._const_kinds(node.orelse)
            )
            return arms if len(arms) == 2 else []
        return []

    def _call(self, node: ast.Call, depth: int) -> None:
        func = node.func
        # 0. the callee expression is itself a hook/environ site
        if isinstance(func, ast.Attribute):
            self._attribute_site(func)
        elif isinstance(func, ast.Name):
            self._name_site(func)
        # 1. nondeterminism sources (interprocedural REP002 seeds)
        full = self.resolver.imports.resolve(func)
        if full is not None and (
            full in WallClockRule._BANNED_CALLS
            or full.startswith(WallClockRule._BANNED_PREFIXES)
        ):
            self.banned.append({"name": full, "line": node.lineno})
        # 2. shared-stream draws (REP008)
        if isinstance(func, ast.Attribute) and func.attr in _DRAW_METHODS:
            receiver = self._infer(func.value)
            if receiver is not None and receiver.get("kind") == "stream":
                if receiver.get("shared"):
                    self.draws.append({
                        "stream": receiver.get("name"),
                        "line": node.lineno,
                        "method": func.attr,
                        "conditional": depth > 0,
                    })
        # 3. PhaseEvent emissions (REP009)
        callee_dotted = self.resolver.dotted(func)
        if (
            callee_dotted is not None
            and callee_dotted.rsplit(".", 1)[-1] == "PhaseEvent"
            and node.args
        ):
            for kind in self._const_kinds(node.args[0]):
                self.phase_emits.append(
                    {"kind": kind, "line": node.lineno}
                )
        # 4. delivery-planning calls (REP009)
        if isinstance(func, ast.Attribute) and func.attr in _PLAN_CALLS:
            self.plan_calls.append(
                {"name": func.attr, "line": node.lineno}
            )
        # 4b. liveness-oracle consultations (REP010)
        if isinstance(func, ast.Attribute) and func.attr == "is_alive":
            self.oracle_calls.append({"line": node.lineno})
        # 4c. metrics-registry feed points (REP009)
        metric_name = None
        if isinstance(func, ast.Attribute) and func.attr in _METRIC_SITES:
            metric_name = func.attr
        elif isinstance(func, ast.Name) and func.id in _METRIC_SITES:
            metric_name = func.id
        if metric_name is not None:
            self.metric_calls.append(
                {"name": metric_name, "line": node.lineno}
            )
        # 5. the call-graph edge itself
        ref = self._call_ref(node)
        if ref is not None:
            self.calls.append(ref)
        # 6. recurse (receiver expression, arguments)
        if isinstance(func, ast.Attribute):
            self._expr(func.value, depth)
        for argument in node.args:
            self._expr(argument, depth)
        for keyword in node.keywords:
            self._expr(keyword.value, depth)

    def _call_ref(self, node: ast.Call) -> dict | None:
        func = node.func
        line = node.lineno
        if isinstance(func, ast.Name):
            dotted = self.resolver.dotted(func)
            if dotted is not None and "." in dotted:
                return {"kind": "name", "name": dotted, "line": line}
            return None
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == "self":
                return {"kind": "self", "method": func.attr, "line": line}
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "super"
            ):
                return {"kind": "super", "method": func.attr, "line": line}
            if (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                # ``self.attr.m()``: resolved at link time through the
                # context class's MRO so inherited attributes work.
                return {
                    "kind": "selfattr",
                    "attr": value.attr,
                    "method": func.attr,
                    "line": line,
                }
            receiver = self._infer(value)
            if receiver is not None and receiver.get("kind") == "cls":
                return {
                    "kind": "typed",
                    "type": receiver["name"],
                    "method": func.attr,
                    "line": line,
                }
            dotted = self.resolver.imports.resolve(func)
            if dotted is not None:
                return {"kind": "name", "name": dotted, "line": line}
        return None

    # -- local type inference -------------------------------------------
    def _infer(self, node: ast.expr) -> dict | None:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self.self_attrs.get(node.attr)
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.Subscript):
            base = self._infer(node.value)
            if base is None:
                return None
            if base.get("kind") == "list":
                return base.get("item")
            if base.get("kind") == "dict":
                return base.get("value")
            return None
        if isinstance(node, ast.IfExp):
            return self._infer(node.body) or self._infer(node.orelse)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                inferred = self._infer(value)
                if inferred is not None:
                    return inferred
        if isinstance(node, ast.Await):
            return self._infer(node.value)
        return None

    def _infer_call(self, node: ast.Call) -> dict | None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "stream":
                shared = all(
                    isinstance(argument, ast.Constant)
                    for argument in node.args
                ) and not node.keywords
                name = (
                    ".".join(
                        str(argument.value) for argument in node.args
                    )
                    if shared else None
                )
                return {"kind": "stream", "name": name, "shared": shared}
            receiver = self._infer(func.value)
            if receiver is not None and receiver.get("kind") == "dict":
                if func.attr == "get":
                    return receiver.get("value")
                if func.attr == "values":
                    return {"kind": "list", "item": receiver.get("value")}
                if func.attr == "keys":
                    return {"kind": "list", "item": receiver.get("key")}
                if func.attr == "items":
                    return {
                        "kind": "list",
                        "item": {
                            "kind": "pair",
                            "first": receiver.get("key"),
                            "second": receiver.get("value"),
                        },
                    }
            if receiver is not None and func.attr == "copy":
                return receiver
            return None
        if isinstance(func, ast.Name) and func.id in (
            "sorted", "list", "tuple", "reversed"
        ) and node.args:
            inner = self._infer(node.args[0])
            element = _element_type(inner)
            if element is not None:
                return {"kind": "list", "item": element}
            return None
        dotted = self.resolver.dotted(func)
        if dotted is None:
            return None
        last = dotted.rsplit(".", 1)[-1]
        if last[:1].isupper():
            # Constructor by convention; link-time decides whether the
            # dotted name is actually a known class.
            return _cls(dotted)
        return None


def _element_type(type_ref: dict | None) -> dict | None:
    if type_ref is None:
        return None
    if type_ref.get("kind") == "list":
        return type_ref.get("item")
    if type_ref.get("kind") == "dict":
        return type_ref.get("key")
    return None


# ---------------------------------------------------------------------------
# module summarization
# ---------------------------------------------------------------------------

def _param_env(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
    resolver: _Resolver,
    own_class: str | None,
) -> dict[str, dict]:
    env: dict[str, dict] = {}
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    for argument in positional + arguments.kwonlyargs:
        annotated = _type_from_annotation(argument.annotation, resolver)
        if annotated is not None:
            env[argument.arg] = annotated
    if own_class is not None and positional:
        env[positional[0].arg] = _cls(own_class)
    return env


def _class_attr_types(
    class_def: ast.ClassDef, resolver: _Resolver
) -> dict[str, dict]:
    """Instance-attribute types: class-body and ``self.x`` annotations
    first (authoritative), then ``__init__``-style inferred assignments.
    """
    attrs: dict[str, dict] = {}
    inferred: dict[str, dict] = {}
    own_class = f"{resolver.module}.{class_def.name}"
    for stmt in class_def.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            annotated = _type_from_annotation(stmt.annotation, resolver)
            if annotated is not None:
                attrs[stmt.target.id] = annotated
    for method in class_def.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        env = _param_env(method, resolver, own_class)
        walker = _FunctionWalker(resolver, env, None)
        for stmt in ast.walk(method):
            target: ast.expr | None = None
            type_ref: dict | None = None
            if isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                type_ref = _type_from_annotation(stmt.annotation, resolver)
                authoritative = True
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                type_ref = walker._infer(stmt.value)
                authoritative = False
            else:
                continue
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if type_ref is None:
                continue
            if authoritative:
                attrs.setdefault(target.attr, type_ref)
            else:
                inferred.setdefault(target.attr, type_ref)
    for name, type_ref in inferred.items():
        attrs.setdefault(name, type_ref)
    return attrs


def _collect_imports(
    tree: ast.Module, module: str
) -> list[dict]:
    """Every import in the module (module-level and lazy), resolved to
    candidate dotted targets.  ``from pkg import name`` records both
    ``pkg.name`` and ``pkg`` — link time keeps whichever is a module.
    """
    package = module.rsplit(".", 1)[0] if "." in module else ""
    records: list[dict] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                records.append(
                    {"targets": [alias.name], "line": node.lineno}
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = module.split(".")
                # level 1 = current package, each extra level pops one
                anchor = base_parts[: len(base_parts) - node.level]
                if node.module:
                    anchor = anchor + node.module.split(".")
                base = ".".join(anchor)
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                targets = [base]
                if alias.name != "*":
                    targets.insert(0, f"{base}.{alias.name}")
                records.append({"targets": targets, "line": node.lineno})
    _ = package
    return records


def _summarize_function(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
    resolver: _Resolver,
    own_class: str | None,
    self_attrs: dict[str, dict] | None,
) -> dict:
    env = _param_env(function, resolver, own_class)
    walker = _FunctionWalker(resolver, env, self_attrs)
    walker.walk_body(function.body, 0)
    return {
        "line": function.lineno,
        "calls": walker.calls,
        "draws": walker.draws,
        "banned": walker.banned,
        "phase_emits": walker.phase_emits,
        "plan_calls": walker.plan_calls,
        "sanitize_hooks": walker.sanitize_hooks,
        "oracle_calls": walker.oracle_calls,
        "metric_calls": walker.metric_calls,
    }


def summarize_module(
    source: str, path: str, module: str, tree: ast.Module | None = None
) -> ModuleSummary:
    """The JSON-serializable whole-program digest of one module."""
    if tree is None:
        tree = ast.parse(source, filename=path)
    resolver = _Resolver(module, tree)
    classes: dict[str, dict] = {}
    functions: dict[str, dict] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = _summarize_function(
                node, resolver, None, None
            )
        elif isinstance(node, ast.ClassDef):
            bases = [
                dotted for dotted in (
                    resolver.dotted(base) for base in node.bases
                ) if dotted is not None
            ]
            attrs = _class_attr_types(node, resolver)
            own_class = f"{module}.{node.name}"
            methods: dict[str, dict] = {}
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    methods[member.name] = _summarize_function(
                        member, resolver, own_class, attrs
                    )
            classes[node.name] = {
                "line": node.lineno,
                "bases": bases,
                "attrs": attrs,
                "methods": methods,
            }
    return {
        "module": module,
        "path": path,
        "imports": _collect_imports(tree, module),
        "classes": classes,
        "functions": functions,
    }


# ---------------------------------------------------------------------------
# the linked index
# ---------------------------------------------------------------------------

class ProjectIndex:
    """Linked view over module summaries: imports, classes, call graph."""

    def __init__(self, summaries: list[ModuleSummary]):
        self.summaries = {s["module"]: s for s in summaries}
        #: class fq -> {"bases", "attrs", "methods" (name -> func fq),
        #: "module", "line"}
        self.classes: dict[str, dict] = {}
        #: function fq -> {"module", "cls", summary fields...}
        self.functions: dict[str, dict] = {}
        self.subclasses: dict[str, set[str]] = {}
        #: (importing module, imported module, line) — intra-project only
        self.import_edges: list[tuple[str, str, int]] = []
        self._mro_cache: dict[str, tuple[str, ...]] = {}
        self._class_suffix: dict[str, str | None] = {}
        self._link()

    # -- construction ---------------------------------------------------
    def _link(self) -> None:
        for module, summary in self.summaries.items():
            for name, info in summary["functions"].items():
                fq = f"{module}.{name}"
                self.functions[fq] = {
                    "module": module, "cls": None, **info
                }
            for class_name, class_info in summary["classes"].items():
                class_fq = f"{module}.{class_name}"
                methods: dict[str, str] = {}
                for method_name, method_info in (
                    class_info["methods"].items()
                ):
                    fq = f"{class_fq}.{method_name}"
                    self.functions[fq] = {
                        "module": module, "cls": class_fq, **method_info
                    }
                    methods[method_name] = fq
                self.classes[class_fq] = {
                    "module": module,
                    "line": class_info["line"],
                    "bases": class_info["bases"],
                    "attrs": class_info["attrs"],
                    "methods": methods,
                }
        for class_fq, info in self.classes.items():
            for base in info["bases"]:
                base_fq = self.lookup_class(base)
                if base_fq is not None:
                    self.subclasses.setdefault(base_fq, set()).add(
                        class_fq
                    )
        for module, summary in self.summaries.items():
            for record in summary["imports"]:
                for target in record["targets"]:
                    resolved = self._module_of(target)
                    if resolved is not None and resolved != module:
                        self.import_edges.append(
                            (module, resolved, record["line"])
                        )
                        break

    def _module_of(self, dotted: str) -> str | None:
        """The indexed module a dotted import target lands in."""
        probe = dotted
        while probe:
            if probe in self.summaries:
                return probe
            if "." not in probe:
                return None
            probe = probe.rsplit(".", 1)[0]
        return None

    # -- lookups --------------------------------------------------------
    def lookup_class(self, dotted: str | None) -> str | None:
        """Class fq for a dotted reference (exact, then suffix match)."""
        if dotted is None:
            return None
        if dotted in self.classes:
            return dotted
        if dotted in self._class_suffix:
            return self._class_suffix[dotted]
        suffix = "." + dotted
        matches = [
            fq for fq in self.classes if fq.endswith(suffix)
        ]
        found = matches[0] if len(matches) == 1 else None
        self._class_suffix[dotted] = found
        return found

    def mro(self, class_fq: str) -> tuple[str, ...]:
        """Linearized bases (DFS pre-order, deduplicated).

        Good enough for this codebase's single-inheritance hierarchy;
        we do not need full C3.
        """
        cached = self._mro_cache.get(class_fq)
        if cached is not None:
            return cached
        order: list[str] = []
        seen: set[str] = set()

        def visit(fq: str) -> None:
            if fq in seen or fq not in self.classes:
                return
            seen.add(fq)
            order.append(fq)
            for base in self.classes[fq]["bases"]:
                base_fq = self.lookup_class(base)
                if base_fq is not None:
                    visit(base_fq)

        visit(class_fq)
        result = tuple(order)
        self._mro_cache[class_fq] = result
        return result

    def mro_lookup(self, class_fq: str, method: str) -> str | None:
        for candidate in self.mro(class_fq):
            fq = self.classes[candidate]["methods"].get(method)
            if fq is not None:
                return fq
        return None

    def transitive_subclasses(self, class_fq: str) -> set[str]:
        result: set[str] = set()
        frontier = [class_fq]
        while frontier:
            current = frontier.pop()
            for sub in self.subclasses.get(current, ()):
                if sub not in result:
                    result.add(sub)
                    frontier.append(sub)
        return result

    def class_attr_type(self, class_fq: str, attr: str) -> dict | None:
        for candidate in self.mro(class_fq):
            found = self.classes[candidate]["attrs"].get(attr)
            if found is not None:
                return found
        return None

    def find_functions(self, dotted_suffix: str) -> list[str]:
        """Functions whose fq equals or dot-suffix-matches ``suffix``."""
        if dotted_suffix in self.functions:
            return [dotted_suffix]
        suffix = "." + dotted_suffix
        return sorted(
            fq for fq in self.functions if fq.endswith(suffix)
        )

    # -- call resolution ------------------------------------------------
    def resolve_call(
        self, caller_fq: str, context: str | None, call: dict
    ) -> list[tuple[str, str | None]]:
        """Call-graph targets of one recorded call site.

        Returns ``(function fq, new context class)`` pairs.  See the
        module docstring for the dispatch semantics (context-exact
        ``self``, virtual typed dispatch, MRO-tail ``super``).
        """
        caller = self.functions[caller_fq]
        kind = call["kind"]
        if kind == "name":
            name = call["name"]
            if name in self.functions:
                return [(name, self.functions[name]["cls"])]
            class_fq = self.lookup_class(name)
            if class_fq is not None:
                init = self.mro_lookup(class_fq, "__init__")
                return [(init, class_fq)] if init is not None else []
            # last resort: a plain function referenced by suffix
            matches = self.find_functions(name)
            if len(matches) == 1:
                only = matches[0]
                return [(only, self.functions[only]["cls"])]
            return []
        if kind == "self":
            ctx = context or caller["cls"]
            if ctx is None:
                return []
            # First try the attribute as a typed callable field
            # (``self._stepper.step`` lands here as a typed call, but a
            # bare ``self.hook()`` may name a callable attribute).
            target = self.mro_lookup(ctx, call["method"])
            if target is not None:
                return [(target, ctx)]
            attr_type = self.class_attr_type(ctx, call["method"])
            if attr_type is not None and attr_type.get("kind") == "cls":
                callee_cls = self.lookup_class(attr_type["name"])
                if callee_cls is not None:
                    call_fq = self.mro_lookup(callee_cls, "__call__")
                    if call_fq is not None:
                        return [(call_fq, callee_cls)]
            return []
        if kind == "super":
            defining = caller["cls"]
            if defining is None:
                return []
            ctx = context or defining
            tail = self.mro(defining)[1:]
            for candidate in tail:
                fq = self.classes[candidate]["methods"].get(call["method"])
                if fq is not None:
                    return [(fq, ctx)]
            return []
        if kind in ("typed", "selfattr"):
            if kind == "typed":
                declared = self.lookup_class(call["type"])
            else:
                ctx = context or caller["cls"]
                attr_type = (
                    self.class_attr_type(ctx, call["attr"])
                    if ctx is not None else None
                )
                declared = (
                    self.lookup_class(attr_type["name"])
                    if attr_type is not None
                    and attr_type.get("kind") == "cls"
                    else None
                )
            if declared is None:
                return []
            targets: list[tuple[str, str | None]] = []
            base_hit = self.mro_lookup(declared, call["method"])
            if base_hit is not None:
                targets.append((base_hit, declared))
            for sub in sorted(self.transitive_subclasses(declared)):
                override = self.classes[sub]["methods"].get(call["method"])
                if override is not None:
                    targets.append((override, sub))
            return targets
        return []

    # -- reachability ---------------------------------------------------
    def reachable(self, root_suffixes: tuple[str, ...]) -> set[str]:
        """Functions reachable from the named roots (dotted suffixes)."""
        worklist: list[tuple[str, str | None]] = []
        for suffix in root_suffixes:
            for fq in self.find_functions(suffix):
                worklist.append((fq, self.functions[fq]["cls"]))
        seen: set[tuple[str, str | None]] = set(worklist)
        reached: set[str] = {fq for fq, _ in worklist}
        while worklist:
            fq, context = worklist.pop()
            for call in self.functions[fq]["calls"]:
                for target, new_context in self.resolve_call(
                    fq, context, call
                ):
                    item = (target, new_context)
                    if item not in seen:
                        seen.add(item)
                        reached.add(target)
                        worklist.append(item)
        return reached

    # -- taint ----------------------------------------------------------
    def taint_map(self) -> dict[str, tuple[str, int, str | None]]:
        """Function fq -> (nondeterminism source, line, via-callee fq).

        A function is tainted if its body contains a banned call (the
        seed: via is None) or if any resolved callee is tainted.
        Propagation follows call edges only — module-level code (like
        :mod:`repro.sanitize`'s read-once env gate) never taints.
        """
        taint: dict[str, tuple[str, int, str | None]] = {}
        for fq, info in self.functions.items():
            if info["banned"]:
                site = info["banned"][0]
                taint[fq] = (site["name"], site["line"], None)
        # reverse-propagate to a fixpoint (graph is small)
        changed = True
        while changed:
            changed = False
            for fq, info in self.functions.items():
                if fq in taint:
                    continue
                for call in info["calls"]:
                    hit = None
                    for target, _ in self.resolve_call(
                        fq, info["cls"], call
                    ):
                        if target in taint:
                            hit = target
                            break
                    if hit is not None:
                        source, line, _ = taint[hit]
                        taint[fq] = (source, call["line"], hit)
                        changed = True
                        break
        return taint

    def taint_chain(
        self, fq: str, taint: dict[str, tuple[str, int, str | None]]
    ) -> list[str]:
        """The call chain from ``fq`` down to its nondeterminism source."""
        chain = [fq]
        seen = {fq}
        current = fq
        while True:
            entry = taint.get(current)
            if entry is None or entry[2] is None or entry[2] in seen:
                break
            current = entry[2]
            seen.add(current)
            chain.append(current)
        return chain

    # -- reporting ------------------------------------------------------
    def path_of(self, module: str) -> str:
        return self.summaries[module]["path"]

    def module_is_deterministic(self, module: str) -> bool:
        from repro.lint.rules import DETERMINISM_DIRS
        path = self.summaries[module]["path"]
        return bool(DETERMINISM_DIRS.intersection(_path_segments(path)))

    def stats(self) -> dict:
        call_sites = sum(
            len(info["calls"]) for info in self.functions.values()
        )
        return {
            "modules": len(self.summaries),
            "classes": len(self.classes),
            "functions": len(self.functions),
            "import_edges": len(self.import_edges),
            "call_sites": call_sites,
        }


# ---------------------------------------------------------------------------
# the on-disk cache
# ---------------------------------------------------------------------------

class LintCache:
    """Content-hash-keyed per-file cache of lint work.

    One JSON document, one entry per file path, each keyed by the
    file's content hash and holding the *raw* (pre-suppression)
    per-file violations, the inline pragmas and the module summary.
    Raw violations are cached so editing ``.reprolint`` or pragma-less
    config never needs a re-parse; project-rule violations are **never**
    cached — they depend on every file, so they are recomputed from the
    (cached) summaries each run.
    """

    # /2: function summaries gained the ``oracle_calls`` key (REP010);
    # /3: they gained ``metric_calls`` (REP009 metric-site parity).
    # Older caches lack the keys, so they must not satisfy this run.
    SCHEMA = "repro-lint-cache/3"

    def __init__(self, path: Path | None):
        self.path = path
        self.entries: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        if path is not None and path.exists():
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
            except (ValueError, OSError):
                document = {}
            if document.get("schema") == self.SCHEMA:
                entries = document.get("files")
                if isinstance(entries, dict):
                    self.entries = entries

    def get(self, path: str, content_hash: str) -> dict | None:
        entry = self.entries.get(path)
        if entry is not None and entry.get("hash") == content_hash:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put(self, path: str, entry: dict) -> None:
        self.entries[path] = entry
        self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        document = {
            "schema": self.SCHEMA,
            "files": self.entries,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(document, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, self.path)
        self._dirty = False


class Stopwatch:
    """Named phase timings for the ``repro-lint/2`` report."""

    def __init__(self) -> None:
        self.timings: dict[str, float] = {}

    def measure(self, name: str) -> "_Timer":
        return _Timer(self, name)

    def add(self, name: str, seconds: float) -> None:
        self.timings[name] = self.timings.get(name, 0.0) + seconds


class _Timer:
    def __init__(self, stopwatch: Stopwatch, name: str):
        self.stopwatch = stopwatch
        self.name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stopwatch.add(self.name, time.perf_counter() - self._start)


def iter_summary_functions(
    summary: ModuleSummary,
) -> Iterator[tuple[str, dict]]:
    """(fq, function info) pairs of one summary — test/debug helper."""
    module = summary["module"]
    for name, info in summary["functions"].items():
        yield f"{module}.{name}", info
    for class_name, class_info in summary["classes"].items():
        for method_name, method_info in class_info["methods"].items():
            yield f"{module}.{class_name}.{method_name}", method_info
