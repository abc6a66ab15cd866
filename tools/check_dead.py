#!/usr/bin/env python
"""Dead-surface gate: no definition, option or import that only tests use.

Three rules, run by CI's lint job and in tier-1
(``python tools/check_dead.py``; no flags, no environment):

(a) dead definitions -- every module-level function or class, and every
    method of a module-level class, defined under ``src/`` that nothing in
    ``src/ benchmarks/ examples/ macrobench/ tools/`` references. A
    reference is a name or attribute read outside the definition's own
    body; imports (so ``__init__.py`` re-exports) and ``__all__`` strings
    are not reads. Dunders are called by the runtime and never count.
(b) unset options -- every defaulted constructor parameter or dataclass
    field of a class in the systems packages (:data:`OPTION_MODULES`) that
    no call in ``src/ benchmarks/ macrobench/ tools/`` passes, by keyword,
    by position, through ``cls(...)``/``super().__init__(...)`` or through
    a ``**`` mapping the checker cannot read.
(c) unused imports -- a module-level import in a non-``__init__`` module
    of ``src/ benchmarks/ tools/ examples/`` whose bound name the module
    never uses.

Every hit fails the gate unless :data:`ALLOW` names it (a dotted prefix
of it, or a ``fnmatch`` pattern over it) with a reason. A test seam
(:data:`SEAMS`) is an option that only tests set: it passes only while
a call in ``tests/`` really passes it. The two lists together stay
under 20 entries.
"""

from __future__ import annotations

import ast
import fnmatch
import functools
import os
import re
import sys
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where definitions are looked for, and where references count from.
DEF_ROOTS = ("src",)
REF_ROOTS = ("src", "benchmarks", "examples", "macrobench", "tools")
#: Calls that count as setting an option (examples show defaults).
OPTION_REF_ROOTS = ("src", "benchmarks", "macrobench", "tools")
IMPORT_ROOTS = ("src", "benchmarks", "tools", "examples")
#: Where a test seam (:data:`SEAMS`) must be exercised.
TEST_ROOTS = ("tests",)

#: The systems packages whose constructor options rule (b) audits.
OPTION_MODULES = (
    "repro.serve", "repro.ingest", "repro.cluster", "repro.pack",
    "repro.obs", "repro.storage", "repro.update.distribution",
    "repro.chaos",
)

#: Hit (or dotted prefix of hits) -> why it stays.
ALLOW: Dict[str, str] = {
    # Table-I techniques: a banded row or deletion is decided together.
    "repro.localization.surfaces":
        "Table-I technique LaneSurfaceFilter; awaits its banded evaluator row",
    "repro.localization.semantic":
        "Table-I technique SemanticAligner; awaits its banded evaluator row",
    "repro.creation.lane_graph":
        "Table-I technique LaneGraphBuilder; awaits its banded evaluator row",
    "repro.localization.mlvhm":
        "Table-I technique MonocularLocalizer; awaits its banded evaluator row",
    "repro.update.diffnet":
        "Table-I technique DiffNet; awaits its banded evaluator row",
    "repro.localization.adas":
        "Table-I technique AdasFusionLocalizer; awaits its banded evaluator row",
    "repro.pose":
        "Table-I techniques WindowedPoseEstimator and SixDofEstimator; "
        "awaiting their banded evaluator rows",
    "repro.world.osm":
        "Table-I technique import_osm; awaits its banded evaluator row",
    "repro.perf.reference":
        "frozen pre-optimisation twins the equivalence tests compare against",
    "repro.ingest.stages.IngestConfig":
        "paper-model parameters of the change detector (DBN, fuser, gate)",
    "repro.ingest.fleetsource.FleetObservationSource":
        "paper-model sensor parameters of the simulated fleet",
    "repro.ingest.pipeline.IngestPipeline.quarantine_path":
        "deployment path: the quarantine journal's JSONL file",
    "repro.ingest.pipeline.IngestPipeline.dead_letter_journal":
        "deployment sink: where dead-lettered batches are journaled",
    "repro.obs.log.EventLog.jsonl_path":
        "deployment sink: the event log's JSONL file",
    "repro.ingest.verify.QuarantineStore":
        "documented operator triage API (records, violation_counts)",
    "repro.pack.format.compact_pack":
        "documented operator API: the pack compaction runbook",
}

#: Test seams: an option matching one of these is set when a call in
#: ``tests/`` passes it (and only then). Counted with :data:`ALLOW`.
SEAMS: Dict[str, str] = {
    "*.clock": "tests inject a fake clock",
    "repro.chaos.cluster.ClusterWorkload":
        "tests shrink the cluster chaos workload's sizes",
}

MUTATORS = {"append", "add", "extend", "update", "setdefault", "insert",
            "pop", "popleft", "clear", "remove", "discard"}
PY = re.compile(r"\.py$")


# -- loading -----------------------------------------------------------------

def load_tree(repo: str = REPO) -> Dict[str, str]:
    """``{repo-relative path: source}`` for every scanned root."""
    files: Dict[str, str] = {}
    for root in sorted(set(REF_ROOTS + IMPORT_ROOTS + TEST_ROOTS)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(repo, root)):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith((".", "__")))
            for name in sorted(filenames):
                if PY.search(name):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        files[os.path.relpath(path, repo)] = fh.read()
    return files


def _under(path: str, roots: Tuple[str, ...]) -> bool:
    return path.split(os.sep, 1)[0] in roots


def _is_init(path: str) -> bool:
    return os.path.basename(path) == "__init__.py"


def _module(path: str) -> str:
    parts = PY.sub("", path).split(os.sep)
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# -- rule (a): dead definitions ---------------------------------------------

def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(path: str, tree: ast.Module) -> Iterator[Tuple[str, str, ast.AST]]:
    """``(qualified name, bare name, node)`` for rule (a)."""
    module = _module(path)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _dunder(node.name):
                yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            yield f"{module}.{node.name}", node.name, node
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _dunder(item.name)):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


@functools.lru_cache(maxsize=None)
def _references(tree: ast.Module) -> Tuple[Tuple[str, int], ...]:
    """``(name, line)`` for every name or attribute a file reads."""
    return tuple(
        (node.id, node.lineno) if isinstance(node, ast.Name)
        else (node.attr, node.lineno)
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))
        or isinstance(node, ast.Attribute))


def dead_definitions(trees: Dict[str, ast.Module]) -> List[Tuple[str, str]]:
    refs: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for path, tree in trees.items():
        if _under(path, REF_ROOTS):
            for name, line in _references(tree):
                refs[name].append((path, line))
    hits = []
    for path, tree in trees.items():
        if not _under(path, DEF_ROOTS):
            continue
        for qualname, name, node in _definitions(path, tree):
            span = (node.lineno - len(getattr(node, "decorator_list", ())),
                    node.end_lineno)
            outside = [r for r in refs.get(name, ())
                       if not (r[0] == path and span[0] <= r[1] <= span[1])]
            if not outside:
                hits.append((qualname, f"{path}:{node.lineno}: "
                             f"dead definition {qualname}"))
    return hits


# -- rule (b): unset options -------------------------------------------------

def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_decorator_name(d) == "dataclass" for d in node.decorator_list)


def _base_names(node: ast.ClassDef) -> List[str]:
    return [b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
            for b in node.bases]


def _options(node: ast.ClassDef) -> Optional[List[Tuple[str, bool]]]:
    """Constructor parameters in call order as ``(name, defaulted)``, or
    ``None`` when the class defines no constructor of its own."""
    if _is_dataclass(node) or "NamedTuple" in _base_names(node):
        fields = []
        for item in node.body:
            if not (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                continue
            if "ClassVar" in ast.dump(item.annotation):
                continue
            value = item.value
            if (isinstance(value, ast.Call)
                    and _decorator_name(value) == "field"
                    and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                            and k.value.value is False
                            for k in value.keywords)):
                continue
            fields.append((item.target.id, value is not None))
        return fields
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            args = item.args
            positional = args.posonlyargs + args.args
            first_default = len(positional) - len(args.defaults)
            params = [(a.arg, i >= first_default)
                      for i, a in enumerate(positional)][1:]
            params += [(a.arg, d is not None)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults)]
            return params
    return None


class _Calls(ast.NodeVisitor):
    """Per callee name: keywords passed, most positionals, opaque ``**``."""

    def __init__(self) -> None:
        self.keywords: Dict[str, Set[str]] = defaultdict(set)
        self.positional: Dict[str, int] = defaultdict(int)
        self.opaque: Set[str] = set()
        # attributes assigned or mutated after construction (``Class.attr``
        # when written through ``self``): a dataclass field written this
        # way is state, not an option
        self.stored: Set[str] = set()
        self._classes: List[ast.ClassDef] = []

    def merge(self, other: "_Calls") -> None:
        for callee, names in other.keywords.items():
            self.keywords[callee] |= names
        for callee, n in other.positional.items():
            self.positional[callee] = max(self.positional[callee], n)
        self.opaque |= other.opaque
        self.stored |= other.stored

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def _callees(self, func: ast.expr) -> List[str]:
        if isinstance(func, ast.Name):
            if func.id == "cls" and self._classes:
                return [self._classes[-1].name]
            return [func.id]
        if isinstance(func, ast.Attribute):
            inner = func.value
            if (func.attr == "__init__" and isinstance(inner, ast.Call)
                    and getattr(inner.func, "id", "") == "super"
                    and self._classes):
                return _base_names(self._classes[-1])
            return [func.attr]
        if (isinstance(func, ast.Call) and getattr(func.func, "id", "") == "type"
                and self._classes):
            return [self._classes[-1].name]
        return []

    def _store(self, node: ast.Attribute) -> None:
        if getattr(node.value, "id", "") == "self" and self._classes:
            self.stored.add(f"{self._classes[-1].name}.{node.attr}")
        else:
            self.stored.add(node.attr)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Store):
            self._store(node)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Attribute)):
            self._store(node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in MUTATORS
                and isinstance(func.value, ast.Attribute)):
            self._store(func.value)
        n_pos = len(node.args)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        for callee in self._callees(node.func):
            if starred:
                self.opaque.add(callee)
            self.positional[callee] = max(self.positional[callee], n_pos)
            for kw in node.keywords:
                if kw.arg is not None:
                    self.keywords[callee].add(kw.arg)
                elif isinstance(kw.value, ast.Dict) and all(
                        isinstance(k, ast.Constant) for k in kw.value.keys):
                    self.keywords[callee].update(
                        k.value for k in kw.value.keys)
                else:
                    self.opaque.add(callee)
        self.generic_visit(node)


def _option_module(path: str) -> bool:
    module = _module(path)
    return any(module == m or module.startswith(m + ".")
               for m in OPTION_MODULES)


def option_classes(trees: Dict[str, ast.Module]) -> Dict[str, Tuple[str, ast.ClassDef]]:
    """``{qualified class name: (path, node)}`` for rule (b)."""
    return {f"{_module(path)}.{node.name}": (path, node)
            for path, tree in trees.items()
            if _under(path, DEF_ROOTS) and _option_module(path)
            for node in tree.body if isinstance(node, ast.ClassDef)}


@functools.lru_cache(maxsize=None)
def _file_calls(tree: ast.Module) -> _Calls:
    calls = _Calls()
    calls.visit(tree)
    return calls


def _calls_under(trees: Dict[str, ast.Module],
                 roots: Tuple[str, ...]) -> _Calls:
    merged = _Calls()
    for path, tree in trees.items():
        if _under(path, roots):
            merged.merge(_file_calls(tree))
    return merged


def unset_options(trees: Dict[str, ast.Module]) -> List[Tuple[str, str]]:
    calls = _calls_under(trees, OPTION_REF_ROOTS)
    test_calls = _calls_under(trees, TEST_ROOTS)
    # test-defined subclasses too: they inject seams through the base
    classes: Dict[str, ast.ClassDef] = {}
    for roots in (TEST_ROOTS, DEF_ROOTS):
        classes.update({node.name: node for path, tree in trees.items()
                        if _under(path, roots) for node in tree.body
                        if isinstance(node, ast.ClassDef)})
    subclasses: Dict[str, List[str]] = defaultdict(list)
    for name, node in classes.items():
        for base in _base_names(node):
            subclasses[base].append(name)

    def callers(name: str) -> Iterator[str]:
        # A subclass without a constructor of its own is called with the
        # base's parameters.
        yield name
        for sub in subclasses.get(name, ()):
            if _options(classes[sub]) is None:
                yield from callers(sub)

    def passed(seen: _Calls, node: ast.ClassDef,
               params: List[Tuple[str, bool]], explicit: bool) -> Set[str]:
        # ``explicit``: a ``**`` mapping does not count (a seam must be
        # named by the test that injects it)
        names = list(callers(node.name))
        if not explicit and any(n in seen.opaque for n in names):
            return {p for p, _ in params}
        out: Set[str] = set()
        for n in names:
            out |= seen.keywords.get(n, set())
            out |= {p for p, _ in params[:seen.positional.get(n, 0)]}
        if _is_dataclass(node):
            out |= {p for p, _ in params if p in seen.stored
                    or f"{node.name}.{p}" in seen.stored}
        return out

    hits = []
    for qualname, (path, node) in option_classes(trees).items():
        params = _options(node) or []
        used = passed(calls, node, params, explicit=False)
        injected = passed(test_calls, node, params, explicit=True)
        for param, defaulted in params:
            key = f"{qualname}.{param}"
            if not defaulted or param in used or (
                    param in injected and _matches(key, SEAMS)):
                continue
            hits.append((key, f"{path}:{node.lineno}: unset option "
                              f"{qualname}({param}=)"))
    return hits


# -- rule (c): unused imports ------------------------------------------------

def _top_level_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse
                         + getattr(node, "finalbody", [])
                         + [s for h in getattr(node, "handlers", [])
                            for s in h.body])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


@functools.lru_cache(maxsize=None)
def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations and __all__ entries
            used.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value)
                        if len(node.value) < 200 else ())
    return used


def unused_imports(trees: Dict[str, ast.Module]) -> List[Tuple[str, str]]:
    hits = []
    for path, tree in trees.items():
        if not _under(path, IMPORT_ROOTS) or _is_init(path):
            continue
        used = _used_names(tree)
        for name, line in _top_level_imports(tree):
            if name not in used:
                hits.append((f"{_module(path)}:{name}",
                             f"{path}:{line}: unused import {name}"))
    return hits


# -- gate --------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _parse_one(path: str, text: str) -> ast.Module:
    return ast.parse(text, filename=path)


def parse(files: Dict[str, str]) -> Dict[str, ast.Module]:
    return {path: _parse_one(path, text) for path, text in files.items()}


def scan(files: Dict[str, str]) -> List[Tuple[str, str]]:
    """Every hit as ``(key, message)``, allowed or not."""
    trees = parse(files)
    return (dead_definitions(trees) + unset_options(trees)
            + unused_imports(trees))


def _matches(key: str, entries: Dict[str, str]) -> bool:
    return any(key == entry or key.startswith(entry + ".")
               or fnmatch.fnmatchcase(key, entry) for entry in entries)


def failures(files: Dict[str, str]) -> List[str]:
    return sorted(message for key, message in scan(files)
                  if not _matches(key, ALLOW))


def main() -> int:
    errors = failures(load_tree())
    for line in errors:
        print(f"FAIL {line}")
    if errors:
        print(f"dead-surface check failed: {len(errors)} hit(s)")
        return 1
    print(f"dead-surface check passed "
          f"({len(ALLOW) + len(SEAMS)} allow-list entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
