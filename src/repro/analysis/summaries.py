"""Static extraction of heap behaviour from ``Program`` bodies.

A :class:`~repro.program.program.Program` plays the role of compiled C
code: its Python methods stand in for functions, and every dynamic call
or heap operation goes through the :class:`~repro.program.process.Process`
API naming a declared call site.  This module is the "front end" of the
static analyses: it walks the AST of the program's method bodies —
without executing anything — and recovers

* every process operation (``p.call``, ``p.malloc``, ``p.free``, memory
  reads/writes, syscalls) with its textual position and guardedness,
* the mapping from Python methods to the *guest functions* they execute
  as (a method entered through ``p.call("f", ...)`` runs as ``f``; a
  plain ``self._helper(...)`` call stays in the caller's guest function),
* which of those facts are only partially known because a callee name is
  computed at runtime (an f-string callee, for example), so downstream
  consumers can degrade gracefully instead of reporting false positives.

Both the program-model linter (:mod:`repro.analysis.lint`) and the static
vulnerability detector (:mod:`repro.analysis.staticvuln`) are built on
this extraction.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..program.program import Program

#: Process methods that allocate and carry a ``site=`` label.
ALLOC_METHODS = ("malloc", "calloc", "memalign", "aligned_alloc",
                 "posix_memalign", "realloc")

#: Process methods that read memory or consume a value.
READ_METHODS = ("read", "read_int", "syscall_out", "branch_on",
                "use_as_address")

#: Process methods that write or initialize memory.
WRITE_METHODS = ("write", "write_int", "fill", "syscall_in", "copy")

#: Every process method the extractor records.
TRACKED_METHODS = (("call", "free", "compute")
                   + ALLOC_METHODS + READ_METHODS + WRITE_METHODS)

#: Marker guest name for methods reachable with a computed callee name.
DYNAMIC = "<dynamic>"


@dataclass
class ExtractedOp:
    """One process-API operation found in a method body."""

    #: Process method name (``"call"``, ``"malloc"``, ``"free"``, ...).
    kind: str
    #: Python method the operation appears in.
    method: str
    #: Source line within the defining module.
    line: int
    #: True when the operation is branch- or loop-guarded (may not run).
    conditional: bool
    #: True when the operation sits inside a loop body.
    in_loop: bool
    #: Static callee: guest function for ``call``, the allocation API for
    #: allocs, ``"free"`` for frees.  ``None`` when computed at runtime.
    callee: Optional[str] = None
    #: Static ``site=`` label ("" = default); ``None`` when dynamic.
    label: Optional[str] = ""
    #: For ``call``: the ``self``-method passed as the function body, when
    #: statically identifiable.
    target_method: Optional[str] = None
    #: The raw AST call node, for deeper (dataflow) analysis.
    node: Any = None


@dataclass
class MethodInfo:
    """Extraction result for one Python method."""

    name: str
    func_ast: Any
    #: Name of the ``Process`` parameter ("p" by convention).
    process_param: Optional[str]
    ops: List[ExtractedOp] = field(default_factory=list)
    #: Plain ``self._helper(...)`` calls: (method name, conditional).
    self_calls: List[Tuple[str, bool]] = field(default_factory=list)


@dataclass
class ProgramModel:
    """The statically-extracted model of one program's behaviour."""

    program: Program
    methods: Dict[str, MethodInfo]
    #: Python method -> guest function names it may execute as.  The
    #: special :data:`DYNAMIC` member marks unknown (computed) identities.
    guest_names: Dict[str, Set[str]]
    #: True when any ``p.call`` had a computed callee name.
    has_dynamic_calls: bool
    #: Problems encountered during extraction (missing source, ...).
    notes: List[str] = field(default_factory=list)


def _literal_str(node: Any) -> Optional[str]:
    """The string a node statically evaluates to, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _process_param(func_ast: ast.FunctionDef) -> Optional[str]:
    """Guess the ``Process`` parameter of a method (by name, then slot)."""
    args = [a.arg for a in func_ast.args.args if a.arg != "self"]
    for name in args:
        if name in ("p", "process", "proc"):
            return name
    return args[0] if args else None


class _BodyWalker:
    """Walks one method body recording process ops and self-calls."""

    def __init__(self, info: MethodInfo) -> None:
        self.info = info

    def walk(self) -> None:
        self._walk_body(self.info.func_ast.body, conditional=False,
                        in_loop=False)

    # ------------------------------------------------------------------

    def _walk_body(self, body: List[Any], conditional: bool,
                   in_loop: bool) -> None:
        seen_early_exit = False
        for stmt in body:
            stmt_conditional = conditional or seen_early_exit
            self._walk_stmt(stmt, stmt_conditional, in_loop)
            if isinstance(stmt, ast.If) and self._exits(stmt):
                # `if x: return ...` — everything after it is the other
                # path, hence conditional.
                seen_early_exit = True

    @staticmethod
    def _exits(stmt: ast.If) -> bool:
        for branch in (stmt.body, stmt.orelse):
            for inner in branch:
                if isinstance(inner, (ast.Return, ast.Raise,
                                      ast.Continue, ast.Break)):
                    return True
        return False

    def _walk_stmt(self, stmt: Any, conditional: bool,
                   in_loop: bool) -> None:
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, conditional, in_loop)
            self._walk_body(stmt.body, True, in_loop)
            self._walk_body(stmt.orelse, True, in_loop)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, conditional, in_loop)
            self._walk_body(stmt.body, True, True)
            self._walk_body(stmt.orelse, True, in_loop)
        elif isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, conditional, in_loop)
            self._walk_body(stmt.body, True, True)
            self._walk_body(stmt.orelse, True, in_loop)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, conditional, in_loop)
            self._walk_body(stmt.body, conditional, in_loop)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, conditional, in_loop)
            for handler in stmt.handlers:
                self._walk_body(handler.body, True, in_loop)
            self._walk_body(stmt.orelse, True, in_loop)
            self._walk_body(stmt.finalbody, conditional, in_loop)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            return  # nested defs are out of scope for the lite analysis
        else:
            for child in ast.iter_child_nodes(stmt):
                self._scan_expr(child, conditional, in_loop)

    def _scan_expr(self, node: Any, conditional: bool,
                   in_loop: bool) -> None:
        """Record every tracked call in an expression tree, in order."""
        for call in [n for n in ast.walk(node) if isinstance(n, ast.Call)]:
            self._record_call(call, conditional, in_loop)

    # ------------------------------------------------------------------

    def _record_call(self, call: ast.Call, conditional: bool,
                     in_loop: bool) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        pname = self.info.process_param
        if isinstance(base, ast.Name) and base.id == pname:
            attr = func.attr
            if attr not in TRACKED_METHODS:
                return
            op = ExtractedOp(kind=attr, method=self.info.name,
                             line=getattr(call, "lineno", 0),
                             conditional=conditional, in_loop=in_loop,
                             node=call)
            if attr == "call":
                op.callee = (_literal_str(call.args[0])
                             if call.args else None)
                op.label = self._site_kw(call)
                op.target_method = self._self_method_ref(
                    call.args[1] if len(call.args) > 1 else None)
            elif attr in ALLOC_METHODS:
                op.callee = attr
                op.label = self._site_kw(call)
            elif attr == "free":
                op.callee = "free"
            self.info.ops.append(op)
        elif isinstance(base, ast.Name) and base.id == "self":
            # A plain helper call: stays in the caller's guest function.
            self.info.self_calls.append((func.attr, conditional))

    @staticmethod
    def _site_kw(call: ast.Call) -> Optional[str]:
        for keyword in call.keywords:
            if keyword.arg == "site":
                return _literal_str(keyword.value)
        return ""

    @staticmethod
    def _self_method_ref(node: Any) -> Optional[str]:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr
        return None


def _class_sources(program: Program) -> List[ast.ClassDef]:
    """AST class definitions along the program's MRO (most-derived first),
    stopping at the abstract bases (which contain no process code)."""
    stop = {"Program", "VulnerableProgram", "ABC", "object"}
    defs: List[ast.ClassDef] = []
    for cls in type(program).__mro__:
        if cls.__name__ in stop:
            continue
        try:
            source = textwrap.dedent(inspect.getsource(cls))
        except (OSError, TypeError):
            continue
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs.append(node)
    return defs


def extract_model(program: Program) -> ProgramModel:
    """Build the static behaviour model of ``program``.

    Walks every method of the program's class (and concrete ancestors),
    records process operations, and resolves the method -> guest-function
    mapping to a fixed point, propagating identity through plain
    ``self``-helper calls and marking computed callees as dynamic.
    """
    methods: Dict[str, MethodInfo] = {}
    notes: List[str] = []
    class_defs = _class_sources(program)
    if not class_defs:
        notes.append("no inspectable source for program class; "
                     "static extraction is empty")
    for class_def in class_defs:
        for node in class_def.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name in methods:       # most-derived wins
                continue
            info = MethodInfo(node.name, node, _process_param(node))
            _BodyWalker(info).walk()
            methods[node.name] = info

    guest_names: Dict[str, Set[str]] = {name: set() for name in methods}
    if "main" in guest_names:
        guest_names["main"].add(program.graph.entry)
    has_dynamic_calls = False

    # Seed from p.call edges, then propagate through self-helper calls
    # until stable.
    for info in methods.values():
        for op in info.ops:
            if op.kind != "call":
                continue
            target = op.target_method
            if target is None or target not in guest_names:
                if op.callee is None:
                    has_dynamic_calls = True
                continue
            if op.callee is not None:
                guest_names[target].add(op.callee)
            else:
                guest_names[target].add(DYNAMIC)
                has_dynamic_calls = True

    changed = True
    while changed:
        changed = False
        for info in methods.values():
            source = guest_names[info.name]
            for helper, _conditional in info.self_calls:
                if helper not in guest_names:
                    continue
                before = len(guest_names[helper])
                guest_names[helper] |= source
                if len(guest_names[helper]) != before:
                    changed = True

    return ProgramModel(program=program, methods=methods,
                        guest_names=guest_names,
                        has_dynamic_calls=has_dynamic_calls, notes=notes)
