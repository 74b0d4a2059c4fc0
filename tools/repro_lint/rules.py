"""The nine repro-specific invariant rules (RPL001..RPL009).

Each rule encodes one clause of the repo's determinism / hot-path
contract (see ``docs/architecture/invariants.md`` for the rationale and
worked examples).  Rules are deliberately *lexical and decidable*: they
inspect the AST of one module at a time, never type information or the
import graph, so a hit is always explainable by pointing at the flagged
line.  The cost of that choice is a small number of false positives on
intentional reference paths — those carry reasoned inline suppressions.

Scoping: every rule declares where it applies as a path relative to the
``repro`` package root (``sim/engine.py``, ``accounting/...``).  Code
outside the package (tools, tests, benchmarks) is never flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .linter import Violation

__all__ = [
    "RULE_CODES",
    "RULE_SUMMARIES",
    "InvariantChecker",
    "package_relative_path",
]

RULE_SUMMARIES: dict[str, str] = {
    "RPL001": "no wall-clock reads in simulation/accounting code",
    "RPL002": "no unseeded or global-state randomness",
    "RPL003": "shared-memory create/attach must have guaranteed cleanup",
    "RPL004": "no scalar charge() inside loops in batched modules",
    "RPL005": "event heaps only through EventCalendar (sim/events.py)",
    "RPL006": "no ordering-sensitive iteration over set expressions",
    "RPL007": "classes in hot modules must declare __slots__",
    "RPL008": "no pickle in modules with a shared-memory transport",
    "RPL009": "file handles and locks must pair acquire with release",
}
RULE_CODES = frozenset(RULE_SUMMARIES)

# --------------------------------------------------------------------------
# Rule scopes (paths relative to the repro package root, posix separators).
# --------------------------------------------------------------------------

#: Prefix-scoped rules: rule applies when the module path starts with any
#: listed prefix ("" = the entire package).
_PREFIX_SCOPES: dict[str, tuple[str, ...]] = {
    "RPL001": ("sim/", "accounting/", "faas/", "study/"),
    "RPL002": ("",),
    "RPL003": ("",),
    "RPL005": ("sim/", "accounting/"),
    "RPL006": ("sim/",),
}

#: Module-scoped rules: rule applies only to these exact files.
_MODULE_SCOPES: dict[str, frozenset[str]] = {
    # Batched modules: every per-row cost must go through charge_many /
    # a probe kernel; a scalar charge() in a loop is the O(n) regression
    # this repo exists to avoid.
    "RPL004": frozenset(
        {
            "sim/engine.py",
            "sim/metrics.py",
            "sim/migration.py",
            "sim/shifting.py",
            "faas/platform.py",
            "accounting/pricing.py",
        }
    ),
    # Hot modules: per-instance __dict__ costs real memory and lookup
    # time at paper scale (tens of thousands of jobs / events).
    "RPL007": frozenset(
        {
            "sim/events.py",
            "sim/engine.py",
            "sim/migration.py",
            "sim/cluster.py",
            "accounting/pricing.py",
        }
    ),
    # Modules on the quote-table shared-memory transport: pickling a
    # quote table here bypasses the descriptor path and re-copies the
    # columns per worker.
    "RPL008": frozenset(
        {
            "accounting/pricing.py",
            "accounting/spill.py",
            "sim/engine.py",
            "sim/migration.py",
            "sim/sweep.py",
        }
    ),
    # Modules owning long-lived file handles / cross-thread locks (the
    # sweep service and its result store): a handle opened or a lock
    # acquired outside `with` and never closed/released in the same
    # function leaks across the service's lifetime — exactly the bug
    # class a persistent process cannot shrug off at exit.
    "RPL009": frozenset(
        {
            "sim/result_store.py",
            "sim/sweep_service.py",
        }
    ),
}

#: Per-rule module exclusions within an otherwise-matching prefix.
_MODULE_EXCLUSIONS: dict[str, frozenset[str]] = {
    # sim/events.py *is* the blessed heap owner.
    "RPL005": frozenset({"sim/events.py"}),
}

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random attributes that are seedable constructors rather than
#: draws from the hidden global BitGenerator.
_SEEDED_NUMPY_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

_SLOTLESS_EXEMPT_BASES = frozenset(
    {
        "ABC",
        "Enum",
        "Flag",
        "IntEnum",
        "IntFlag",
        "NamedTuple",
        "Protocol",
        "StrEnum",
        "TypedDict",
    }
)


def package_relative_path(path: str | Path) -> str:
    """Map a filesystem path to its repro-package-relative posix path.

    ``src/repro/sim/engine.py`` (under any checkout root) becomes
    ``sim/engine.py``.  Files outside the package return ``""``, which
    disables every scoped rule for them.
    """
    parts = Path(path).parts
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and i > 0 and parts[i - 1] == "src":
            return "/".join(parts[i + 1 :])
    # Fallback for unusual layouts (installed package, vendored copy).
    for i, part in enumerate(parts[:-1]):
        if part == "repro":
            return "/".join(parts[i + 1 :])
    return ""


@dataclass
class _FunctionRecord:
    """Per-function bookkeeping for the resource pairing rules
    (RPL003 shared memory, RPL009 file handles and locks)."""

    shm_sites: list[tuple[ast.AST, str]] = field(default_factory=list)
    has_unlink: bool = False
    has_closing: bool = False
    open_sites: list[ast.AST] = field(default_factory=list)
    acquire_sites: list[ast.AST] = field(default_factory=list)
    has_file_close: bool = False
    has_release: bool = False


class InvariantChecker(ast.NodeVisitor):
    """Single-pass AST visitor evaluating every in-scope rule."""

    def __init__(self, *, rel_path: str, path: str) -> None:
        self.rel = rel_path.replace("\\", "/")
        self.path = path
        self.violations: list[Violation] = []
        self._module_aliases: dict[str, str] = {}
        self._from_imports: dict[str, str] = {}
        self._imported_modules: set[str] = set()
        self._loop_depth = 0
        self._fn_stack: list[_FunctionRecord] = []
        #: Call nodes that are `with`-item context expressions — their
        #: cleanup is structurally guaranteed, so RPL009 skips them.
        self._managed_calls: set[int] = set()

    # -- scoping ----------------------------------------------------------

    def _enabled(self, code: str) -> bool:
        rel = self.rel
        if not rel:
            return False
        if rel in _MODULE_EXCLUSIONS.get(code, frozenset()):
            return False
        prefixes = _PREFIX_SCOPES.get(code)
        if prefixes is not None:
            return any(rel.startswith(prefix) for prefix in prefixes)
        return rel in _MODULE_SCOPES[code]

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        if not self._enabled(code):
            return
        from .linter import Violation

        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    # -- import tracking --------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._imported_modules.add(alias.name)
            if alias.asname:
                self._module_aliases[alias.asname] = alias.name
            else:
                top = alias.name.split(".", 1)[0]
                self._module_aliases[top] = top
                self._imported_modules.add(top)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module and node.level == 0:
            self._imported_modules.add(module)
        for alias in node.names:
            bound = alias.asname or alias.name
            if module and node.level == 0:
                self._from_imports[bound] = f"{module}.{alias.name}"
        self.generic_visit(node)

    def _dotted(self, node: ast.expr) -> str | None:
        """Resolve an attribute chain to a canonical dotted name."""
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = current.id
        root = self._module_aliases.get(base) or self._from_imports.get(base) or base
        parts.append(root)
        return ".".join(reversed(parts))

    # -- structural visitors ----------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        self._fn_stack.append(_FunctionRecord())
        self.generic_visit(node)
        self._finalize_function(self._fn_stack.pop())

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        record = _FunctionRecord()
        self._fn_stack.append(record)
        saved_depth, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = saved_depth
        self._fn_stack.pop()
        self._finalize_function(record)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            self._managed_calls.add(id(item.context_expr))
        self.generic_visit(node)

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _finalize_function(self, record: _FunctionRecord) -> None:
        for site in record.open_sites:
            if not record.has_file_close:
                self._flag(
                    "RPL009",
                    site,
                    "file handle opened outside a 'with' block and this "
                    "function never close()s; use 'with open(...)' (or pair "
                    "the handle with close() in try/finally) so a long-lived "
                    "service cannot leak descriptors",
                )
        for site in record.acquire_sites:
            if not record.has_release:
                self._flag(
                    "RPL009",
                    site,
                    "lock acquire() outside a 'with' block and this function "
                    "never release()s; prefer 'with lock:' so every exit "
                    "path — including exceptions — releases it",
                )
        for site, kind in record.shm_sites:
            if kind == "create" and not record.has_unlink:
                self._flag(
                    "RPL003",
                    site,
                    "shared-memory block is created here but this function "
                    "never unlink()s on any path; guarantee cleanup with "
                    "try/finally (or hand ownership off under a reasoned "
                    "suppression)",
                )
            elif kind == "attach" and not record.has_closing:
                self._flag(
                    "RPL003",
                    site,
                    "shared-memory attach without a close()/release() in the "
                    "same function; pair every attach with release() (or "
                    "suppress with the ownership-transfer reason)",
                )

    def _visit_loop(self, node: ast.For | ast.AsyncFor | ast.While) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_set_iteration(node.iter)
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    def _visit_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp,
    ) -> None:
        for generator in node.generators:
            self._check_set_iteration(generator.iter)
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- RPL006: set iteration --------------------------------------------

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "set":
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self._is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_set_iteration(self, iter_expr: ast.expr) -> None:
        if self._is_set_expr(iter_expr):
            self._flag(
                "RPL006",
                iter_expr,
                "iteration over a set expression has arbitrary order, which "
                "breaks bit-identity the moment the loop body feeds a "
                "comparison or builds a list; iterate over "
                "sorted(<set>) instead",
            )

    # -- RPL007: __slots__ in hot modules ---------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._enabled("RPL007") and not self._class_is_slotted(node):
            self._flag(
                "RPL007",
                node,
                f"class '{node.name}' in a hot module has no __slots__; "
                "per-instance __dict__ costs memory and attribute-lookup "
                "time at paper scale — declare __slots__ (or "
                "@dataclass(slots=True))",
            )
        self.generic_visit(node)

    def _class_is_slotted(self, node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = self._dotted(base) or ""
            tail = name.rsplit(".", 1)[-1]
            if (
                tail in _SLOTLESS_EXEMPT_BASES
                or tail.endswith("Error")
                or tail.endswith("Exception")
            ):
                return True
        for statement in node.body:
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                name = self._dotted(decorator.func) or ""
                if name.rsplit(".", 1)[-1] == "dataclass":
                    for keyword in decorator.keywords:
                        if (
                            keyword.arg == "slots"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            return True
        return False

    # -- call-site rules ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        self._record_shm_activity(node, dotted)
        self._record_resource_activity(node, dotted)
        if dotted:
            self._check_wall_clock(node, dotted)
            self._check_randomness(node, dotted)
            self._check_heapq(node, dotted)
            self._check_pickle(node, dotted)
        self._check_scalar_charge(node)
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, dotted: str) -> None:
        if dotted in _WALL_CLOCK_CALLS:
            self._flag(
                "RPL001",
                node,
                f"wall-clock read '{dotted}()' in simulation/accounting "
                "code; simulated time must come from the EventCalendar so "
                "runs are bit-identical across hosts and repetitions",
            )

    def _check_randomness(self, node: ast.Call, dotted: str) -> None:
        if dotted.startswith("numpy.random."):
            tail = dotted.rsplit(".", 1)[-1]
            if tail not in _SEEDED_NUMPY_OK:
                self._flag(
                    "RPL002",
                    node,
                    f"legacy global-state RNG call '{dotted}()'; draw from a "
                    "numpy Generator threaded down from a seeded "
                    "default_rng(seed) entry point instead",
                )
            elif tail == "default_rng" and not node.args and not node.keywords:
                self._flag(
                    "RPL002",
                    node,
                    "default_rng() without a seed pulls OS entropy; thread "
                    "an explicit seed (or SeedSequence) through instead",
                )
        elif (
            dotted.startswith("random.")
            and "random" in self._imported_modules
            and dotted.rsplit(".", 1)[-1] != "Random"
        ):
            self._flag(
                "RPL002",
                node,
                f"stdlib global-state RNG call '{dotted}()'; use a seeded "
                "numpy Generator (or random.Random(seed) instance) so "
                "draws are reproducible and isolated",
            )

    def _check_heapq(self, node: ast.Call, dotted: str) -> None:
        if dotted.startswith("heapq."):
            self._flag(
                "RPL005",
                node,
                f"direct '{dotted}()' outside sim/events.py; event tuples "
                "must go through EventCalendar so the "
                "(time, kind, seq) tie-break stays the single source of "
                "event ordering",
            )

    def _check_pickle(self, node: ast.Call, dotted: str) -> None:
        if dotted.startswith("pickle.") or dotted.startswith("cPickle."):
            self._flag(
                "RPL008",
                node,
                f"'{dotted}()' in a module with a shared-memory transport; "
                "quote tables ship as shm descriptors "
                "(QuoteTable.to_shm()/attach()) — pickling one re-copies "
                "its columns into every worker",
            )

    def _check_scalar_charge(self, node: ast.Call) -> None:
        if self._loop_depth <= 0:
            return
        name = ""
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        if name == "charge":
            self._flag(
                "RPL004",
                node,
                "scalar charge() inside a loop in a batched module; price "
                "whole segment batches with charge_many()/a probe kernel — "
                "per-row charge() re-introduces the O(n) Python overhead "
                "the columnar kernels exist to avoid",
            )

    def _record_resource_activity(
        self, node: ast.Call, dotted: str | None
    ) -> None:
        """RPL009 bookkeeping: unmanaged open()/acquire() call sites and
        the close()/release() calls that may pair them."""
        if not self._fn_stack:
            return
        record = self._fn_stack[-1]
        name = ""
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        if name == "close":
            record.has_file_close = True
        elif "release" in name:
            record.has_release = True
        if not self._enabled("RPL009") or id(node) in self._managed_calls:
            return
        is_open = name == "open" or dotted in (
            "open",
            "io.open",
            "os.open",
            "os.fdopen",
        )
        if is_open:
            record.open_sites.append(node)
        elif name == "acquire":
            record.acquire_sites.append(node)

    def _record_shm_activity(self, node: ast.Call, dotted: str | None) -> None:
        if not self._fn_stack:
            return
        record = self._fn_stack[-1]
        name = ""
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        if "unlink" in name:
            record.has_unlink = True
            record.has_closing = True
        elif name == "close" or "release" in name:
            record.has_closing = True
        if not self._enabled("RPL003"):
            return
        if dotted and dotted.rsplit(".", 1)[-1] == "SharedMemory":
            created = any(
                keyword.arg == "create"
                and isinstance(keyword.value, ast.Constant)
                and bool(keyword.value.value)
                for keyword in node.keywords
            )
            record.shm_sites.append((node, "create" if created else "attach"))
        elif isinstance(node.func, ast.Attribute) and name in ("to_shm", "attach"):
            kind = "create" if name == "to_shm" else "attach"
            record.shm_sites.append((node, kind))
