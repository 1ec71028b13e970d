"""Per-file determinism lint rules.

Each rule is an :class:`ast.NodeVisitor` targeting one reproducibility
hazard this repo has been bitten by (or guards against with golden
fixtures).  Rules carry a stable name and an optional *scope*: directory
names the rule is confined to, so e.g. wall-clock reads are flagged
inside ``sim/`` and ``core/`` (the deterministic hot paths) but not in
``benchmarks/`` where timing is the point.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .diagnostics import Diagnostic

__all__ = ["Rule", "RuleContext", "PER_FILE_RULES"]


@dataclass
class RuleContext:
    """What a rule checker gets to see for one file."""

    path: str                       # path string used in diagnostics
    parts: tuple[str, ...]          # path components relative to the package
    tree: ast.AST
    diagnostics: list[Diagnostic] = field(default_factory=list)


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    name: str
    description: str
    check: Callable[["RuleContext", "Rule"], None]
    scope: tuple[str, ...] = ()     # directory names; empty = everywhere

    def applies_to(self, parts: Sequence[str]) -> bool:
        if not self.scope:
            return True
        return any(p in self.scope for p in parts[:-1])


def _emit(ctx: RuleContext, rule: Rule, node: ast.AST, message: str) -> None:
    ctx.diagnostics.append(
        Diagnostic(
            rule.name, ctx.path,
            getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
            message,
            end_line=getattr(node, "end_lineno", None),
            end_col=getattr(node, "end_col_offset", None),
        )
    )


class _ImportTracker(ast.NodeVisitor):
    """Shared base: resolves local aliases of modules we care about.

    Tracks ``import numpy as np`` / ``import random`` / ``from numpy
    import random as npr`` style bindings so rules can recognise
    attribute chains through whatever alias the file chose.
    """

    def __init__(self, ctx: RuleContext, rule: Rule):
        self.ctx = ctx
        self.rule = rule
        self.module_aliases: dict[str, str] = {}   # local name -> module path
        self.name_imports: dict[str, str] = {}     # local name -> "mod.attr"

    def visit_Import(self, node: ast.Import):
        for a in node.names:
            self.module_aliases[a.asname or a.name.split(".")[0]] = (
                a.name if a.asname else a.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom):
        if node.module and node.level == 0:
            for a in node.names:
                self.name_imports[a.asname or a.name] = f"{node.module}.{a.name}"
        self.generic_visit(node)

    def qualified(self, node: ast.expr) -> str | None:
        """Best-effort dotted path of a call target, alias-resolved."""
        parts: list[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            root = cur.id
            if root in self.module_aliases:
                parts.append(self.module_aliases[root])
            elif root in self.name_imports:
                parts.append(self.name_imports[root])
            else:
                parts.append(root)
            return ".".join(reversed(parts))
        return None


# ---------------------------------------------------------------------------
# unseeded-rng
# ---------------------------------------------------------------------------

# Module-state samplers: calling these draws from (or reseeds) a hidden
# global stream, so results depend on everything else that touched it.
_RANDOM_MODULE_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "lognormvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "triangular", "getrandbits", "seed", "setstate",
    "randbytes",
}
_NP_RANDOM_MODULE_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "seed", "exponential", "poisson", "binomial",
    "beta", "gamma", "bytes", "random_integers", "get_state", "set_state",
}


class _UnseededRng(_ImportTracker):
    def visit_Call(self, node: ast.Call):
        q = self.qualified(node.func)
        if q is not None:
            if q.startswith("random.") and q.split(".")[-1] in _RANDOM_MODULE_FNS:
                _emit(
                    self.ctx, self.rule, node,
                    f"call to stdlib module-state RNG '{q}': draws from the "
                    f"hidden global stream — use a seeded random.Random(seed) "
                    f"instance instead",
                )
            elif (
                ".random." in f".{q}." or q.endswith(".random")
            ) and q.split(".")[0] in ("numpy", "np") \
                    and q.split(".")[-1] in _NP_RANDOM_MODULE_FNS:
                _emit(
                    self.ctx, self.rule, node,
                    f"call to numpy module-state RNG '{q}': global-stream "
                    f"draws are order-dependent — use "
                    f"np.random.default_rng(seed)",
                )
            elif q.split(".")[-1] in ("default_rng", "RandomState", "Random") and (
                q.split(".")[0] in ("numpy", "np", "random")
                or q in ("default_rng", "RandomState")
                or ".random." in f".{q}."
            ):
                seed = node.args[0] if node.args else next(
                    (k.value for k in node.keywords if k.arg == "seed"), None
                )
                if not node.args and not node.keywords:
                    _emit(
                        self.ctx, self.rule, node,
                        f"'{q}()' without a seed: the generator is seeded "
                        f"from OS entropy and every run differs — pass an "
                        f"explicit seed",
                    )
                elif isinstance(seed, ast.Constant) and seed.value is None:
                    _emit(
                        self.ctx, self.rule, node,
                        f"a None seed makes '{q}' seed itself from OS "
                        f"entropy — pass an explicit integer seed",
                    )
        self.generic_visit(node)


def _check_unseeded_rng(ctx: RuleContext, rule: Rule) -> None:
    _UnseededRng(ctx, rule).visit(ctx.tree)


# ---------------------------------------------------------------------------
# wall-clock
# ---------------------------------------------------------------------------

_CLOCK_FNS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "datetime.now",
    "datetime.utcnow", "date.today",
}


class _WallClock(_ImportTracker):
    def visit_Call(self, node: ast.Call):
        q = self.qualified(node.func)
        if q in _CLOCK_FNS:
            _emit(
                self.ctx, self.rule, node,
                f"wall-clock read '{q}()' in a deterministic hot path: "
                f"simulated time must come from the engine clock "
                f"(Simulator.now), never the host clock",
            )
        self.generic_visit(node)


def _check_wall_clock(ctx: RuleContext, rule: Rule) -> None:
    _WallClock(ctx, rule).visit(ctx.tree)


# ---------------------------------------------------------------------------
# unordered-iteration
# ---------------------------------------------------------------------------


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    """Is this expression an unordered collection (a set)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name) and f.id in ("set", "frozenset"):
            return True
        if isinstance(f, ast.Attribute) and f.attr in (
            "intersection", "union", "difference", "symmetric_difference",
        ):
            return _is_set_expr(f.value, set_names)
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


class _HasAccumulation(ast.NodeVisitor):
    """Does a loop body accumulate order-sensitively?"""

    def __init__(self):
        self.found: ast.AST | None = None

    def visit_AugAssign(self, node: ast.AugAssign):
        if isinstance(node.op, (ast.Add, ast.Mult, ast.Sub, ast.Div)):
            if self.found is None:
                self.found = node
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "append":
            if self.found is None:
                self.found = node
        self.generic_visit(node)


class _UnorderedIteration(ast.NodeVisitor):
    """Iteration over a set feeding an order-sensitive accumulation.

    Float addition is not associative: summing over a set visits elements
    in hash order, which depends on insertion history — two logically
    equal sets can produce different float totals.  Solver and simulator
    hot paths must iterate in ``sorted(...)`` order (or not use sets).
    """

    def __init__(self, ctx: RuleContext, rule: Rule):
        self.ctx = ctx
        self.rule = rule
        self.set_names: set[str] = set()

    def _bind(self, target: ast.expr, value: ast.expr | None) -> None:
        # Track local names bound to set expressions so `s = set(...);
        # for x in s:` is seen through.
        if isinstance(target, ast.Name) and value is not None:
            if _is_set_expr(value, self.set_names):
                self.set_names.add(target.id)
            else:
                self.set_names.discard(target.id)

    def visit_Assign(self, node: ast.Assign):
        if len(node.targets) == 1:
            self._bind(node.targets[0], node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign):
        self._bind(node.target, node.value)
        self.generic_visit(node)

    def visit_For(self, node: ast.For):
        if _is_set_expr(node.iter, self.set_names):
            probe = _HasAccumulation()
            for stmt in node.body:
                probe.visit(stmt)
            if probe.found is not None:
                _emit(
                    self.ctx, self.rule, node,
                    "iteration over a set feeds an order-sensitive "
                    "accumulation: set order depends on insertion history, "
                    "so float totals are not reproducible — iterate "
                    "sorted(...) instead",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        f = node.func
        name = None
        if isinstance(f, ast.Name):
            name = f.id
        elif isinstance(f, ast.Attribute):
            name = f.attr
        if name in ("sum", "fsum") and node.args:
            arg = node.args[0]
            if _is_set_expr(arg, self.set_names) or (
                isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                and any(
                    _is_set_expr(g.iter, self.set_names)
                    for g in arg.generators
                )
            ):
                _emit(
                    self.ctx, self.rule, node,
                    f"'{name}()' over a set: the reduction order follows "
                    f"hash order, so float results depend on insertion "
                    f"history — reduce over sorted(...) instead",
                )
        self.generic_visit(node)


def _check_unordered_iteration(ctx: RuleContext, rule: Rule) -> None:
    _UnorderedIteration(ctx, rule).visit(ctx.tree)


# ---------------------------------------------------------------------------
# mutable-default
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = {
    "list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
    "deque", "bytearray",
}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else (
            f.attr if isinstance(f, ast.Attribute) else None
        )
        return name in _MUTABLE_CALLS
    return False


class _MutableDefault(ast.NodeVisitor):
    def __init__(self, ctx: RuleContext, rule: Rule):
        self.ctx = ctx
        self.rule = rule

    def _check_args(self, node):
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if _is_mutable_default(default):
                _emit(
                    self.ctx, self.rule, default,
                    f"mutable default argument in "
                    f"'{getattr(node, 'name', '<lambda>')}': the object is "
                    f"shared across calls — default to None and build it in "
                    f"the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef):
        self._check_args(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef):
        self._check_args(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda):
        self._check_args(node)
        self.generic_visit(node)


def _check_mutable_default(ctx: RuleContext, rule: Rule) -> None:
    _MutableDefault(ctx, rule).visit(ctx.tree)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

PER_FILE_RULES: tuple[Rule, ...] = (
    Rule(
        "unseeded-rng",
        "module-state or entropy-seeded RNG use (non-reproducible draws)",
        _check_unseeded_rng,
    ),
    Rule(
        "wall-clock",
        "host-clock read inside the deterministic sim/ and core/ paths",
        _check_wall_clock, scope=("sim", "core"),
    ),
    Rule(
        "unordered-iteration",
        "set iteration feeding order-sensitive (float) accumulation in "
        "solver/simulator hot paths",
        _check_unordered_iteration, scope=("sim", "core"),
    ),
    Rule(
        "mutable-default",
        "mutable default argument shared across calls",
        _check_mutable_default,
    ),
)
