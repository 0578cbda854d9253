"""DET — determinism rules for the reproducibility-critical layers.

The repo's headline contract is byte-identical results: same seed, same
bytes, regardless of backend, worker count, or host (see
``tests/test_determinism.py`` and the flow cache's content-addressed
keys).  These rules guard the three ways that contract historically
breaks:

* ``DET001`` — an RNG without an explicit seed (``default_rng()``,
  ``random.Random()``) or any call into the *global* RNG state
  (``np.random.rand``, ``random.shuffle``): results then depend on
  process history.
* ``DET002`` — wall-clock reads (``time.time``, ``datetime.now``):
  timestamps leak into artifacts and keys.  ``time.monotonic`` /
  ``time.perf_counter`` stay legal — they measure duration, never
  escape into outputs.
* ``DET003`` — iterating a set (or ``frozenset``) into an ordered
  product (``list(set(...))``, a ``for`` over a set literal, a
  comprehension over a set): set order is salted per process, so the
  output ordering differs run to run.  Sort first (``sorted(set(x))``).

Scope: ``repro.ml``, ``repro.core``, ``repro.baselines``,
``repro.dse.cache`` (the content-addressed key builder) and the flow
stages that produce the ground truth (``repro.arch``, ``repro.library``,
``repro.rtl``, ``repro.synthesis``, ``repro.sim``, ``repro.power``,
``repro.vlsi``) — the layers whose outputs are hashed into flow-cache
entries, persisted, or compared byte-for-byte.
Serving-side telemetry legitimately wants wall-clock time, so
``repro.serving`` is deliberately out of scope.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.engine import FileContext, Finding, Rule, dotted_name, register

#: Module prefixes whose outputs must be byte-identical across runs.
DETERMINISTIC_PREFIXES = (
    "repro.ml",
    "repro.core",
    "repro.baselines",
    "repro.dse.cache",
    # The flow stages: their outputs are the ground truth and the
    # content of every flow-cache entry.
    "repro.arch",
    "repro.library",
    "repro.rtl",
    "repro.synthesis",
    "repro.sim",
    "repro.power",
    "repro.vlsi",
)

# RNG factories that are deterministic *only* when given a seed.
_SEEDED_FACTORIES = {
    "np.random.default_rng",
    "numpy.random.default_rng",
    "np.random.RandomState",
    "numpy.random.RandomState",
    "np.random.Generator",
    "numpy.random.Generator",
    "random.Random",
}
# ``from numpy.random import default_rng`` style aliases.
_FACTORY_IMPORTS = {
    ("numpy.random", "default_rng"),
    ("numpy.random", "RandomState"),
    ("random", "Random"),
}
_SEED_KEYWORDS = {"seed", "random_state"}

# Calls into module-global RNG state: never legal in deterministic
# layers, seeded or not — global state is shared across the process.
_GLOBAL_STATE_CALLS = {
    f"{mod}.{fn}"
    for mod in ("np.random", "numpy.random")
    for fn in (
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "seed",
    )
} | {
    f"random.{fn}"
    for fn in (
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "seed",
        "betavariate",
        "expovariate",
    )
}

# Wall-clock reads; monotonic/perf_counter are fine (durations only).
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}

# Calls that materialize an iterable into an *ordered* product.
_ORDERING_CALLS = {"list", "tuple", "enumerate"}


def _is_set_expr(node: ast.AST, aliases: set[str]) -> bool:
    """Whether ``node`` syntactically produces a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra (a | b, a - b) keeps set-ness if either side is one
        return _is_set_expr(node.left, aliases) or _is_set_expr(node.right, aliases)
    if isinstance(node, ast.Name) and node.id in aliases:
        return True
    return False


class _DetRule(Rule):
    def applies(self, ctx: FileContext) -> bool:
        return ctx.module_is(*DETERMINISTIC_PREFIXES)


@register
class UnseededRandomRule(_DetRule):
    id = "DET001"
    name = "unseeded-rng"
    description = (
        "RNG constructed without an explicit seed, or call into global "
        "RNG state, in a deterministic layer"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        # Resolve `from numpy.random import default_rng as X` aliases.
        local_factories: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if (node.module, alias.name) in _FACTORY_IMPORTS:
                        local = alias.asname or alias.name
                        local_factories[local] = f"{node.module}.{alias.name}"
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            canonical = local_factories.get(name, name)
            if canonical in _GLOBAL_STATE_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"call into global RNG state '{name}()' — construct a "
                    "seeded Generator (np.random.default_rng(seed)) and "
                    "thread it through instead",
                )
            elif name in _SEEDED_FACTORIES or canonical in _SEEDED_FACTORIES:
                seeded = bool(node.args) or any(
                    kw.arg in _SEED_KEYWORDS for kw in node.keywords
                )
                if not seeded:
                    yield self.finding(
                        ctx,
                        node,
                        f"'{name}()' without an explicit seed — pass the "
                        "seed (or random_state) so reruns are byte-identical",
                    )


@register
class WallClockRule(_DetRule):
    id = "DET002"
    name = "wall-clock"
    description = (
        "wall-clock read (time.time, datetime.now) in a deterministic "
        "layer; use time.monotonic for durations"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read '{name}()' in a deterministic layer — "
                    "timestamps make artifacts differ between identical "
                    "runs; use time.monotonic()/perf_counter() for "
                    "durations, or stamp at the reporting boundary",
                )


@register
class SetOrderingRule(_DetRule):
    id = "DET003"
    name = "set-iteration-order"
    description = (
        "set iterated into an ordered product (list(set(..)), for-loop "
        "or comprehension over a set); sort first"
    )

    _ADVICE = "set iteration order is salted per process — use sorted(...)"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        # Track names assigned directly from set expressions so
        # `s = set(x); for v in s:` is caught too (single-file, best
        # effort — reassignments to non-sets clear the alias).
        aliases: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value, aliases):
                        aliases.add(target.id)
                    else:
                        aliases.discard(target.id)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter, aliases):
                yield self.finding(
                    ctx, node.iter, f"for-loop over a set: {self._ADVICE}"
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter, aliases):
                        yield self.finding(
                            ctx,
                            gen.iter,
                            f"comprehension over a set: {self._ADVICE}",
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name in _ORDERING_CALLS
                    and node.args
                    and _is_set_expr(node.args[0], aliases)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"'{name}()' over a set: {self._ADVICE}",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and _is_set_expr(node.args[0], aliases)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"str.join over a set: {self._ADVICE}",
                    )
