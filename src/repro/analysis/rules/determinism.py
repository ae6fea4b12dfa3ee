"""Determinism rules: every run must be a pure function of (scenario, seed).

No unseeded randomness, no wall-clock or entropy reads, and
``time.perf_counter`` only in the declared reporting modules.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from repro.analysis.config import (DATETIME_READS, GLOBAL_RNG_CALLS,
                                   WALL_CLOCK_READS)
from repro.analysis.engine import FileContext, Rule


def dotted_call(node: ast.Call) -> Optional[Tuple[str, str]]:
    """(module, attr) for ``module.attr(...)`` style calls, else None.

    For deeper chains like ``datetime.datetime.now(...)`` the *last two*
    components are returned, which is what the rules match on.
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    if isinstance(func.value, ast.Attribute):
        return (func.value.attr, func.attr)
    return None


class UnseededRandomRule(Rule):
    rule_id = "DET-RNG"
    title = "No unseeded randomness"
    rationale = ("Replicas and FaultLab replay require every random draw "
                 "to come from a seeded, per-trial Random instance; the "
                 "process-global RNG and the OS entropy pool make runs "
                 "irreproducible.")
    example = "value = random.choice(options)"
    node_types = (ast.Call, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                names = sorted(a.name for a in node.names
                               if a.name in GLOBAL_RNG_CALLS)
                if names:
                    ctx.report(self, node,
                               f"from random import {', '.join(names)} "
                               f"binds the unseeded global RNG")
            elif node.module == "secrets":
                ctx.report(self, node, "secrets draws from the OS entropy "
                                       "pool (irreproducible)")
            return
        target = dotted_call(node)
        if target is None:
            return
        module, attr = target
        if module == "random" and attr in GLOBAL_RNG_CALLS:
            ctx.report(self, node,
                       f"random.{attr} uses the unseeded global RNG; draw "
                       f"from a seeded random.Random instance instead")
        elif module == "random" and attr == "Random" and \
                not node.args and not node.keywords:
            ctx.report(self, node,
                       "random.Random() without a seed reads OS entropy; "
                       "pass an explicit seed")
        elif module == "secrets":
            ctx.report(self, node,
                       f"secrets.{attr} draws from the OS entropy pool "
                       f"(irreproducible)")


class WallClockRule(Rule):
    rule_id = "DET-CLOCK"
    title = "No wall-clock or entropy reads"
    rationale = ("Simulated time comes from the scheduler; reading the "
                 "host clock (or uuid1/uuid4, which mix in clock and "
                 "entropy) makes outcomes depend on when the run happened.")
    example = "started = time.time()"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        target = dotted_call(node)
        if target is None:
            return
        module, attr = target
        if target in WALL_CLOCK_READS:
            ctx.report(self, node,
                       f"{module}.{attr} reads the wall clock / OS entropy; "
                       f"use the simulator clock (scheduler.now)")
        elif module == "datetime" and attr in DATETIME_READS:
            ctx.report(self, node,
                       f"datetime.{attr} reads the wall clock; timestamps "
                       f"must come from simulated time")


class PerfCounterRule(Rule):
    rule_id = "DET-PERF"
    title = "perf_counter only in reporting modules"
    rationale = ("time.perf_counter is allowed only where it measures "
                 "wall time *about* a run (benchmark reporting) and never "
                 "feeds back into protocol behavior.")
    example = "t0 = time.perf_counter()  # outside the allowlist"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        target = dotted_call(node)
        if target is None:
            return
        module, attr = target
        if module == "time" and attr in ("perf_counter", "perf_counter_ns") \
                and not ctx.config.perf_counter_ok(ctx.rel):
            ctx.report(self, node,
                       f"time.{attr} outside the reporting allowlist; "
                       f"wall-clock measurement belongs in report/metrics "
                       f"modules only")
