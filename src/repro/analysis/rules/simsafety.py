"""Simulation-safety rules: protocol code runs *inside* the simulator.

Nothing in a protocol package may block, spawn threads, open sockets or
processes, or touch the real filesystem — the discrete-event scheduler
is the only source of time and the in-memory network the only transport.
A single `time.sleep` in a message handler would stall the whole
simulated cluster; a real socket would leak nondeterminism from the OS.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import FileContext, Rule
from repro.analysis.rules.determinism import dotted_call

#: Modules that imply real concurrency or real I/O channels.
BLOCKING_MODULES = frozenset({
    "threading", "socket", "subprocess", "multiprocessing", "asyncio",
    "selectors", "signal", "queue",
})

#: Method names that are real-file reads/writes when called on anything.
PATH_IO_METHODS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})


class RealConcurrencyRule(Rule):
    rule_id = "SIM-BLOCK"
    title = "No threads, sockets, processes, or sleeps in protocol code"
    rationale = ("Protocol modules execute inside the deterministic "
                 "simulator: real threads/sockets/processes reintroduce "
                 "OS scheduling nondeterminism, and time.sleep stalls the "
                 "event loop instead of advancing simulated time.")
    example = "time.sleep(0.1)  # inside a replica handler"
    node_types = (ast.Import, ast.ImportFrom, ast.Call)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.config.in_protocol(ctx.rel)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".", 1)[0]
                if top in BLOCKING_MODULES:
                    ctx.report(self, node,
                               f"import {alias.name}: real concurrency/IO "
                               f"module in protocol code")
            return
        if isinstance(node, ast.ImportFrom):
            top = (node.module or "").split(".", 1)[0]
            if top in BLOCKING_MODULES:
                ctx.report(self, node,
                           f"from {node.module} import ...: real "
                           f"concurrency/IO module in protocol code")
            return
        target = dotted_call(node)
        if target == ("time", "sleep"):
            ctx.report(self, node,
                       "time.sleep blocks the real thread; schedule a "
                       "timer on the simulator instead")


class RealIORule(Rule):
    rule_id = "SIM-IO"
    title = "No real file I/O in protocol code"
    rationale = ("Replicated services hold their state in memory behind "
                 "the abstraction wrapper; reading or writing real files "
                 "couples a replica to its host filesystem and breaks "
                 "both determinism and the recovery model.")
    example = "open(path).read()  # inside a wrapper"
    node_types = (ast.Call,)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.config.in_protocol(ctx.rel)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            ctx.report(self, node,
                       "open() performs real file I/O in protocol code")
        elif isinstance(func, ast.Attribute) and \
                func.attr in PATH_IO_METHODS:
            ctx.report(self, node,
                       f".{func.attr}() performs real file I/O in "
                       f"protocol code")
