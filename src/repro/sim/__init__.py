"""Deterministic discrete-event simulation kernel.

The BFT/BASE protocols in this repository run on top of a simulated
asynchronous network rather than real sockets.  This keeps every run
deterministic (given a seed), lets tests explore Byzantine schedules
reproducibly, and lets the benchmark harness charge a calibrated cost
model for network, CPU, crypto, and disk time.

The kernel is deliberately small:

- :class:`~repro.sim.scheduler.Scheduler` — a priority queue of timed
  callbacks (the event loop).
- :class:`~repro.sim.network.Network` — unreliable, delay-injecting
  point-to-point and multicast message delivery between registered nodes.
- :class:`~repro.sim.node.Node` — base class for protocol participants
  with timer helpers.
- :class:`~repro.sim.tracing.Tracer` — structured event ring with
  counters, used by the benchmark harness.
- :class:`~repro.sim.metrics.Metrics` — counters/histograms with
  percentile summaries, exportable as JSON or harness tables.
"""
