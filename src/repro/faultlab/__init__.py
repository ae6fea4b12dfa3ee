"""FaultLab: deterministic fault exploration for the BASE reproduction.

The whole point of BASE is surviving Byzantine faults in off-the-shelf
implementations; FaultLab turns the repo's ad-hoc fault tests into a
systematic, seed-reproducible exploration engine:

- :mod:`repro.faultlab.plan` — a declarative **FaultPlan** DSL composing
  Byzantine replica behaviors, network chaos (partitions, loss bursts,
  delay spikes), faulty service backends, crashes, and proactive-recovery
  schedules;
- :mod:`repro.faultlab.injector` — applies a plan onto a simulated
  cluster, emitting ``fault_injected``/``fault_cleared`` trace events;
- :mod:`repro.faultlab.invariants` — safety/liveness checkers run against
  every trial: agreement, reply validity, state convergence, bounded
  progress;
- :mod:`repro.faultlab.explorer` — seeded trial runner, sweep, and the
  shrinker that reduces a failing plan to a minimal still-failing one;
- :mod:`repro.faultlab.scenarios` — the scenario registry the sweep and
  the ``faultlab-smoke`` CI job iterate;
- :mod:`repro.faultlab.report` — the versioned JSON reports.

CLI: ``python -m repro.faultlab {list,run,sweep}``.
"""
