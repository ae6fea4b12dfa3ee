"""The paper comparison: one record per table or figure of the paper's §4.

A record's rows each carry a label, the measured value, the paper's
value and, where a benchmark asserts it, a band: generous enough to
absorb the simulator and scale substitution (PAPER.md), tight enough to
catch a broken shape, and always containing the paper's own figure.
Each ``benchmarks/test_*.py`` paper table builds its record, prints it
and calls :meth:`Record.check`.  ``python -m benchmarks.paper`` rebuilds
and checks every record and rewrites the blocks between
``<!-- paper:ID -->`` and ``<!-- /paper:ID -->`` in EXPERIMENTS.md.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness import experiments as E
from repro.harness.complexity import complexity_report
from repro.harness.report import format_table, overhead_pct
from repro.nfs.backends.vendors import ALL_BACKENDS

PCT, SHARE, PP, SECONDS, COUNT = "{:+.0f}%", "{:.0f}%", "{:+.0f} pp", \
    "{:.3f}", "{:.0f}"
HEADERS = ("row", "paper", "measured", "asserted band")


@dataclass(frozen=True)
class Row:
    label: str
    measured: float
    paper: Optional[float] = None
    band: Optional[Tuple[float, float]] = None
    fmt: str = PCT

    def __post_init__(self):
        if self.band and not (self.paper is not None
                              and self.band[0] <= self.paper <= self.band[1]):
            raise ValueError(f"{self.label}: band {self.band} must contain "
                             f"the paper's figure {self.paper}")

    def cells(self) -> Tuple[str, str, str, str]:
        band = ""
        if self.band:
            low, high = (self.fmt.format(end) for end in self.band)
            band = f"≤ {high}" if self.band[0] == -math.inf \
                else f"[{low}, {high}]"
        paper = "–" if self.paper is None else self.fmt.format(self.paper)
        return self.label, paper, self.fmt.format(self.measured), band


@dataclass(frozen=True)
class Record:
    id: str
    title: str
    rows: List[Row]

    def check(self) -> "Record":
        for row in self.rows:
            assert not math.isnan(row.measured), (
                f"{self.title}, {row.label}: NaN (zero or negative "
                f"baseline — the benchmark measured nothing)")
            if row.band:
                assert row.band[0] <= row.measured <= row.band[1], (
                    f"{self.title}, {row.label}: {row.cells()[2]} outside "
                    f"the asserted band {row.cells()[3]}")
        return self

    def measured(self) -> Dict[str, float]:
        return {row.label: row.measured for row in self.rows}

    def __str__(self) -> str:
        return format_table(self.title, HEADERS,
                            [row.cells() for row in self.rows])

    def markdown(self) -> str:
        lines = ["| " + " | ".join(HEADERS) + " |",
                 "|---" * len(HEADERS) + "|"]
        lines += ["| " + " | ".join(row.cells()) + " |" for row in self.rows]
        return "\n".join(lines)


# -- the cached runs ----------------------------------------------------------

VENDORS = ("linux-ext2", "freebsd-ufs", "solaris-ufs", "openbsd-ffs")
TRAVERSALS = ("T1", "T6", "T2a", "T2b")
SCALES = {"100": E.ANDREW100, "500": E.ANDREW500}
#: Recovery (interval, stagger) by (scale, heterogeneous): the replicas
#: rejuvenate one at a time (reverse order; see RecoveryManager), scaled
#: from the paper's 80 s (A100), 250 s (A500) and 425 s (heterogeneous,
#: spaced widest because the slow replica refetches a lot).
CADENCE = {("100", False): (0.8, 1.1), ("500", False): (1.5, 3.3),
           ("100", True): (1.0, 3.0)}


@functools.lru_cache(maxsize=None)
def andrew_std(scale: str, vendor: str = "linux-ext2"):
    backend_class = next(c for c in ALL_BACKENDS if c.vendor == vendor)
    return E.run_andrew_std(SCALES[scale], backend_class=backend_class)


@functools.lru_cache(maxsize=None)
def andrew_basefs(scale: str, heterogeneous: bool = False,
                  recovery: bool = False):
    interval, stagger = CADENCE[scale, heterogeneous] if recovery \
        else (0.0, 0.0)
    return E.run_andrew_basefs(
        SCALES[scale], backend_classes=list(ALL_BACKENDS) if heterogeneous
        else None, recovery_interval=interval, recovery_stagger=stagger)


@functools.lru_cache(maxsize=None)
def oo7(system: str):
    run = E.run_oo7_std if system == "std" else E.run_oo7_base
    return run(list(TRAVERSALS))


def recoveries(run) -> list:
    return [rec for r in run.cluster.replicas for rec in r.recovery.records]


def slowest_recovery(run):
    records = recoveries(run)
    assert records, "no recoveries completed during the run"
    return max(records, key=lambda rec: rec.total)


# -- the records --------------------------------------------------------------

#: Tables I-II: Andrew seconds (BASEFS, NFS-std) for phases 1-5 and the
#: total; then Table III's BASEFS-PR total.
ANDREW = {"100": ([(0.9, 0.5), (49.2, 27.4), (45.4, 39.2), (44.7, 36.5),
                   (287.3, 234.7), (427.65, 338.3)], 448.2),
          "500": ([(5.0, 2.4), (248.2, 137.6), (231.5, 199.2),
                   (298.5, 238.1), (1545.5, 1247.1), (2328.7, 1824.4)],
                  2385.1)}
PHASES = ("phase 1 (mkdir)", "phase 2 (copy)", "phase 3 (stat)",
          "phase 4 (read)", "phase 5 (compile)", "total")
#: Replication costs tens of percent, never multiples; the write-heavy
#: phase 2 pays more than the compute-bound phase 5.
ANDREW_BANDS = {("100", "phase 2 (copy)"): (40, 130),
                ("100", "phase 5 (compile)"): (10, 40),
                ("100", "total"): (15, 45), ("500", "total"): (15, 45)}


def andrew(scale: str, number: int) -> Record:
    base, std = andrew_basefs(scale).result, andrew_std(scale).result
    paper = ANDREW[scale][0]
    rows = [Row(label, overhead_pct(b, s), overhead_pct(*p),
                ANDREW_BANDS.get((scale, label)))
            for label, b, s, p in zip(PHASES, base.row(), std.row(), paper)]
    rows += [Row("BASEFS total (s)", base.total, paper[5][0], fmt=SECONDS),
             Row("NFS-std total (s)", std.total, paper[5][1], fmt=SECONDS)]
    return Record(f"table{number}", f"Table {'I' * number}: Andrew{scale}, "
                  f"BASEFS over NFS-std (simulated)", rows)


table1 = functools.partial(andrew, "100", 1)
table2 = functools.partial(andrew, "500", 2)


def table3() -> Record:
    rows = []
    for scale in ("100", "500"):
        (*_, (paper_base, paper_std)), paper_pr = ANDREW[scale]
        pr, std = andrew_basefs(scale, recovery=True), andrew_std(scale)
        pct, paper = (overhead_pct(pr.result.total, std.result.total),
                      overhead_pct(paper_pr, paper_std))
        base = overhead_pct(andrew_basefs(scale).result.total,
                            std.result.total)
        rows += [
            Row(f"Andrew{scale}: BASEFS-PR vs NFS-std", pct, paper, (15, 60)),
            Row(f"Andrew{scale}: premium over BASEFS", pct - base,
                paper - overhead_pct(paper_base, paper_std), (-2, 25), PP),
            Row(f"Andrew{scale}: recoveries completed", len(recoveries(pr)),
                fmt=COUNT)]
    return Record("table3", "Table III: Andrew with proactive recovery "
                  "(simulated)", rows)


#: Table IV: the slowest recovery's phases, seconds (Andrew100, Andrew500).
RECOVERY = {"shutdown": (0.07, 0.32), "reboot": (30.05, 30.05),
            "restart": (0.18, 0.97), "fetch_and_check": (18.28, 141.37),
            "total": (48.58, 172.71)}


def table4() -> Record:
    rows = []
    for i, scale in enumerate(("100", "500")):
        rec = slowest_recovery(andrew_basefs(scale, recovery=True))
        rows += [Row(f"A{scale} {phase.replace('_and_', '+')}",
                     getattr(rec, phase), paper[i], fmt=SECONDS)
                 for phase, paper in RECOVERY.items()]
        rows.append(Row(f"A{scale} fetch+check share of total",
                        100 * rec.fetch_and_check / rec.total,
                        100 * RECOVERY["fetch_and_check"][i]
                        / RECOVERY["total"][i], fmt=SHARE))
    return Record("table4", "Table IV: slowest recovery by phase (seconds, "
                  f"simulated; reboot scaled to {E.REBOOT_DELAY} s)", rows)


#: Table V: Andrew100 seconds in the heterogeneous setup, and its rows:
#: label, system, the system it is compared against, band.
HETEROGENEOUS = {"linux-ext2": 338.3, "freebsd-ufs": 848.4,
                 "solaris-ufs": 1009.2, "openbsd-ffs": 1599.1,
                 "het": 1662.2, "het-pr": 1950.6}
TABLE5 = (("FreeBSD/UFS vs Linux", "freebsd-ufs", "linux-ext2", (100, 220)),
          ("Solaris/UFS vs Linux", "solaris-ufs", "linux-ext2", None),
          ("OpenBSD/FFS vs Linux", "openbsd-ffs", "linux-ext2", (280, 480)),
          ("BASEFS-het vs Linux", "het", "linux-ext2", (180, 450)),
          ("BASEFS-het vs Solaris", "het", "solaris-ufs", None),
          ("BASEFS-het vs OpenBSD", "het", "openbsd-ffs", (-math.inf, 30)),
          ("BASEFS-het-PR vs BASEFS-het", "het-pr", "het", (0, 100)))


def table5() -> Record:
    seconds = {v: andrew_std("100", vendor=v).result.total for v in VENDORS}
    seconds["het"] = andrew_basefs("100", heterogeneous=True).result.total
    seconds["het-pr"] = andrew_basefs("100", heterogeneous=True,
                                      recovery=True).result.total
    return Record("table5", "Table V: Andrew100, heterogeneous setup "
                  "(simulated)", [
                      Row(label, *(overhead_pct(s[system], s[against])
                                   for s in (seconds, HETEROGENEOUS)), band)
                      for label, system, against, band in TABLE5])


#: Figures 6-7: what each traversal does, BASE-Thor's overhead over Thor
#: in percent, and its band.
OO7 = {"T1": ("full DFS", 39, (20, 60)), "T6": ("roots only", 29, (15, 50)),
       "T2a": ("update roots", 38, (20, 65)),
       "T2b": ("update every part", 45, (25, 70))}


def oo7_figure(number: int, kind: str, names: Tuple[str, ...]) -> Record:
    rows = []
    for name in names:
        std, base = (oo7(system).results[name] for system in ("std", "base"))
        what, paper, band = OO7[name]
        rows.append(Row(f"{name} ({what})",
                        overhead_pct(base.total, std.total), paper, band))
        rows += [Row(f"{name} commit share, {system}",
                     100 * run.commit_seconds / run.total, fmt=SHARE)
                 for system, run in (("Thor", std), ("BASE-Thor", base))]
    return Record(f"fig{number}", f"Figure {number}: OO7 cold {kind} "
                  f"traversals, BASE-Thor over Thor (simulated)", rows)


fig6 = functools.partial(oo7_figure, 6, "read-only", ("T1", "T6"))
fig7 = functools.partial(oo7_figure, 7, "read-write", ("T2a", "T2b"))


#: §4.3: the paper's semicolon counts, against our AST statement counts.
NFS_NEW = ("NFS conformance wrapper", "NFS state conversions",
           "NFS abstract spec")
NFS_TOTAL = "NFS new code (wrapper, conversions, spec)"
NEW_VS_REUSED = (
    ("NFS", NFS_TOTAL, "wrapped NFS implementations"),
    ("Thor", "Thor conformance wrapper + conversions",
     "wrapped Thor implementation"))
STATEMENTS = {NFS_NEW[0]: 624, NFS_NEW[1]: 481, NFS_TOTAL: 624 + 481,
              NEW_VS_REUSED[0][2]: 17735, NEW_VS_REUSED[1][1]: 658,
              NEW_VS_REUSED[1][2]: 37055}


def sec43() -> Record:
    counts = {row.component: row.statements for row in complexity_report()}
    counts[NFS_TOTAL] = sum(counts[name] for name in NFS_NEW)
    rows = [Row(name, count, STATEMENTS.get(name), fmt=COUNT)
            for name, count in counts.items()]
    rows += [Row(f"{label} new / reused",
                 *(100 * c[new] / c[reused] for c in (counts, STATEMENTS)),
                 fmt=SHARE)
             for label, new, reused in NEW_VS_REUSED]
    return Record("sec43", "Section 4.3: code complexity (AST statements; "
                  "the paper counts semicolons)", rows)


# -- EXPERIMENTS.md -----------------------------------------------------------

BLOCK = re.compile(r"<!-- paper:(\S+) -->\n.*?<!-- /paper:\1 -->", re.S)


def splice(text: str, records: List[Record]) -> str:
    """Rewrite each marked block from its record; every byte outside the
    markers stays as it was."""
    by_id = {record.id: record for record in records}
    markers = re.findall(r"<!-- /?paper:(\S+) -->", text)
    if sorted(markers) != sorted(2 * list(by_id)) \
            or sorted(BLOCK.findall(text)) != sorted(by_id):
        raise ValueError(f"paper markers {sorted(markers)} do not pair one "
                         f"to one with the records {sorted(by_id)}")
    return BLOCK.sub(lambda m: f"<!-- paper:{m[1]} -->\n"
                     f"{by_id[m[1]].markdown()}\n<!-- /paper:{m[1]} -->",
                     text)


def main() -> None:
    path = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
    records = [build().check() for build in (table1, table2, table3, table4,
                                             table5, fig6, fig7, sec43)]
    text = path.read_text(encoding="utf-8")
    path.write_text(splice(text, records), encoding="utf-8")


if __name__ == "__main__":
    main()
