"""Table IV — maximum time to complete a recovery, by phase.

Shape to reproduce: the reboot is a fixed cost; shutdown/restart are
negligible; fetch-and-check grows with the state size and comes to rival
then dominate the reboot as the state grows.
"""

from benchmarks import paper
from benchmarks.conftest import run_once
from repro.harness.experiments import REBOOT_DELAY


def test_table4_recovery_breakdown(benchmark):
    record = run_once(benchmark, paper.table4)
    print(f"\n{record}")
    record.check()

    rec100 = paper.slowest_recovery(paper.andrew_basefs("100", recovery=True))
    rec500 = paper.slowest_recovery(paper.andrew_basefs("500", recovery=True))
    assert rec100.reboot == REBOOT_DELAY
    assert rec500.reboot == REBOOT_DELAY
    # Shutdown/restart are negligible next to the reboot.
    assert rec100.shutdown < 0.1 * rec100.reboot
    assert rec100.restart < 0.1 * rec100.reboot
    # Fetch-and-check grows with the state...
    assert rec500.fetch_and_check > 1.5 * rec100.fetch_and_check
    # ...and rivals/overtakes the fixed reboot at the larger scale, while
    # staying below it at the smaller one, as in the paper.
    assert rec100.fetch_and_check < rec100.reboot
    assert rec500.fetch_and_check > 0.5 * rec500.reboot
    share500 = rec500.fetch_and_check / rec500.total
    share100 = rec100.fetch_and_check / rec100.total
    assert share500 > share100, "fetch+check share must grow with state"
