"""Ablation — what the wrapper's serialization costs (§2.4).

The prototype issues read-write requests to the backend one at a time.
Using the conflict analyzer on the actual request stream of an Andrew
run, this bench reports the idealized speedup wave-parallel execution
would allow — the paper's "we could improve performance by implementing
a simple form of concurrency control in the wrapper" quantified.
"""

from repro.harness.report import format_table
from repro.nfs.backends.vendors import LinuxExt2Backend
from repro.nfs.client import NfsClient
from repro.nfs.concurrency import concurrent_speedup, schedule_waves
from repro.nfs.service import NFS_SERVICE
from repro.service.deploy import UnreplicatedDeployment
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig


def capture_request_stream():
    """Record the ops an Andrew run issues, batched by arrival bursts."""
    transport = UnreplicatedDeployment.build(NFS_SERVICE,
                                             LinuxExt2Backend).client
    stream = []
    original = transport.call

    def recording(proc, *args, read_only=False):
        from repro.encoding.canonical import canonical
        stream.append(canonical((proc.value,) + args))
        return original(proc, *args, read_only=read_only)

    transport.call = recording
    fs = NfsClient(transport)
    AndrewBenchmark(fs, AndrewConfig(copies=4)).run()
    return stream


def test_ablation_wrapper_concurrency(benchmark):
    stream = benchmark.pedantic(capture_request_stream, rounds=1,
                                iterations=1)
    # Analyze in batches the size the primary would actually assemble.
    batch_sizes = (4, 8, 16)
    rows = []
    for size in batch_sizes:
        batches = [stream[i:i + size] for i in range(0, len(stream), size)]
        speedups = [concurrent_speedup(batch) for batch in batches]
        avg = sum(speedups) / len(speedups)
        best = max(speedups)
        rows.append((size, f"{avg:.2f}x", f"{best:.2f}x"))
    print()
    print(format_table(
        "Ablation: idealized wrapper concurrency (Andrew request stream)",
        ["batch size", "mean speedup", "best batch"], rows,
        note=f"{len(stream)} requests analyzed; creates serialize through "
             "the deterministic entry allocator, reads parallelize."))

    # Shape: real request streams have exploitable parallelism, but
    # nothing close to perfect (directory and allocator conflicts bite).
    batches16 = [stream[i:i + 16] for i in range(0, len(stream), 16)]
    avg16 = sum(concurrent_speedup(b) for b in batches16) / len(batches16)
    assert 1.1 < avg16 < 16.0
    # Order preservation sanity on a real batch.
    waves = schedule_waves(stream[:16])
    assert sum(len(w) for w in waves) == 16
