"""The modified Andrew benchmark (Howard et al. 1988; Ousterhout 1990),
scaled as in the paper: phases 1 and 2 create ``n`` copies of a source
tree and the other phases operate on all of them.

Phases:

1. recursively create subdirectories;
2. copy a source tree;
3. examine the status of every file without reading data (stat);
4. read every byte of every file;
5. compile and link (reads sources, burns client CPU, writes objects
   and a linked executable).

The benchmark drives any :class:`~repro.nfs.client.NfsClient`, so the
same code measures BASEFS and NFS-std.  Client "think time" (dominant in
phase 5) is charged to the client node through ``charge``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.nfs.client import NfsClient


def _file_body(name: str, size: int) -> bytes:
    seed = hashlib.sha256(name.encode()).digest()
    reps = size // len(seed) + 1
    return (seed * reps)[:size]


#: Subdirectories of each copy of the source tree.
SUBDIRS = ("cmds", "lib", "sys", "doc")
#: Source files in each subdirectory.
FILES_PER_SUBDIR = 4
#: Bytes of each source file.
FILE_SIZE = 3000
#: Header files at the root of each copy (a third of ``FILE_SIZE`` each).
HEADER_FILES = 2
#: Phase-5 client compute per source byte; the link burns half as much.
COMPILE_CPU_PER_BYTE = 2e-6
#: Client overhead per stat in phase 3.
STAT_CPU = 5e-6
#: Size of a ``.o`` relative to its source.
OBJECT_SIZE_RATIO = 0.6


@dataclass(frozen=True)
class AndrewConfig:
    """The synthetic source tree.

    The default tree is a scaled-down stand-in for the benchmark's source
    tree; ``copies`` scales the run the way the paper's Andrew100 and
    Andrew500 scale theirs.
    """

    copies: int = 1

    def tree_files(self) -> List[Tuple[str, bytes]]:
        files = []
        for subdir in SUBDIRS:
            for i in range(FILES_PER_SUBDIR):
                name = f"{subdir}/{subdir}{i}.c"
                files.append((name, _file_body(name, FILE_SIZE)))
        for i in range(HEADER_FILES):
            name = f"include{i}.h"
            files.append((name, _file_body(name, FILE_SIZE // 3)))
        return files


@dataclass
class AndrewResult:
    phase_seconds: Dict[int, float] = field(default_factory=dict)
    ops_issued: int = 0

    @property
    def total(self) -> float:
        return sum(self.phase_seconds.values())

    def row(self) -> List[float]:
        return [self.phase_seconds[p] for p in range(1, 6)] + [self.total]


class AndrewBenchmark:
    def __init__(self, fs: NfsClient, config: AndrewConfig):
        self.fs = fs
        self.config = config
        self.charge = fs.transport.charge
        self._files = config.tree_files()

    def _copy_root(self, copy: int) -> str:
        return f"/andrew{copy}"

    # -- phases -----------------------------------------------------------------

    def phase1_mkdirs(self) -> None:
        for copy in range(self.config.copies):
            root = self._copy_root(copy)
            self.fs.mkdir(root)
            for subdir in SUBDIRS:
                self.fs.mkdir(f"{root}/{subdir}")

    def phase2_copy(self) -> None:
        for copy in range(self.config.copies):
            root = self._copy_root(copy)
            for name, body in self._files:
                self.fs.write_file(f"{root}/{name}", body)

    def phase3_stat(self) -> None:
        for copy in range(self.config.copies):
            root = self._copy_root(copy)
            for subdir in SUBDIRS:
                self.fs.listdir(f"{root}/{subdir}")
            for name, _ in self._files:
                self.fs.getattr(f"{root}/{name}")
                self.charge(STAT_CPU)

    def phase4_read(self) -> None:
        for copy in range(self.config.copies):
            root = self._copy_root(copy)
            for name, _ in self._files:
                self.fs.read_file(f"{root}/{name}")

    def phase5_compile(self) -> None:
        for copy in range(self.config.copies):
            root = self._copy_root(copy)
            objects = []
            for name, body in self._files:
                if not name.endswith(".c"):
                    continue
                source = self.fs.read_file(f"{root}/{name}")
                self.charge(len(source) * COMPILE_CPU_PER_BYTE)
                obj_name = name[:-2] + ".o"
                obj_body = _file_body(obj_name, int(
                    len(source) * OBJECT_SIZE_RATIO))
                self.fs.write_file(f"{root}/{obj_name}", obj_body)
                objects.append((obj_name, len(obj_body)))
            # Link: read every object, burn CPU, write the executable.
            linked = 0
            for obj_name, size in objects:
                self.fs.read_file(f"{root}/{obj_name}")
                linked += size
            self.charge(linked * COMPILE_CPU_PER_BYTE * 0.5)
            self.fs.write_file(f"{root}/a.out", _file_body("a.out", linked))

    # -- driver ---------------------------------------------------------------------

    PHASES = {1: "phase1_mkdirs", 2: "phase2_copy", 3: "phase3_stat",
              4: "phase4_read", 5: "phase5_compile"}

    def run(self) -> AndrewResult:
        result = AndrewResult()
        calls_before = self.fs.calls_issued
        for phase, method_name in sorted(self.PHASES.items()):
            # Client caches are warm within a phase but cold across
            # phases: the kernel client's attribute/data TTLs (seconds)
            # are far shorter than the paper's minutes-long phases, and
            # the simulation compresses time ~70x, so we expire them
            # explicitly to keep both systems' cache behaviour identical.
            self.fs.drop_caches()
            start = self.fs.transport.now
            getattr(self, method_name)()
            result.phase_seconds[phase] = self.fs.transport.now - start
        result.ops_issued = self.fs.calls_issued - calls_before
        return result
