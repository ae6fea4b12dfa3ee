"""The OO7 benchmark (Carey, DeWitt, Naughton 1993) over Thor.

The database is a tree of assembly objects whose leaves (base
assemblies) reference composite parts chosen pseudo-randomly; each
composite part contains a graph of atomic parts, each with three
outgoing connections.  The paper runs the *medium* database: 500
composite parts with 200 atomic parts each.

Traversals (each run as a single transaction, cold caches):

- **T1** — depth-first over the assembly tree, full DFS of every
  referenced composite part graph (read-only);
- **T6** — like T1 but touches only each composite's root atomic part
  (read-only);
- **T2a** — T1 plus an update to the root atomic part of each composite;
- **T2b** — T1 plus updates to *every* atomic part.

Sizes are configurable so tests run in milliseconds while benchmarks use
paper-shaped configurations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Set, Tuple

from repro.thor.client import ThorClient
from repro.thor.objects import ObjectRecord
from repro.thor.orefs import make_oref
from repro.thor.pages import Page
from repro.thor.server import ThorServer

PAGE_BYTES = 4096
#: Outgoing connections of each atomic part, within its composite.
CONNECTIONS_PER_ATOMIC = 3
#: Children of each complex assembly.
ASSEMBLY_FANOUT = 3
#: Composite parts a base assembly points to.
COMPOSITES_PER_BASE_ASSEMBLY = 3
#: Seed of the generator's RNG: every database of one shape is the same.
DATABASE_SEED = 7


@dataclass(frozen=True)
class OO7Config:
    num_composites: int = 20
    atomic_per_composite: int = 20
    assembly_levels: int = 4          # paper medium uses 7

    @classmethod
    def tiny(cls) -> "OO7Config":
        return cls(num_composites=6, atomic_per_composite=6,
                   assembly_levels=3)

    @classmethod
    def small(cls) -> "OO7Config":
        return cls(num_composites=50, atomic_per_composite=20,
                   assembly_levels=5)

    @classmethod
    def medium(cls) -> "OO7Config":
        """The paper's configuration (500 x 200)."""
        return cls(num_composites=500, atomic_per_composite=200,
                   assembly_levels=7)


class OO7Database:
    """Deterministic generator: the same config yields the identical page
    image on every replica."""

    def __init__(self, config: OO7Config):
        self.config = config
        self.pages: List[Page] = []
        self.module_oref = 0
        self.composite_roots: Dict[int, int] = {}   # composite id -> oref
        self.composite_atomics: Dict[int, List[int]] = {}
        self._rng = random.Random(DATABASE_SEED)
        self._current = Page(0)
        self._current_bytes = 0
        self._next_onum = 0
        self._build()

    # -- page packing -------------------------------------------------------------

    def _emit(self, record: ObjectRecord) -> int:
        blob = record.encode()
        if (self._current_bytes + len(blob) > PAGE_BYTES
                or self._next_onum >= 4000):
            self.pages.append(self._current)
            self._current = Page(len(self.pages))
            self._current_bytes = 0
            self._next_onum = 0
        oref = make_oref(self._current.pagenum, self._next_onum)
        self._current.objects[self._next_onum] = blob
        self._current_bytes += len(blob)
        self._next_onum += 1
        return oref

    def _patch(self, oref: int, record: ObjectRecord) -> None:
        from repro.thor.orefs import oref_onum, oref_pagenum
        pagenum = oref_pagenum(oref)
        page = self._current if pagenum == self._current.pagenum \
            else self.pages[pagenum]
        page.objects[oref_onum(oref)] = record.encode()

    # -- construction ----------------------------------------------------------------

    def _build(self) -> None:
        for composite_id in range(self.config.num_composites):
            self._build_composite(composite_id)
        root = self._build_assembly(level=1)
        self.module_oref = self._emit(
            ObjectRecord("Module", ("module0",), (root,)))
        self.pages.append(self._current)

    def _build_composite(self, composite_id: int) -> None:
        """Atomic parts clustered into consecutive pages (as Thor
        clusters objects), each with 3 pseudo-random outgoing
        connections within the composite."""
        count = self.config.atomic_per_composite
        orefs = []
        for i in range(count):
            orefs.append(self._emit(ObjectRecord(
                "AtomicPart", (composite_id, i, i, i * 2), ())))
        for i, oref in enumerate(orefs):
            targets = []
            for c in range(CONNECTIONS_PER_ATOMIC):
                targets.append(orefs[(i + 1 + c * 7) % count])
            self._patch(oref, ObjectRecord(
                "AtomicPart", (composite_id, i, i, i * 2), tuple(targets)))
        self.composite_roots[composite_id] = orefs[0]
        self.composite_atomics[composite_id] = orefs

    def _build_assembly(self, level: int) -> int:
        if level == self.config.assembly_levels:
            chosen = tuple(
                self.composite_roots[self._rng.randrange(
                    self.config.num_composites)]
                for _ in range(COMPOSITES_PER_BASE_ASSEMBLY))
            return self._emit(ObjectRecord("BaseAssembly", (level,), chosen))
        children = tuple(self._build_assembly(level + 1)
                         for _ in range(ASSEMBLY_FANOUT))
        return self._emit(ObjectRecord("ComplexAssembly", (level,), children))

    # -- loading --------------------------------------------------------------------------

    def load_into(self, server: ThorServer) -> None:
        for page in self.pages:
            server.load_page(page)

    @property
    def num_pages(self) -> int:
        return len(self.pages)

    @property
    def total_bytes(self) -> int:
        return sum(page.size for page in self.pages)


@dataclass
class TraversalResult:
    name: str
    traversal_seconds: float
    commit_seconds: float
    atomic_visits: int
    fetches: int
    updates: int = 0

    @property
    def total(self) -> float:
        return self.traversal_seconds + self.commit_seconds


class OO7Benchmark:
    """Runs the four paper traversals against a :class:`ThorClient`."""

    def __init__(self, database: OO7Database, client: ThorClient):
        self.database = database
        self.client = client

    # -- the traversal engine ----------------------------------------------------------

    def _traverse(self, name: str, visit_composite) -> TraversalResult:
        client = self.client
        start = client.transport.now
        visits = updates = 0
        fetches_before = client.fetches
        client.begin()
        module = client.read(self.database.module_oref)
        stack = list(module.refs)
        seen_composites: Set[int] = set()
        while stack:
            record = client.read(stack.pop())
            if record.class_name == "ComplexAssembly":
                stack.extend(record.refs)
            elif record.class_name == "BaseAssembly":
                for composite_root in record.refs:
                    if composite_root in seen_composites:
                        continue
                    seen_composites.add(composite_root)
                    v, u = visit_composite(client, composite_root)
                    visits += v
                    updates += u
        traversal_end = client.transport.now
        client.commit()
        commit_end = client.transport.now
        return TraversalResult(name, traversal_end - start,
                               commit_end - traversal_end, visits,
                               client.fetches - fetches_before, updates)

    @staticmethod
    def _dfs_atomics(client: ThorClient, root_oref: int,
                     update: str = "none") -> Tuple[int, int]:
        visits = updates = 0
        seen: Set[int] = set()
        stack = [root_oref]
        while stack:
            oref = stack.pop()
            if oref in seen:
                continue
            seen.add(oref)
            part = client.read(oref)
            visits += 1
            do_update = (update == "all"
                         or (update == "root" and oref == root_oref))
            if do_update:
                composite_id, i, x, y = part.fields
                client.write(oref, part.with_fields(composite_id, i, y, x))
                updates += 1
            stack.extend(part.refs)
        return visits, updates

    # -- the four traversals ---------------------------------------------------------------

    def t1(self) -> TraversalResult:
        return self._traverse(
            "T1", lambda c, root: self._dfs_atomics(c, root))

    def t6(self) -> TraversalResult:
        def visit(client, root):
            client.read(root)
            return 1, 0
        return self._traverse("T6", visit)

    def t2a(self) -> TraversalResult:
        return self._traverse(
            "T2a", lambda c, root: self._dfs_atomics(c, root, update="root"))

    def t2b(self) -> TraversalResult:
        return self._traverse(
            "T2b", lambda c, root: self._dfs_atomics(c, root, update="all"))
