"""Harness utilities: report rendering, complexity counting, micro-benches."""

import ast
import math
import re
from pathlib import Path

import pytest

from benchmarks.paper import BLOCK, Record, Row, splice
from repro.analysis import all_rules
from repro.analysis.config import PERF_COUNTER_ALLOWED
from repro.bft import messages
from repro.bft.messages import Message
from repro.harness.complexity import (
    complexity_report,
    count_settable,
    count_statements,
    package_lines,
    settable_values,
)
from repro.harness.report import format_table, overhead_pct
from repro.sim.tracing import EVENT_FIELDS, parse_catalogue
from repro.workloads.microbench import (
    build_kv_cluster,
    concurrent_ops,
    sequential_ops,
)


def test_overhead_pct():
    assert overhead_pct(130, 100) == pytest.approx(30.0)
    assert overhead_pct(100, 100) == 0.0


def test_overhead_pct_broken_baseline_is_nan():
    # A zero/negative baseline is a broken benchmark, not 0% overhead.
    assert math.isnan(overhead_pct(5, 0))
    assert math.isnan(overhead_pct(5, -1))


def _record(*rows):
    return Record("t", "t", list(rows))


def test_paper_row_passes_in_its_band_and_fails_outside_it():
    _record(Row("ok", 25, 26, (20, 30)), Row("unbanded", 99, 26)).check()
    for measured in (10, 40):
        with pytest.raises(AssertionError, match="outside the asserted band"):
            _record(Row("off", measured, 26, (20, 30))).check()


def test_paper_row_measuring_nothing_fails():
    for band in (None, (0, 100)):
        with pytest.raises(AssertionError, match="measured nothing"):
            _record(Row("broken baseline", overhead_pct(5, 0), 26,
                        band)).check()


def test_paper_band_must_contain_the_paper_figure():
    with pytest.raises(ValueError, match="paper's figure"):
        Row("Table I total", 31, 26.4, (30, 45))
    with pytest.raises(ValueError, match="paper's figure"):
        Row("no paper figure to contain", 31, None, (30, 45))


def test_paper_row_renders_a_negative_overhead_with_its_sign():
    row = Row("BASEFS-het vs OpenBSD", -5.0, 4.0, (-math.inf, 30))
    assert row.cells() == ("BASEFS-het vs OpenBSD", "+4%", "-5%", "≤ +30%")
    assert "| BASEFS-het vs OpenBSD | +4% | -5% | ≤ +30% |" in \
        _record(row).markdown()
    assert "-5%" in str(_record(row))


def test_paper_splice_rewrites_only_inside_its_markers():
    record = _record(Row("total", 31, 26, (15, 45)))
    text = ("# head |x|\n<!-- paper:t -->\n| stale |\n<!-- /paper:t -->\n"
            "tail\n")
    spliced = splice(text, [record])
    before, rest = spliced.split("<!-- paper:t -->\n")
    inside, after = rest.split("<!-- /paper:t -->")
    assert (before, after) == ("# head |x|\n", "\ntail\n")
    assert inside == record.markdown() + "\n"
    assert splice(spliced, [record]) == spliced
    orphan = text + "<!-- paper:u -->\n<!-- /paper:u -->\n"
    unclosed = text.replace("<!-- /paper:t -->", "")
    for bad_text, records in ((orphan, [record]), (unclosed, [record]),
                              (text, [record, Record("v", "v", [])])):
        with pytest.raises(ValueError, match="do not pair"):
            splice(bad_text, records)


#: The benchmarks that print a paper table or figure through
#: ``benchmarks/paper.py``.
PAPER_TABLE_FILES = (
    "test_table1_andrew100.py", "test_table2_andrew500.py",
    "test_table3_proactive_recovery.py", "test_table4_recovery_breakdown.py",
    "test_table5_heterogeneous.py", "test_fig6_oo7_readonly.py",
    "test_fig7_oo7_readwrite.py", "test_sec43_code_complexity.py")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _module_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.asname or alias.name).split(".")[0]
                        for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        else:
            yield from (sub.id for sub in ast.walk(node)
                        if isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Store))


def test_paper_values_and_tables_are_declared_only_in_benchmarks_paper():
    bench = Path(__file__).resolve().parents[1] / "benchmarks"
    assert sorted(PAPER_TABLE_FILES) == sorted(
        path.name for path in bench.glob("test_*.py")
        if "paper" in _module_names(_parse(path)))
    assert [(path.name, name) for path in sorted(bench.glob("test_*.py"))
            for name in _module_names(_parse(path))
            if name.startswith("PAPER")] == []
    assert [(name, node.lineno) for name in PAPER_TABLE_FILES
            for node in ast.walk(_parse(bench / name))
            if (isinstance(node, ast.Name) and node.id == "format_table")
            or (isinstance(node, ast.Attribute)
                and node.attr == "format_table")] == []


def test_every_experiments_table_is_generated():
    text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text(
        encoding="utf-8")
    assert BLOCK.findall(text)
    assert [line for line in BLOCK.sub("", text).splitlines()
            if line.startswith("|")] == []


def test_format_table_alignment():
    table = format_table("Title", ["a", "bb"], [(1, 2.5), ("x", 100.0)])
    lines = table.splitlines()
    assert lines[0] == "Title"
    assert len({len(line) for line in lines[2:4]}) == 1  # header == rule


def test_format_table_empty_rows():
    table = format_table("t", ["a", "b"], [])
    assert isinstance(table, str)
    assert "(no rows)" in table
    assert table.splitlines()[2].startswith("a")


def test_count_statements_ignores_comments_and_blanks():
    source = '''
# a comment

x = 1  # inline comment
def f():
    """Docstring is a statement (expression stmt)."""
    return x
'''
    # x=1, def, docstring-expr, return -> 4
    assert count_statements(source) == 4


def test_complexity_report_covers_all_components():
    rows = {row.component: row.statements for row in complexity_report()}
    assert rows["BFT library"] > rows["BASE library"]
    assert all(count > 0 for count in rows.values())
    assert "NFS conformance wrapper" in rows
    assert "wrapped Thor implementation" in rows


#: Physical lines of ``*.py`` each package may hold: its size when the
#: literal was last set, rounded up to the next 100.  A package that
#: outgrows its ceiling needs the literal raised here, where a reviewer
#: sees it; one that shrinks by a hundred lines gets it lowered.
LINE_CEILINGS = {
    "bft": 3600, "analysis": 3200, "benchmarks/ledger": 2900, "nfs": 2700,
    "faultlab": 2500, "service": 1800, "thor": 1400, "workloads": 1200,
    "sim": 1100, "base": 800, "sql": 800, "edge": 700, "harness": 700,
    "http": 700, "encoding": 400, "crypto": 400,
}


def test_every_package_fits_its_line_ceiling():
    lines = package_lines()
    assert set(lines) == set(LINE_CEILINGS)  # a new package needs a ceiling
    assert {name: count for name, count in lines.items()
            if count > LINE_CEILINGS[name]} == {}


#: Settable values under ``src/repro`` (see ``settable_values``) when the
#: literal was last set: a new knob needs it raised here, where a reviewer
#: sees it; a change that removes knobs lowers it.
SETTABLE_CEILING = 430


def test_settable_values_fit_their_ceiling():
    assert count_settable("""\
from dataclasses import dataclass, field

def f(a, b=1, *, c, d=2): pass

@dataclass
class C:
    x: int
    y: int = 0
    z: list = field(default_factory=list)

class Plain:
    w: int = 0
""") == 4
    assert settable_values() <= SETTABLE_CEILING


#: A path a reader could try to open: anything under the five source
#: directories, or an ALL-CAPS root artifact (``BENCH_6.json``).
_DOC_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|docs|examples)/[\w./-]*"
    r"\.(?:py|md|json|yml)|[A-Z][A-Z0-9_]*\.(?:json|md))\b")


def test_no_doc_names_a_file_that_does_not_exist():
    root = Path(__file__).resolve().parents[1]
    docs = [root / name for name in ("README.md", "DESIGN.md",
                                     "EXPERIMENTS.md",
                                     ".github/workflows/ci.yml")]
    docs += sorted((root / "docs").glob("*.md"))
    named = {(doc, token) for doc in docs
             for token in _DOC_PATH.findall(doc.read_text(encoding="utf-8"))}
    assert named
    assert sorted((str(doc.relative_to(root)), token)
                  for doc, token in named
                  if not (root / token).exists()
                  and not (doc.parent / token).exists()) == []


#: A backticked word that reads as a code symbol when it contains ``_``
#: or is CamelCase; ``*`` in it is a glob.
_DOC_SYMBOL = re.compile(r"[A-Za-z_*][\w*]*")

#: Symbols a doc names on purpose that no code carries.
_DOC_SYMBOLS_NOT_IN_CODE = {
    "arry_size": "the misspelt build option docs/SERVICES.md shows refused",
    "http_status": "a placeholder in the shape of an HTTP reply tuple",
    "sub_op_bytes": "a placeholder in the shape of a 2PC meta-op tuple",
    "_charge": "the deleted forwarder a docs/PERFORMANCE.md run log names",
}


def test_no_doc_names_a_symbol_the_code_does_not_have():
    """A symbol a doc backticks occurs as a whole word under src, tests,
    benchmarks, examples or .github, or in a root JSON artifact, or is
    the stem of a file (``BENCH_4``): a doc cannot point a reader at a
    check or a name that was never written or has since been deleted."""
    root = Path(__file__).resolve().parents[1]
    here = Path(__file__).resolve()
    corpus = [path for top in ("src", "tests", "benchmarks", "examples",
                               ".github")
              for path in sorted((root / top).rglob("*"))
              if path.suffix in (".py", ".md", ".json", ".yml")
              and path != here]
    corpus += sorted(root.glob("*.json"))
    words = {word for path in corpus
             for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))}
    words |= {path.stem for top in root.iterdir() if top.name != ".git"
              for path in [top, *(top.rglob("*") if top.is_dir() else ())]}
    docs = [root / name for name in ("README.md", "DESIGN.md",
                                     "EXPERIMENTS.md")]
    docs += sorted((root / "docs").glob("*.md"))
    missing = set()
    for doc in docs:
        for span in re.findall(r"`([^`\n]+)`", doc.read_text(encoding="utf-8")):
            for token in _DOC_SYMBOL.findall(span):
                if "_" not in token and not re.search("[a-z][A-Z]", token):
                    continue
                glob = re.compile(re.escape(token).replace(r"\*", r"\w*"))
                if token in words or "*" in token and any(
                        glob.fullmatch(word) for word in words):
                    continue
                missing.add((str(doc.relative_to(root)), token))
    assert sorted((doc, token) for doc, token in missing
                  if token not in _DOC_SYMBOLS_NOT_IN_CODE) == []
    assert {token for _, token in missing} == set(_DOC_SYMBOLS_NOT_IN_CODE)


def test_faultlab_patches_no_private_attribute_of_a_product_object():
    """FaultLab's evidence is the event ring (docs/OBSERVABILITY.md): no
    ``setattr`` and no ``<name>._<attr> = ...`` on anything but ``self``."""
    root = Path(__file__).resolve().parents[1] / "src/repro/faultlab"
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "setattr":
                found.append((path.name, node.lineno, "setattr"))
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store) \
                    and node.attr.startswith("_") \
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self"):
                found.append((path.name, node.lineno, ast.unparse(node)))
    assert found == []


def test_faultlab_reads_only_the_event_ring_and_final_state():
    """No ``metrics`` registry and no ``.records`` list under
    ``src/repro/faultlab``: every count a trial reports is a count of
    events (docs/OBSERVABILITY.md, "One record per fact")."""
    root = Path(__file__).resolve().parents[1] / "src/repro/faultlab"
    assert [(path.name, node.lineno, node.attr)
            for path in sorted(root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and node.attr in ("metrics", "records")] == []


def _sized(owners):
    """``{Class.attr: largest len}`` over every sized attribute the
    owners hold directly."""
    sizes = {}
    for owner in owners:
        for name, value in vars(owner).items():
            if hasattr(value, "__len__") \
                    and not isinstance(value, (str, bytes)):
                key = f"{type(owner).__name__}.{name}"
                sizes[key] = max(sizes.get(key, 0), len(value))
    return sizes


def _outgrown(owners, run, bounds, n=16):
    """Run ``n`` operations, then ``3n`` more: the attributes of
    ``owners`` that grew without a declared bound, or passed theirs."""
    run(n)
    before = _sized(owners)
    run(3 * n)
    return sorted(key for key, size in _sized(owners).items()
                  if size > bounds.get(key, before.get(key, 0)))


def test_no_container_grows_per_operation_but_the_event_ring():
    """The tracer's bounded ring is the one per-operation log
    (docs/OBSERVABILITY.md, "One record per fact"): what a replica, its
    state manager, an edge tier, its ports or a shard router holds stops
    growing, except the containers with a declared bound."""
    from repro.bft.config import BftConfig
    from repro.bft.replica import Replica
    from repro.bft.statemachine import InMemoryStateManager
    from repro.edge import EdgeTier
    from repro.service.sharding import ShardedDeployment, stable_shard
    from repro.sql.service import SQL_SERVICE
    from tests.conftest import make_kv_cluster

    keys = 4
    cluster = make_kv_cluster()
    sync = cluster.add_client("client0")
    tier = EdgeTier.for_cluster(cluster)

    def kv_ops(count):
        for i in range(count):
            sync.call(InMemoryStateManager.op_put(i % keys, b"v%d" % i))
            tier.read(InMemoryStateManager.op_get(i % keys))
        cluster.run(1.0)

    bounds = {"Replica.checkpoint_history": Replica._HISTORY_MAX,
              "Replica.verified_sigs": cluster.config.verified_sig_bound}
    replicas = cluster.replicas
    outgrown = _outgrown([*replicas, *(r.state for r in replicas), tier,
                          *tier.ports], kv_ops,
                         {**bounds, "EdgeTier.cache": keys})

    deployment = ShardedDeployment.build(
        SQL_SERVICE, 2, config=BftConfig(checkpoint_interval=8), seed=0)
    client = deployment.client
    tables, i = {}, 0
    while len(tables) < 2:      # one table on each shard
        tables.setdefault(stable_shard(f"t{i}", 2), f"t{i}")
        i += 1
    for table in tables.values():
        client.create_table(table, ["id", "val"], "id")
        client.insert(table, [1, "row"])

    def sql_ops(count):
        for i in range(count):
            client.update(tables[i % 2], 1, [1, f"v{i}"])
            client.select(tables[i % 2], 1)
        for shard in deployment.shards:
            shard.cluster.run(1.0)

    replicas = [r for shard in deployment.shards
                for r in shard.cluster.replicas]
    outgrown += _outgrown([*replicas, *(r.state for r in replicas),
                           deployment.router], sql_ops, bounds)
    assert outgrown == []


def _protocol_sources():
    root = Path(__file__).resolve().parents[1] / "src/repro"
    for path in sorted([*(root / "bft").glob("*.py"),
                        *(root / "base").glob("*.py")]):
        yield path, path.read_text(encoding="utf-8")


def _stores(match):
    """``file:Class.function`` of every assignment target ``match``
    accepts, over ``src/repro/bft`` and ``src/repro/base``."""
    found = []

    def walk(node, path, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        elif isinstance(getattr(node, "ctx", None), ast.Store) \
                and match(node):
            found.append(f"{path.name}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            walk(child, path, scope)

    for path, source in _protocol_sources():
        walk(ast.parse(source), path, [])
    return sorted(found)


def test_each_replica_state_transition_is_written_once():
    """Adopting a certified checkpoint, rewinding execution, voiding a
    slot's votes, checkpointing the reply cache and noting a checkpoint
    each have one body (docs/PROTOCOL.md, "Checkpoints and garbage
    collection"); every other site calls it."""
    assert _stores(lambda n: isinstance(n, ast.Attribute)
                   and n.attr == "last_stable") == [
        "replica.py:Replica.__init__", "replica.py:Replica.adopt_checkpoint"]
    assert _stores(lambda n: isinstance(n, ast.Subscript)
                   and isinstance(n.value, ast.Attribute)
                   and n.value.attr == "table_checkpoints") == [
        "replica.py:Replica.record_table_checkpoint"]
    assert _stores(lambda n: isinstance(n, ast.Name)
                   and n.id == "_HISTORY_MAX") == ["replica.py:Replica"]
    assert [(path.name, text) for path, source in _protocol_sources()
            if path.name != "log.py"
            for text in (".executed = False", ".prepares = {}")
            if text in source] == []


def test_a_message_kind_is_one_declaration():
    """``kind``, ``__slots__ = {field: type}`` and, for a kind a replica
    receives, its ``contract`` are all a kind writes
    (``Message.__init_subclass__`` derives the rest); only the kinds that
    send digests of what they hold write ``_fields()`` themselves."""
    path = Path(__file__).resolve().parents[1] / "src/repro/bft/messages.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = [node for node in tree.body if isinstance(node, ast.ClassDef)
             and [ast.unparse(base) for base in node.bases] == ["Message"]]
    assert len(kinds) == 19
    methods = {node.name: {stmt.name for stmt in node.body
                           if isinstance(stmt, ast.FunctionDef)}
               for node in kinds}
    assert {name for name, defs in methods.items() if "__init__" in defs} \
        == set()
    assert {name for name, defs in methods.items() if "_fields" in defs} \
        == {"PrePrepare", "ViewChange", "NewView", "CertReply"}
    for node in kinds:
        attrs = {stmt.targets[0].id: stmt.value for stmt in node.body
                 if isinstance(stmt, ast.Assign)}
        assert set(attrs) <= {"kind", "__slots__", "contract", "_defaults"}
        assert isinstance(attrs.get("kind"), ast.Constant) \
            and isinstance(attrs["kind"].value, str), node.name
        assert isinstance(attrs.get("__slots__"), ast.Dict), node.name
    assert [node.lineno for node in ast.walk(tree)
            if "record" in (getattr(node, "name", None),
                            getattr(node, "id", None))] == []
    # The kinds a replica dispatches are exactly those with a contract,
    # and each states one from the closed set: a principal the kind can
    # name (a field, or the primary of its view), none exactly when the
    # contents verify themselves, a view rule only where there is a view.
    declared = {cls: vars(cls)["contract"] for cls in Message.__subclasses__()
                if "contract" in vars(cls)}
    assert set(build_kv_cluster().replicas[0]._handlers) \
        == {cls.kind for cls in declared}
    for cls, contract in declared.items():
        assert contract.proof in messages.PROOFS, cls.kind
        assert (contract.principal is None) == (contract.proof
                                                == messages.OPEN), cls.kind
        assert contract.principal in (None, messages.PRIMARY) \
            or contract.principal in cls.__slots__, cls.kind
        assert contract.view in (None, messages.CURRENT, messages.LATER)
        assert contract.view is None or "view" in cls.__slots__, cls.kind


@pytest.mark.parametrize("fields,error", [
    ("seq", TypeError), ("seq:", TypeError), ("seq:int64", TypeError),
    ("seq:int client", TypeError), ("seq:int result:bytes", TypeError),
    ("a:digest b:digest", ValueError)])
def test_the_catalogue_refuses_a_field_without_a_closed_wire_type(fields,
                                                                   error):
    """Every field in ``CATALOGUE`` names its wire type, one of
    ``WIRE_TYPES``, and every field set fits a ring slot:
    ``parse_catalogue``, run on it at import, refuses anything else."""
    with pytest.raises(error):
        parse_catalogue({fields: "some_kind"})


def test_every_event_is_emitted_as_the_catalogue_declares_it():
    """An event is ``(time, source, kind, *fields)`` with the fields
    ``EVENT_FIELDS`` declares for its kind (``sim/tracing.py``).  Every
    ``.trace(kind, ...)`` and ``.emit(time, source, kind, ...)`` under
    ``src/`` names a declared kind as a literal and passes exactly its
    fields, positionally; every declared kind is emitted somewhere,
    FaultLab's two by the injector itself; and ``Tracer.record`` is
    called only by the two forwarders."""
    root = Path(__file__).resolve().parents[1] / "src/repro"
    emitters, wrong = {}, []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("trace", "emit")):
                continue
            at = 2 if node.func.attr == "emit" else 0
            kind = node.args[at].value if len(node.args) > at \
                and isinstance(node.args[at], ast.Constant) else None
            if kind in EVENT_FIELDS and not node.keywords \
                    and len(node.args) - at - 1 == len(EVENT_FIELDS[kind]) \
                    and not any(isinstance(arg, ast.Starred)
                                for arg in node.args):
                emitters.setdefault(kind, set()).add(where)
            else:
                wrong.append(f"{where}:{node.lineno}: {ast.unparse(node)}")
    assert wrong == []
    assert sorted(set(EVENT_FIELDS) - set(emitters)) == []
    assert emitters["fault_injected"] == emitters["fault_cleared"] \
        == {"faultlab/injector.py"}
    assert sorted({where for where, fn in _functions("")
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and ast.unparse(node.func).split(".")[-1] == "record"}) \
        == ["bft/replica.py:Replica.trace", "sim/tracing.py:Tracer.emit"]


def _functions(top):
    """``(file:Class.function, node)`` of every def under ``src/repro/top``."""
    root = Path(__file__).resolve().parents[1] / "src/repro"

    def walk(node, path, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
            if isinstance(node, ast.FunctionDef):
                yield f"{path}:{'.'.join(scope)}", node
        for child in ast.iter_child_nodes(node):
            yield from walk(child, path, scope)

    for path in sorted((root / top).rglob("*.py")):
        yield from walk(ast.parse(path.read_text(encoding="utf-8")),
                        path.relative_to(root).as_posix(), [])


def test_only_the_gate_authenticates_what_a_replica_receives():
    """``verify_auth`` and ``verify_sig`` are called by the gate
    (``Replica.on_message``), the future-view stash, the two certificate
    checks, and the client's and the edge's reply checks; and no handler
    under ``src/repro/bft`` but the gate checks its sender."""
    callers = sorted({where for where, fn in _functions("")
                      for node in ast.walk(fn) if isinstance(node, ast.Call)
                      and ast.unparse(node.func).split(".")[-1]
                      in ("verify_auth", "verify_sig")})
    assert callers == [
        "bft/client.py:BftClient.handle_reply",
        "bft/replica.py:Replica._stash_future",
        "bft/replica.py:Replica.on_message",
        "bft/replica.py:Replica.valid_checkpoint_cert",
        "bft/viewchange.py:ViewChangeManager._valid_view_change",
        "edge/tier.py:_EdgeNode.handle_edge_read_reply"]
    assert [(where, ast.unparse(node)) for where, fn in _functions("bft")
            if fn.name.startswith(("handle_", "on_"))
            and where != "bft/replica.py:Replica.on_message"
            for node in ast.walk(fn) if isinstance(node, ast.Compare)
            and _compares_src(node)] == []


def test_the_ordering_handlers_take_their_window_from_low_water():
    """``handle_pre_prepare``, ``handle_prepare`` and ``handle_commit``
    get the base h of their (h, h + L] window only from
    ``Replica._low_water()``, which moves it to the checkpoint a state
    transfer is fetching; none of them reads ``last_stable`` itself."""
    handlers = {fn.name: fn for where, fn in _functions("bft")
                if where.startswith("bft/replica.py:Replica.handle_")}
    for name in ("handle_pre_prepare", "handle_prepare", "handle_commit"):
        fn = handlers[name]
        assert "self._low_water" in [ast.unparse(node.func)
                                     for node in ast.walk(fn)
                                     if isinstance(node, ast.Call)], name
        assert [node.lineno for node in ast.walk(fn)
                if isinstance(node, ast.Attribute)
                and node.attr == "last_stable"] == [], name


def _compares_src(node):
    """``src`` against a message field or a membership list: anything
    but a local name (``src not in by_replica`` is bookkeeping)."""
    sides = [node.left, *node.comparators]
    return "src" in map(ast.unparse, sides) \
        and not all(isinstance(side, ast.Name) for side in sides)


#: Names of the contract constants, as the declarations spell them.
_CONTRACT_NAMES = {getattr(messages, name): name for name in (
    "OPEN", "MEMBER", "MAC", "SIG", "PRIMARY", "CURRENT", "LATER")}


def _declaration(contract):
    """A contract as ``messages.py`` declares it: ``Contract(...)``."""
    if contract is None:
        return None
    who = contract.principal
    args = [_CONTRACT_NAMES.get(who, "None" if who is None else f'"{who}"'),
            _CONTRACT_NAMES[contract.proof]]
    if contract.relayed:
        args.append("relayed=True")
    if contract.view is not None:
        args.append(f"view={_CONTRACT_NAMES[contract.view]}")
    return f"Contract({', '.join(args)})"


def test_protocol_doc_lists_every_kind_as_declared():
    """The "Wire messages" table of docs/PROTOCOL.md names every kind,
    its class, its fields with their types, in wire order, and opens its
    authentication column with the kind's contract — read from the
    catalogue the declarations are."""
    declared = {
        cls.kind: (cls.__name__, [f"{name}: {kind.__name__}"
                                  for name, kind in cls.__slots__.items()],
                   _declaration(vars(cls).get("contract")))
        for cls in Message.__subclasses__()
        if cls.__module__ == Message.__module__}
    doc = (Path(__file__).resolve().parents[1]
           / "docs/PROTOCOL.md").read_text(encoding="utf-8")
    table = doc.split("## Wire messages")[1].split("\n## ")[0]
    listed = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            kind, cls, fields, auth = [cell.strip() for cell in
                                       line.strip("|").split("|")][:4]
            contract = re.match(r"`(Contract\([^`]*\))`", auth)
            listed[kind.strip("`")] = (cls.strip("`"), [
                field.split(" = ")[0]
                for field in re.findall(r"`([^`]+)`", fields)],
                contract and contract.group(1))
    assert listed == declared


def test_analysis_parses_each_file_in_one_place():
    """ProtoLint and DeepLint are one engine (docs/ANALYSIS.md): one
    function parses a file, every rule reads that tree."""
    root = Path(__file__).resolve().parents[1] / "src/repro/analysis"
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        elif isinstance(node, ast.Call) \
                and ast.unparse(node.func) == "ast.parse":
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")),
             [path.relative_to(root).as_posix()])
    assert found == ["engine.py.FileContext.__init__"]


def test_deleted_catalogues_and_tables_stay_deleted():
    """Names whose one copy was folded into another owner, and
    capabilities no run reached."""
    gone = re.compile(r"\b(DeepRuleInfo|DEEP_RULES|run_deep|DEEP_EVERYWHERE"
                      r"|IO_ALLOWED|BACKEND_FAULT_NAMES|fh_to_index"
                      r"|CONSISTENCY_MODES|Span|bind_clock|DiurnalArrivals"
                      r"|fell_back|xdr_size_of_opaque|pack_fixed_opaque"
                      r"|unpack_bool|pack_hyper)\b")
    root = Path(__file__).resolve().parents[1]
    here = Path(__file__).resolve()
    assert [f"{path.relative_to(root)}:{match.group(1)}"
            for top in ("src", "tests")
            for path in sorted((root / top).rglob("*.py")) if path != here
            for match in gone.finditer(path.read_text(encoding="utf-8"))
            ] == []


def test_nothing_under_sim_reads_wall_time():
    """The simulator's one clock is the scheduler's: no module under
    ``src/repro/sim`` imports ``time``, and DET-PERF allows
    ``time.perf_counter`` only in FaultLab's per-trial wall timing."""
    root = Path(__file__).resolve().parents[1] / "src/repro/sim"
    assert [path.name for path in sorted(root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Import)
            and "time" in [alias.name for alias in node.names]
            or isinstance(node, ast.ImportFrom) and node.module == "time"
            ] == []
    assert PERF_COUNTER_ALLOWED == frozenset({"faultlab/explorer.py"})


def test_wrappers_allocate_slots_through_the_mapping_library():
    """No conformance wrapper keeps a free heap of its own: nothing under
    ``src/repro/{nfs,thor,sql,http}`` imports ``heapq``
    (docs/SERVICES.md, "The mapping library")."""
    root = Path(__file__).resolve().parents[1] / "src/repro"
    assert [path.relative_to(root).as_posix()
            for top in ("nfs", "thor", "sql", "http")
            for path in sorted((root / top).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Import)
            and "heapq" in [alias.name for alias in node.names]
            or isinstance(node, ast.ImportFrom) and node.module == "heapq"
            ] == []


def test_only_the_conformance_rep_writes_its_bookkeeping():
    """Under ``src/repro/nfs`` only ``conformance.py`` assigns or pops the
    reverse map or ``bytes_used``, or assigns an entry's handle, fileid,
    type or generation; the wrapper and the inverse conversion call its
    methods.  The vendor backends (``nfs/backends``) are the wrapped
    implementation, with inodes of their own, and are not looked at."""
    maps = {"fileid_to_index"}
    fields = maps | {"bytes_used", "fh", "fileid", "ftype", "gen"}
    root = Path(__file__).resolve().parents[1] / "src/repro/nfs"
    writes = []
    for path in sorted(root.glob("*.py")):
        if path.name == "conformance.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
                subscript = isinstance(node, ast.Subscript)
                owner, names = (node.value, maps) if subscript \
                    else (node, fields)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("pop", "clear", "update",
                                           "setdefault"):
                owner, names = node.func.value, maps
            else:
                continue
            if isinstance(owner, ast.Attribute) and owner.attr in names:
                writes.append(f"{path.name}:{node.lineno}: "
                              f"{ast.unparse(node)}")
    assert writes == []


def test_analysis_doc_catalogues_every_rule():
    doc = (Path(__file__).resolve().parents[1]
           / "docs/ANALYSIS.md").read_text(encoding="utf-8")
    table = doc.split("\n## Rule catalog\n")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `([A-Z]+-[A-Z]+)` \|", table, re.MULTILINE)
    assert sorted(listed) == sorted(rule.rule_id for rule in all_rules())


def test_sequential_microbench_counts():
    cluster = build_kv_cluster()
    result = sequential_ops(cluster, 10, "t")
    assert result.operations == 10
    assert result.messages > 10  # protocol amplification
    assert result.latency > 0
    assert result.throughput > 0


def test_concurrent_microbench_completes_all():
    cluster = build_kv_cluster()
    result = concurrent_ops(cluster, clients=4, per_client=5, label="t")
    assert result.operations == 20
    # All 20 writes actually executed on the replicas.
    executed = [len(cluster.tracer.find("executed", r.node_id))
                for r in cluster.replicas]
    assert max(executed) >= 20


def test_read_only_microbench_uses_fewer_messages():
    writes = sequential_ops(build_kv_cluster(), 20, "w")
    reads = sequential_ops(build_kv_cluster(), 20, "r", read_only=True)
    assert reads.messages < writes.messages
    assert reads.latency < writes.latency
