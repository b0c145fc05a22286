"""Architecture rules: each page concern stays behind one module.

The paper's cost model counts pages, and these rules keep each mechanism
that reads, writes, lays out or encodes pages in one module, so the counts
stay exact and a change of mechanism (page checksums, another id coding)
has one place to go. One scan reads the Python files of src/loggraph and
tools, and each rule is a row of RULES: its name; the path prefixes it
scans and the files it exempts; its check, a regex no line may match or a
function from a module's source to the lines it rejects; its reason, the
failure message; a bad snippet, every line of which the check rejects,
and a good one it accepts; and, for a rule that lets only module X do what
it rejects, its anchor X, a line of which the check must match (or (X, a
regex) when the check skips X's own use), so a rename that leaves a rule
matching nothing fails here.

To add a rule, add its row with both snippets and, when it exempts a
module, its anchor; the tests at the end run every row.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREE = {p.relative_to(ROOT).as_posix(): p.read_text() for d in ("src/loggraph", "tools") for p in sorted((ROOT / d).rglob("*.py"))}
PKG, TOOLS, APPS = "src/loggraph/", "tools/", "src/loggraph/apps/"
PAGER, CSR, ENGINE, MULTILOG = (f"src/loggraph/{m}.py" for m in ("pager", "csr", "engine", "multilog"))
COMBINING = (ENGINE, MULTILOG, "src/loggraph/sortgroup.py")


class Rule(NamedTuple):
    name: str
    scope: tuple[str, ...]
    exempt: tuple[str, ...]
    check: str | Callable[[str], list[int]]
    reason: str
    bad: str
    good: str
    anchor: str | tuple[str, str] | None = None


def lines(check, text: str) -> list[int]:
    """The lines of text that check rejects, ascending."""
    if callable(check):
        return sorted(set(check(text)))
    return [i for i, line in enumerate(text.splitlines(), 1) if re.search(check, line)]


def calls(text: str) -> list[ast.Call]:
    return [n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Call)]


def called(call: ast.Call) -> str:
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")


def keywords(call: ast.Call) -> set:
    return {k.arg for k in call.keywords}


def record_format_without(position: int, keyword: str):
    """The RecordFormat calls that leave the argument at position, or named keyword, to its default."""
    return lambda text: [
        c.lineno for c in calls(text) if called(c) == "RecordFormat" and len(c.args) <= position and keyword not in keywords(c)
    ]


def colidx_coded(text: str) -> list[int]:
    """In a module that names colIdx, in any case, the lines using VID_DT or VID_WIDTH."""
    return lines(r"VID_DT|VID_WIDTH", text) if re.search("colidx", text, re.I) else []


def budget_assigned(text: str) -> list[int]:
    """Plain, augmented or annotated assignments to the .budget of anything but self."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(text))
        if isinstance(n, ast.Attribute) and n.attr == "budget" and isinstance(n.ctx, ast.Store)
        and not (isinstance(n.value, ast.Name) and n.value.id == "self")
    ]


def hashed_set_op(text: str) -> list[int]:
    """numpy set routines, and an np.unique that returns no index, inverse or counts."""
    hashed = {"union1d", "intersect1d", "setdiff1d", "setxor1d", "in1d", "isin"}
    sorts = {"return_index", "return_inverse", "return_counts"}
    numpy = [c for c in calls(text) if isinstance(c.func, ast.Attribute) and getattr(c.func.value, "id", "") in ("np", "numpy")]
    return [c.lineno for c in numpy if c.func.attr in hashed or (c.func.attr == "unique" and not sorts & keywords(c))]


RULES = [
    Rule("one page-read path", (PKG,), (PAGER,), r"\.read_pages?\(",
         "only the pager reads page images: read spans through PageStore.read_spans and whole vectors, log files included, through read_vector",
         "img = store.read_page(3)\nimgs = store.read_pages([1, 2])", "pages, _, rows, at = store.read_spans(lo, hi, dt)", PAGER),
    Rule("whole vectors in one span", (PKG,), (), r"read_(records|pages)\(range\(",
         "a whole vector reads as the one span [0, n), whose page counts are checked: use PageStore.read_vector",
         "out = store.read_records(range(store.num_pages), 4)\nimgs = self.read_pages(range(need))", "out = store.read_vector(n, VID_DT)"),
    Rule("one page layout", (PKG,), (PAGER,), r"PAGE_HEADER|PAGE_COUNT",
         "only the pager knows a page's header and record count: build and parse pages through its layout helpers",
         "off = pager.PAGE_HEADER + 4\nn = PAGE_COUNT.unpack_from(page)[0]", "pages = pack_pages(raw, 4, page_size)", PAGER),
    Rule("one colIdx codec", (PKG,), (CSR, "src/loggraph/edgelog.py"), colidx_coded,
         # edgelog.py writes its own uint32 entries until the edge log is deleted (ROADMAP item 3)
         "a module that names colIdx and uses VID_DT or VID_WIDTH codes entries itself: go through csr.py",
         "ci = part.colIdx.read_vector(n, VID_DT)", "ci = adj.take(wanted)  # colidx entries, widened by csr.py", CSR),
    Rule("records name their id dtype", (PKG,), (), record_format_without(1, "id_dtype"),
         "a RecordFormat with no id dtype writes uint32 ids: pass the graph's (GraphMeta.colidx_dtype)",
         "fmt = RecordFormat(fields)\nfmt = RecordFormat(fields, combine=None)", "fmt = RecordFormat(fields, id_dtype=dt, combine=None)"),
    Rule("records name their combiner", (PKG,), (), record_format_without(2, "combine"),
         "a RecordFormat with no combiner logs a src no receiver of a combiner reads: pass VertexProgram.combine",
         "fmt = RecordFormat(fields, dt)", "fmt = RecordFormat(fields, dt, program.combine)"),
    Rule("one meta.json writer", (PKG, TOOLS), ("src/loggraph/ingest.py",), r"\.save\(",
         "only ingest.convert_arrays saves a GraphMeta: meta.json is written once, at convert",
         "meta.save(graph.path)", "meta = GraphMeta.from_dict(json.load(f))", "src/loggraph/ingest.py"),
    Rule("one writer per part file", (PKG, TOOLS), (CSR,), r"indeg\.bin|part\{",
         "only csr.py names a graph file: use csr.write_interval, csr.write_in_degrees or GraphDir",
         "path = f'{graph}/part{k}.rowptr'\nos.remove('indeg.bin')", "part.rowptr, part.colidx = csr.write_interval(reg, meta, path, k, rp, ci)", CSR),
    Rule("neighbours on demand", (APPS,), (), r"load_adjacency|\.views\(|full_csr|full_rowptr|all_edges",
         "a vertex program reads whole adjacency rows: use batch.adj.take or batch.broadcast, which read only the pages wanted",
         "adj, _ = load_adjacency(graph, ids)\nrows = batch.adj.views(ids)\nrp, ci = part.full_csr()\nrp = part.full_rowptr()\nsrc, dst = graph.all_edges()",
         "nbrs = batch.adj.take(ranges(starts, lens))", CSR),
    Rule("one page-write path", (PKG,), (PAGER,), r"\.write_page\(",
         "only the pager overwrites pages: use PageStore.write_back", "store.write_page(3, image)", "store.write_back(3, image)", PAGER),
    Rule("one page-append path", (PKG,), (PAGER,), r"\.append_page\(",
         "only the pager appends raw pages, each counted by the tracer: use PageStore.append or append_records",
         "store.append_page(image)", "store.append_records(raw, width)", PAGER),
    Rule("one ledger budget", (PKG,), (PAGER,), budget_assigned,
         "only StoreRegistry.set_budget changes the ledger's budget, giving back what no longer fits",
         "reg.budget = 0\nself.registry.budget += 4096\ngraph.registry.budget: int = 1", "self.budget = buffer_budget\nroom = reg.budget - reg.held",
         (PAGER, r"self\.budget = ")),
    Rule("budget set by the run", (PKG,), (PAGER, ENGINE), r"\.set_budget\(",
         "only the run sets the ledger budget, at its start and end: report held bytes with StoreRegistry.hold",
         "self.registry.set_budget(0)", "self.registry.hold('structural', nbytes)", ENGINE),
    Rule("one thread", (PKG,), (), r"^\s*(import threading|from threading |import concurrent|from concurrent[. ])",
         "the engine runs one pipeline per superstep, so results are deterministic and no store needs a lock",
         "import threading\nfrom concurrent.futures import ThreadPoolExecutor", "import numpy as np"),
    Rule("one combiner fold", COMBINING, (MULTILOG,), lambda text: [c.lineno for c in calls(text) if called(c) == "at"],
         "a ufunc.at outside multilog.py is a second fold: fold into a multilog.Accumulator",
         "np.add.at(total, rows, vals)", "acc.fold(cols)", MULTILOG),
    Rule("no weighted bincount", COMBINING, (),
         lambda text: [c.lineno for c in calls(text) if called(c) == "bincount" and (len(c.args) > 1 or "weights" in keywords(c))],
         "a weighted bincount is a second fold: fold into a multilog.Accumulator",
         "np.bincount(rows, vals)\nnp.bincount(rows, weights=vals)", "np.bincount(rows, minlength=n)"),
    Rule("sorted set operations", (PKG,), (), hashed_set_op,
         "numpy's set routines hash: use pager.sorted_unique, pager.member or a bool mask",
         "np.unique(ids)\nnp.isin(a, b)\nnumpy.union1d(a, b)", "np.unique(keys, return_index=True)\nids = sorted_unique(ids)"),
]
IDS = [r.name for r in RULES]


@pytest.mark.parametrize("rule", RULES, ids=IDS)
def test_the_tree_keeps_the_rule(rule):
    scanned = [p for p in TREE if p.startswith(rule.scope) and p not in rule.exempt]
    found = {p: at for p in scanned if (at := lines(rule.check, TREE[p]))}
    assert scanned and not found, f"{rule.reason}; rejected lines: {found}"


@pytest.mark.parametrize("rule", RULES, ids=IDS)
def test_the_rule_rejects_each_line_of_its_bad_snippet_and_accepts_its_good_one(rule):
    assert lines(rule.check, rule.bad) == list(range(1, rule.bad.count("\n") + 2))
    assert lines(rule.check, rule.good) == []


# a rule that exempts a module lets that module do what it rejects
ANCHORED = [r for r in RULES if r.exempt or r.anchor]


@pytest.mark.parametrize("rule", ANCHORED, ids=[r.name for r in ANCHORED])
def test_the_rule_matches_a_line_of_its_anchor(rule):
    assert rule.anchor, f"{rule.name} exempts {rule.exempt} but names no anchor"
    path, check = rule.anchor if isinstance(rule.anchor, tuple) else (rule.anchor, rule.check)
    assert lines(check, TREE[path]), f"{rule.name} matches no line of {path}: a rename left it matching nothing"
