import os

import numpy as np
import pytest

from loggraph.errors import IngestError
from loggraph.ingest import convert, convert_arrays

EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)]


def write_edges(path, lines):
    path.write_text("# src dst [weight]\n" + "".join(line + "\n" for line in lines))
    return str(path)


def part_files(graph_dir):
    return sorted(f for f in os.listdir(graph_dir) if f.startswith("part"))


def test_weight_column_is_validated_then_ignored(tmp_path):
    plain = write_edges(tmp_path / "plain.txt", [f"{u} {v}" for u, v in EDGES])
    weighted = write_edges(tmp_path / "weighted.txt", [f"{u} {v} {0.5 * i}" for i, (u, v) in enumerate(EDGES)])
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    convert(plain, a, sort_budget=48, page_size=256, undirected=True).registry.close_all()
    convert(weighted, b, sort_budget=48, page_size=256, undirected=True).registry.close_all()
    names = part_files(b)
    assert names == part_files(a)
    assert len(names) > 2  # more than one interval
    assert all(n.endswith((".rowptr", ".colidx")) for n in names)  # no part*.val
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


@pytest.mark.parametrize(
    "lines, line, text",
    [
        (["0 1 1.5", "1 2 heavy"], 3, "non-numeric weight"),
        (["0 1 1.5", "1 2 2.0", "2 0"], 4, "missing weight column"),
    ],
)
def test_bad_weight_column_names_its_line(tmp_path, lines, line, text):
    path = write_edges(tmp_path / "bad.txt", lines)
    with pytest.raises(IngestError, match=text) as err:
        convert(path, str(tmp_path / "g"), sort_budget=1 << 20, page_size=256)
    assert err.value.line == line


@pytest.mark.parametrize("bad", ["3", "0 1 2.0 7"], ids=["one-column", "four-columns"])
def test_a_line_of_one_or_four_columns_names_its_line(tmp_path, bad):
    # the header comment is line 1
    path = write_edges(tmp_path / "bad.txt", ["0 1", bad, "1 2"])
    with pytest.raises(IngestError, match="line 3: expected 2 or 3 columns") as err:
        convert(path, str(tmp_path / "g"), sort_budget=1 << 20, page_size=256)
    assert err.value.line == 3
    assert not os.path.exists(tmp_path / "g")


@pytest.mark.parametrize("src, dst", [([0, -1], [1, 1]), ([0, 1], [1, -1])], ids=["source", "destination"])
def test_a_negative_id_is_an_ingest_error_before_any_file(tmp_path, src, dst):
    with pytest.raises(IngestError, match="vertex id -1 outside"):
        convert_arrays(np.array(src), np.array(dst), 3, str(tmp_path / "g"), sort_budget=1 << 20, page_size=256)
    assert not os.path.exists(tmp_path / "g")
