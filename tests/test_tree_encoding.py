"""One module owns the outcome prefix tree's encoding: no module of
src/mpoqst other than povm.py reads a tree id field as an attribute."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mpoqst"
OWNER = "povm.py"
ID_FIELDS = {"order", "bridge", "lefts", "labels", "rights"}


def _id_field_reads(source: str) -> list:
    """(line, field) of each attribute access ``x.<field>`` in ``source``
    whose field is one of the tree's id fields."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ID_FIELDS]


def test_the_scan_sees_every_id_field_read():
    source = ("def f(trie, part):\n"
              "    lefts, bridge = trie.lefts, trie.bridge\n"
              "    x = part.labels[0] + trie.order\n"
              "    return [g(t.rights) for t in (trie, part)]\n"
              "y = trie.weights + trie.local[0]\n")
    assert sorted(f for _, f in _id_field_reads(source)) == sorted(ID_FIELDS)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != OWNER),
    ids=lambda p: p.name)
def test_only_povm_reads_the_tree_ids(path):
    reads = _id_field_reads(path.read_text())
    assert not reads, f"{path.name} reads tree ids {reads}"


def test_the_owner_reads_the_tree_ids():
    # the scan looks at the module that does read them
    assert _id_field_reads((PACKAGE / OWNER).read_text())
