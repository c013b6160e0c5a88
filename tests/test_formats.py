from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import FormatError, TwoTreeConstruction, book, fan, path_square, random_two_tree, recognize
from twotrees.formats import (
    decimal,
    parse_construction,
    parse_edge_list,
    serialize_construction,
    serialize_edge_list,
    serialize_tree,
    sniff_and_parse,
    tree_stream_header,
)

from oracle import decimal_by_str, parse_edge_list_by_lines, serialize_construction_by_pairs

seeds = st.integers(0, 2**32 - 1)


def _codes(n, edges):
    """An edge list as it parses: its edges as codes u * n + v."""
    return {u * n + v for u, v in edges}


def test_edge_list_golden():
    text = serialize_edge_list(book(4).realize())
    assert text == "4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n"
    assert parse_edge_list(text) == (4, _codes(4, book(4).edges()))


def test_construction_golden():
    text = serialize_construction(book(4))
    assert text == "4\n2 0 1\n3 0 1\n"
    assert parse_construction(text) == book(4)


def test_construction_writer_reads_the_build_order(monkeypatch):
    # the same bytes as the former writer over the (v, (x, y)) records, written
    # from order and the attach edges' ids, with no records built; the last
    # random 2-tree runs over two blocks of steps and into a third
    cs = [family(n) for family in (book, path_square, fan) for n in range(2, 40)]
    cs += [random_two_tree(n, n) for n in (2, 3, 17, 4098, 2 * 4096 + 3)]
    label = list(range(50))
    random.Random(5).shuffle(label)  # a relabelled 2-tree, base and order as recognized
    cs.append(recognize(50, [(label[u], label[v]) for u, v in random_two_tree(50, 5).edges()]))
    want = [serialize_construction_by_pairs(c) for c in cs]

    def refuse(self):
        pytest.fail("the writer read attachments")

    monkeypatch.setattr(TwoTreeConstruction, "attachments", property(refuse))
    assert [serialize_construction(c) for c in cs] == want


def test_construction_base_inference():
    # vertices 1 and 3 are never introduced, so they form the base edge
    c = parse_construction("4\n0 1 3\n2 0 1\n")
    assert c.base == (1, 3)
    assert c.attachments == ((0, (1, 3)), (2, (0, 1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), seeds)
def test_edge_list_round_trip(n, seed):
    g = random_two_tree(n, seed).realize()
    assert parse_edge_list(serialize_edge_list(g)) == (g.n, _codes(g.n, g.edges()))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), seeds)
def test_construction_round_trip(n, seed):
    c = random_two_tree(n, seed)
    assert parse_construction(serialize_construction(c)) == c


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 10), seeds)
def test_recognized_construction_serializes(n, seed):
    edges = random_two_tree(n, seed).edges()
    back = parse_construction(serialize_construction(recognize(n, edges)))
    assert back.edges() == edges


def test_sniffing():
    assert sniff_and_parse("2 1\n0 1\n") == (2, {1})
    assert isinstance(sniff_and_parse("2\n"), TwoTreeConstruction)
    with pytest.raises(FormatError):
        sniff_and_parse("1 2 3 4\n")
    with pytest.raises(FormatError):
        sniff_and_parse("")


@pytest.mark.parametrize(
    "text",
    [
        "3 2\n0 1\n",  # promised edge count wrong
        "3 2\n0 1\n1 0\n",  # non-canonical order
        "3 2\n0 1\n0 1\n",  # duplicate
        "3 1\n0 3\n",  # out of range
        "3 1\nx y\n",  # not integers
        "3 2\n0 1 2\n0 2\n",  # three fields
    ],
)
def test_edge_list_rejects(text):
    with pytest.raises(FormatError):
        parse_edge_list(text)


@pytest.mark.parametrize(
    "text",
    [
        "4\n2 0 1\n",  # missing a line
        "4\n2 0 1\n3 0\n",  # short line
        "4\n2 0 1\n3 2 2\n",  # loop attach
        "4\n2 0 1\n2 0 2\n",  # vertex 2 introduced twice, on two attach edges
        "4\n2 0 1\n2 0 1\n",  # vertex 2 introduced twice, on one attach edge
        "4\n2 0 1\n3 0 4\n",  # vertex 4 outside [0, 4)
    ],
)
def test_construction_rejects(text):
    with pytest.raises(FormatError):
        parse_construction(text)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_edge_list, "", "empty edge-list input"),
        (parse_edge_list, "# only a comment\n", "empty edge-list input"),
        (parse_edge_list, "3\n", "edge-list header must be 'n m', got '3'"),
        (parse_construction, "", "empty construction input"),
        (parse_construction, "3 2\n", "construction header must be a single 'n', got '3 2'"),
    ],
)
def test_parsers_name_an_empty_or_misshapen_header(parse, text, message):
    with pytest.raises(FormatError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_construction_parses_but_fails_to_realize():
    from twotrees import InvalidConstructionError

    # syntactically fine (base (0, 3)), but the first attach edge does not
    # exist yet, so the parser's constructor call rejects it
    with pytest.raises(InvalidConstructionError, match=r"attach edge \(0, 1\) absent when vertex 2"):
        parse_construction("4\n2 0 1\n1 0 2\n")


def test_tree_line_round_trip():
    assert serialize_tree(frozenset({(0, 1), (0, 2), (1, 3)})) == "0-1 0-2 1-3"


def test_tree_stream_header():
    assert tree_stream_header(5, 21) == "# n=5 expected=21"


def test_decimal_writes_counts_past_the_str_digit_cap():
    for count in (0, 7, 10**4000 - 1, 10**4000, 10**4000 + 1, 3**30000, 10**12001 + 5):
        assert decimal(count) == decimal_by_str(count)
        assert tree_stream_header(3, count) == f"# n=3 expected={decimal_by_str(count)}"


# Every line boundary of ``str.splitlines``; "\x1f" and "\t" are whitespace inside a line.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_pieces = st.one_of(
    st.sampled_from(LINE_BREAKS),
    st.sampled_from([" ", "\t", "\x1f", "#", "# note", "x", "-1", "1.5", "0 1 2", "", "9" * 5000]),
    st.integers(-2, 12).map(str),
    st.text(max_size=3),
)


def _same_parse(text: str) -> None:
    """The one-pass parse gives the n and the edges of the list-based one, or
    its error type and message."""
    try:
        want = parse_edge_list_by_lines(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as err:
            parse_edge_list(text)
        assert str(err.value) == str(exc), text
    else:
        n, edges = want
        assert parse_edge_list(text) == (n, _codes(n, edges)), text


@st.composite
def _perturbed_edge_lists(draw) -> str:
    """An edge list of a random 2-tree whose header, lines and line breaks are
    perturbed: bad or short headers, wrong counts, non-int tokens, ends out of
    range or out of order, repeats, comments, blank lines, and any break."""
    n = draw(st.integers(2, 9))
    rows = [f"{u} {v}" for u, v in random_two_tree(n, draw(st.integers(0, 2**32 - 1))).edges()]
    m = len(rows)
    headers = [f"{n} {m}", f"{n} {m + 1}", f"{n} {m - 1}", f"{n}", f"{n} x", f"{n} 1 2", "", f"  {n}\t{m} "]
    rows.insert(0, draw(st.sampled_from(headers)))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows)))
        op = draw(st.sampled_from(["insert", "repeat", "replace", "reverse", "splice"]))
        if op == "insert" or not 0 < i < len(rows):
            extra = ["", "   ", "# comment", "#", f"0 {n}", "1 0", "2 two", "0 1"]
            rows.insert(i, draw(st.sampled_from(extra)))
        elif op == "repeat":
            rows.insert(draw(st.integers(i, len(rows))), rows[i])
        elif op == "replace":
            rows[i] = " ".join(draw(st.lists(_pieces, max_size=3)))
        elif op == "reverse":
            rows[i] = " ".join(reversed(rows[i].split()))
        else:  # a piece, a line break perhaps, spliced into the line
            j = draw(st.integers(0, len(rows[i])))
            rows[i] = rows[i][:j] + draw(_pieces) + rows[i][j:]
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(rows), max_size=len(rows)))
    return "".join(row + end for row, end in zip(rows, breaks))[: None if draw(st.booleans()) else -1]


@settings(max_examples=500, deadline=None)
@given(_perturbed_edge_lists())
def test_one_pass_parse_matches_the_line_list_parse(text):
    _same_parse(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(_pieces, max_size=12))
def test_one_pass_parse_matches_on_arbitrary_pieces(pieces):
    _same_parse("".join(pieces))


def test_one_pass_parse_matches_across_line_blocks():
    # past the parse's 65,536-character blocks: every break, comments, blanks,
    # and a bad line in a later block that the count check still comes before
    c = random_two_tree(6000, 1)
    rows = [f"{c.n} {c.m}"] + [f"{u} {v}" for u, v in c.edges()]
    for i in range(0, len(rows), 7):
        rows[i] += LINE_BREAKS[i % len(LINE_BREAKS)] + ("# comment" if i % 2 else "  ")
    text = "\r\n".join(rows) + "\n"
    assert len(text) > 65536
    for pad in range(8):  # the blocks' cuts fall at other places in the lines
        _same_parse(" " * pad + text)
    _same_parse(text.replace("\r\n", "\r"))
    line = "\r\n" + rows[9001] + "\r\n"
    assert text.index(line) > 65536
    bad = text.replace(line, "\r\nfive" + line[line.index(" ") :], 1)
    _same_parse(bad)
    _same_parse(bad + "0 1\n")  # a count mismatch goes before the bad line
