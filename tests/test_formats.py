from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotrees import FormatError, TwoTreeConstruction, book, random_two_tree, recognize
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

from oracle import decimal_by_str

seeds = st.integers(0, 2**32 - 1)


def test_edge_list_golden():
    text = serialize_edge_list(book(4).realize())
    assert text == "4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n"
    assert parse_edge_list(text) == (4, book(4).edges())


def test_construction_golden():
    text = serialize_construction(book(4))
    assert text == "4\n2 0 1\n3 0 1\n"
    assert parse_construction(text) == book(4)


def test_construction_base_inference():
    # vertices 1 and 3 are never introduced, so they form the base edge
    c = parse_construction("4\n0 1 3\n2 0 1\n")
    assert c.base == (1, 3)
    assert c.attachments == ((0, (1, 3)), (2, (0, 1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), seeds)
def test_edge_list_round_trip(n, seed):
    g = random_two_tree(n, seed).realize()
    assert parse_edge_list(serialize_edge_list(g)) == (g.n, g.edges())


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
    assert sniff_and_parse("2 1\n0 1\n") == (2, [(0, 1)])
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
