"""Index combinatorics: parsing, the pairs decomposition, duality."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv.errors import AdmissibilityError, IndexParseError, InvalidSpecError
from mzv.indices import (
    MzvIndex,
    PqDecomposition,
    compositions,
    dual,
    pq_compose,
    pq_decompose,
)

# a few duals worked out by hand from the run decomposition
KNOWN_DUALS = [
    ((2,), (2,)),
    ((1, 2), (3,)),
    ((3,), (1, 2)),
    ((1, 3), (1, 3)),
    ((2, 2), (2, 2)),
    ((2, 3), (1, 2, 2)),
    ((1, 1, 2), (4,)),
    ((1, 2, 2), (2, 3)),
    ((4, 2), (2, 1, 1, 2)),
]


def test_basic_properties():
    k = MzvIndex((1, 2, 3))
    assert k.weight == 6
    assert k.depth == 3
    assert k.admissible
    assert not MzvIndex((2, 1)).admissible
    assert str(k) == "(1,2,3)"


def test_parts_validation():
    with pytest.raises(InvalidSpecError):
        MzvIndex(())
    with pytest.raises(InvalidSpecError):
        MzvIndex((0, 2))
    with pytest.raises(InvalidSpecError):
        MzvIndex((1, -2))


@pytest.mark.parametrize(
    "text,parts",
    [
        ("(1,2,3)", (1, 2, 3)),
        ("1,2,3", (1, 2, 3)),
        ("( 2 )", (2,)),
        ("({1}^3,2)", (1, 1, 1, 2)),
        ("{1}^2,4", (1, 1, 4)),
        ("({2}^2)", (2, 2)),
    ],
)
def test_parse(text, parts):
    assert MzvIndex.parse(text).parts == parts


@pytest.mark.parametrize("text", ["", "()", "(1,,2)", "(1 2)", "(a)", "{1}^0,2", "(1,2", "1,2)"])
def test_parse_errors_carry_position(text):
    with pytest.raises(IndexParseError) as err:
        MzvIndex.parse(text)
    assert err.value.position >= 0
    assert "column" in str(err.value)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("1," + "9" * 400, "integer part exceeds 1024"),
        ("1,1025", "integer part exceeds 1024"),
        ("{1}^1000000000,2", "repeat count after .*exceeds 64"),
        ("{1}^64,2", "index depth exceeds 64"),
        ("{2000}^2", "exceeds 1024"),
        ("1,\u00b2", "expected integer part"),
        ("({2,3)", "expected '}' \\(column 3\\)"),
        ("({2}3)", "expected '\\^' after '}' \\(column 4\\)"),
    ],
)
def test_parse_bounds_depth_and_parts_before_expanding(text, message):
    with pytest.raises(IndexParseError, match=message):
        MzvIndex.parse(text)


def test_a_refused_text_raises_the_same_error_each_time():
    from mzv.indices import _parsed

    kept = _parsed.cache_info().currsize
    refusals = []
    for _ in range(2):
        with pytest.raises(IndexParseError) as err:
            MzvIndex.parse("(1,,2)")
        refusals.append((type(err.value), str(err.value), err.value.position))
    assert refusals[0] == refusals[1] == (IndexParseError, "expected integer part (column 3)", 3)
    assert _parsed.cache_info().currsize == kept
    assert MzvIndex.parse("(1, 2)") is MzvIndex.parse("(1, 2)")


def test_parse_memo_is_bounded():
    from mzv.indices import _parsed

    size = _parsed.cache_info().maxsize
    assert size == 4096
    texts = [f"{a},{b}" for b in range(2, 8) for a in range(1, 1025)]
    assert len(texts) > size
    for text in texts:
        MzvIndex.parse(text)
    assert _parsed.cache_info().currsize == size
    _parsed.cache_clear()


def test_parse_accepts_the_bounds():
    assert MzvIndex.parse("{1}^63,1024").depth == 64
    assert MzvIndex.parse("0" * 30 + "2").parts == (2,)


def test_parse_roundtrip():
    for parts, _ in KNOWN_DUALS:
        k = MzvIndex(parts)
        assert MzvIndex.parse(str(k)) == k


def test_pq_roundtrip_known():
    k = MzvIndex((1, 1, 3, 2))
    d = pq_decompose(k)
    assert d.pairs == ((3, 2), (1, 1))
    assert pq_compose(d) == k
    assert d.weight == k.weight and d.depth == k.depth


def test_pq_requires_admissible():
    with pytest.raises(AdmissibilityError):
        pq_decompose(MzvIndex((2, 1)))


def test_pq_validation():
    with pytest.raises(InvalidSpecError):
        PqDecomposition(((0, 1),))
    with pytest.raises(InvalidSpecError):
        PqDecomposition(())
    with pytest.raises(InvalidSpecError, match=r"a decomposition pair must be two integers, got \(1, 2, 3\)$"):
        PqDecomposition(((1, 2, 3),))


def test_parts_and_pairs_are_given_as_lists():
    # the list-to-tuple normalisers: lists, or any iterable, as today
    for parts in ([1, 2], range(1, 3), iter((1, 2))):
        index = MzvIndex(parts)
        assert index.parts == (1, 2) and type(index.parts) is tuple and str(index) == "(1,2)"
    for pairs in ([[1, 2], (2, 1)], ([1, 2], [2, 1]), iter([(1, 2), [2, 1]])):
        decomposition = PqDecomposition(pairs)
        assert decomposition.pairs == ((1, 2), (2, 1)) and all(type(pq) is tuple for pq in decomposition.pairs)
        assert (decomposition.weight, decomposition.depth) == (6, 3)


@pytest.mark.parametrize("parts,expected", KNOWN_DUALS)
def test_known_duals(parts, expected):
    assert dual(MzvIndex(parts)).parts == expected


def _admissible_of_weight(weight):
    out = []
    for depth in range(1, weight):
        for alpha in compositions(weight, depth, 1):
            if alpha[-1] >= 2:
                out.append(MzvIndex(alpha))
    if weight >= 2:
        out.append(MzvIndex((weight,)))
    return out


@pytest.mark.parametrize("weight", range(2, 9))
def test_dual_involution_and_weight(weight):
    seen = set()
    for k in _admissible_of_weight(weight):
        if k.parts in seen:
            continue
        seen.add(k.parts)
        kd = dual(k)
        assert kd.admissible
        assert kd.weight == k.weight
        assert kd.depth == k.weight - k.depth
        assert dual(kd) == k


def test_compositions_small():
    assert compositions(3, 2, 1) == [(1, 2), (2, 1)]
    assert compositions(2, 3, 0) == [
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 0),
    ]
    assert compositions(4, 1, 1) == [(4,)]
    assert compositions(1, 2, 1) == []


@given(
    total=st.integers(min_value=0, max_value=9),
    parts=st.integers(min_value=1, max_value=4),
    min_part=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_compositions_count_and_order(total, parts, min_part):
    comps = compositions(total, parts, min_part)
    slack = total - parts * min_part
    expected = comb(slack + parts - 1, parts - 1) if slack >= 0 else 0
    assert len(comps) == expected
    assert list(comps) == sorted(comps)
    for alpha in comps:
        assert sum(alpha) == total
        assert all(x >= min_part for x in alpha)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=7))
@settings(max_examples=120, deadline=None)
def test_dual_involution_random(parts):
    parts = tuple(parts[:-1]) + (max(parts[-1], 2),)
    k = MzvIndex(parts)
    assert dual(dual(k)) == k
    assert dual(k).weight == k.weight


def test_dual_memo_is_bounded_and_refuses_each_time():
    assert dual.cache_info().maxsize == 4096
    dual.cache_clear()
    k = MzvIndex((1, 2, 3))
    assert dual(k) is dual(MzvIndex.parse("1,2,3"))
    # every admissible index of weight 2 to 14, 2^13 - 1 of them: their duals are the same set
    indices = [
        MzvIndex(c[:-1] + (c[-1] + 1,)) for w in range(2, 15) for d in range(1, w) for c in compositions(w - 1, d)
    ]
    assert len(indices) == 8191
    for index in indices:
        assert dual(dual(index)) == index
    assert dual.cache_info().currsize == 4096
    for _ in range(2):  # a refusal is not kept
        with pytest.raises(AdmissibilityError):
            dual(MzvIndex((2, 1)))
    dual.cache_clear()
