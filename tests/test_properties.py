"""Law-style randomised tests; brute-force oracles recompute everything the
fast paths claim."""

from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from radact.congruence import (
    all_congruences,
    congruence_from_index,
    generated_congruence,
    join,
    meet,
    relation_pairs,
)
from radact.catalog import parse_act, parse_monoid
from radact.core import (
    FiniteAct,
    FiniteMonoid,
    all_homs,
    is_equivariant,
    validate_act,
    validate_monoid,
)
from radact.errors import CatalogValidationError, ParseError, RadactError
from radact.universe import default_universe

UNI = default_universe(monoid_max=2, act_max=3, hull_bound=4)
SMALL_ACTS = [a for a in UNI.acts if a.size <= 3]


@st.composite
def act_and_pairs(draw):
    act = draw(st.sampled_from(SMALL_ACTS))
    k = draw(st.integers(min_value=0, max_value=3))
    pairs = [
        (
            draw(st.integers(0, act.size - 1)),
            draw(st.integers(0, act.size - 1)),
        )
        for _ in range(k)
    ]
    return act, pairs


@settings(max_examples=80, deadline=None)
@given(act_and_pairs())
def test_generated_congruence_is_least(data):
    act, pairs = data
    chi = generated_congruence(act, pairs)
    assert all(chi.same(a, b) for a, b in pairs)
    candidates = [
        theta for theta in all_congruences(act, UNI.con_bound)
        if all(theta.same(a, b) for a, b in pairs)
    ]
    least = min(candidates, key=lambda t: len(relation_pairs(t)))
    assert chi == least


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_ACTS), st.data())
def test_meet_join_are_lattice_bounds(act, data):
    lattice = all_congruences(act, UNI.con_bound)
    x = data.draw(st.sampled_from(lattice))
    y = data.draw(st.sampled_from(lattice))
    lo, hi = meet(x, y), join(x, y)
    assert relation_pairs(lo) == relation_pairs(x) & relation_pairs(y)
    assert lo.leq(x) and lo.leq(y)
    assert x.leq(hi) and y.leq(hi)
    for z in lattice:
        if z.leq(x) and z.leq(y):
            assert z.leq(lo)
        if x.leq(z) and y.leq(z):
            assert hi.leq(z)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_canonical_partition_shape(data):
    act = data.draw(st.sampled_from(SMALL_ACTS))
    index = tuple(
        data.draw(st.integers(0, act.size - 1)) for _ in act.elements
    )
    try:
        chi = congruence_from_index(act, index)
    except ValueError:
        return  # incompatible partition: nothing to check
    seen = []
    for b in chi.index:
        if b not in seen:
            seen.append(b)
    assert seen == sorted(seen)  # labels appear in first-use order
    assert [b[0] for b in chi.blocks] == sorted(b[0] for b in chi.blocks)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_monoid_validation_matches_brute_force(data):
    n = data.draw(st.integers(2, 3))
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        table[0][x] = x
        table[x][0] = x
    for x in range(1, n):
        for y in range(1, n):
            table[x][y] = data.draw(st.integers(0, n - 1))
    associative = all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x, y, z in iproduct(range(n), repeat=3)
    )
    if associative:
        validate_monoid(table, 0)
    else:
        with pytest.raises(RadactError):
            validate_monoid(table, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_act_validation_matches_brute_force(data):
    monoid = data.draw(st.sampled_from(UNI.monoids))
    m = data.draw(st.integers(1, 3))
    table = [[0] * m for _ in range(monoid.size)]
    for a in range(m):
        table[monoid.identity][a] = a
    for s in range(monoid.size):
        if s == monoid.identity:
            continue
        for a in range(m):
            table[s][a] = data.draw(st.integers(0, m - 1))
    lawful = all(
        table[t][table[s][a]] == table[monoid.mul[t][s]][a]
        for t in range(monoid.size)
        for s in range(monoid.size)
        for a in range(m)
    )
    if lawful:
        validate_act(monoid, table)
    else:
        with pytest.raises(RadactError):
            validate_act(monoid, table)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hom_search_matches_exhaustive_filter(data):
    monoid = data.draw(st.sampled_from(UNI.monoids))
    acts = [a for a in UNI.acts_over(monoid) if a.size <= 3]
    src = data.draw(st.sampled_from(acts))
    tgt = data.draw(st.sampled_from(acts))
    brute = [
        mapping
        for mapping in iproduct(range(tgt.size), repeat=src.size)
        if is_equivariant(src, tgt, mapping)
    ]
    assert [h.map for h in all_homs(src, tgt)] == brute


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_catalog_round_trip_random_member(data):
    from radact.catalog import parse_act, parse_monoid, print_act, print_monoid

    act = data.draw(st.sampled_from(UNI.acts))
    monoid_text = print_monoid(act.monoid)
    monoid = parse_monoid(monoid_text)
    assert monoid == act.monoid
    assert parse_act(print_act(act), {monoid.name: monoid}) == act


def _drawn_rows(draw, count, width):
    # entries mostly in the carrier, now and then one past it or below it,
    # and now and then a row of the wrong width
    entry = st.sampled_from([*range(width)] * 3 + [-1, width])
    return [
        [draw(entry) for _ in range(
            draw(st.sampled_from([width] * 6 + [width - 1, width + 1])))]
        for _ in range(count)
    ]


def _text(head, rows):
    return head + "".join(" ".join(map(str, row)) + "\n" for row in rows)


@st.composite
def monoid_texts(draw):
    n = draw(st.integers(0, 3))
    rows = _drawn_rows(draw, n, n)
    if draw(st.booleans()):
        # 0 acts as the identity, so the text reaches associativity
        for x, row in enumerate(rows):
            if row:
                row[0] = x
            if x < len(rows[0]):
                rows[0][x] = x
    identity = draw(st.sampled_from([0, 0, 0, -1, n]))
    return _text(f"monoid X\nelements {n}\nidentity {identity}\ntable\n",
                 rows)


@st.composite
def act_texts(draw):
    monoid = draw(st.sampled_from(UNI.monoids))
    m = draw(st.integers(0, 3))
    rows = _drawn_rows(draw, monoid.size, m)
    if draw(st.booleans()):
        # the identity fixes every point, so the text reaches the act axiom
        rows[monoid.identity] = list(range(m))
    return _text(f"act A over {monoid.name}\nelements {m}\naction\n", rows)


@settings(max_examples=200, deadline=None)
@given(monoid_texts())
def test_monoid_parser_parses_or_reports(text):
    # the parser fuzz: a catalog file parses, or fails with one of the two
    # catalog errors; any other exception is a bug
    try:
        assert isinstance(parse_monoid(text), FiniteMonoid)
    except (ParseError, CatalogValidationError):
        pass


@settings(max_examples=200, deadline=None)
@given(act_texts())
def test_act_parser_parses_or_reports(text):
    monoids = {m.name: m for m in UNI.monoids}
    try:
        assert isinstance(parse_act(text, monoids), FiniteAct)
    except (ParseError, CatalogValidationError):
        pass
