import copy
import pickle
from dataclasses import FrozenInstanceError
from itertools import islice, product as iproduct

import pytest

from radact.congruence import (
    CON_BOUND_DEFAULT,
    Congruence,
    _blocks_of,
    all_congruences,
    class_system,
    congruence_from_blocks,
    diagonal,
    generated_congruence,
    is_essential,
    is_rees,
    join,
    maximal_complement,
    meet,
    meets_nontrivially,
    parse_partition,
    pull_congruence,
    push_congruence,
    quotient,
    rees_congruence,
    rees_single,
    smallest_extension,
    total,
)
from radact.core import (
    FiniteAct,
    all_homs,
    find_isomorphism,
    left_regular_act,
    subact_act_by_mask,
    subact_masks,
    trivial_act,
    validate_act,
    validate_monoid,
)
from radact.errors import ActMismatch, BoundExceeded, NotDisjoint, SizeBound
from radact.injectivity import injective_hull, is_large
from radact.universe import Universe, act_tables, default_universe
from sweep import act_tables_by_sweep, congruences_by_join_closure


@pytest.fixture(scope="module")
def A3(T1):
    return validate_act(T1, [[0, 1, 2]], "A3")


def all_partitions(n):
    """Brute-force enumeration of set partitions of range(n)."""
    if n == 0:
        return [[]]
    out = []
    for smaller in all_partitions(n - 1):
        x = n - 1
        for i in range(len(smaller)):
            out.append(smaller[:i] + [smaller[i] + [x]] + smaller[i + 1:])
        out.append(smaller + [[x]])
    return out


def test_diagonal_total_on_point(T1):
    one = validate_act(T1, [[0]])
    assert diagonal(one) == total(one)
    assert len(all_congruences(one)) == 1


def test_block_counts(A3):
    assert len(diagonal(A3).blocks) == 3
    assert len(total(A3).blocks) == 1


def test_everything_between_bottom_and_top(A3):
    for chi in all_congruences(A3):
        assert diagonal(A3).leq(chi)
        assert chi.leq(total(A3))


def test_generated_empty_is_diagonal(A3):
    assert generated_congruence(A3, []) == diagonal(A3)


def test_generated_over_identity_monoid_merges_only_pair(A3):
    chi = generated_congruence(A3, [(0, 1)])
    assert chi.blocks == ((0, 1), (2,))


def test_generated_on_regular_act(R2):
    assert generated_congruence(R2, [(0, 1)]) == total(R2)


def test_meet_example(A3):
    c1 = parse_partition(A3, "0 1 | 2")
    c2 = parse_partition(A3, "0 | 1 2")
    assert meet(c1, c2) == diagonal(A3)
    assert join(c1, c2) == total(A3)


def test_meet_with_diagonal_join_with_total(A3):
    for chi in all_congruences(A3):
        assert meet(chi, diagonal(A3)) == diagonal(A3)
        assert join(chi, total(A3)) == total(A3)
        assert meet(chi, total(A3)) == chi
        assert join(chi, diagonal(A3)) == chi


def test_lattice_laws(U):
    sample = [a for a in U.acts if 2 <= a.size <= 3][:8]
    for act in sample:
        lattice = all_congruences(act, U.con_bound)
        for x in lattice:
            assert meet(x, x) == x and join(x, x) == x
            for y in lattice:
                assert meet(x, y) == meet(y, x)
                assert join(x, y) == join(y, x)
                assert meet(x, join(x, y)) == x
                assert join(x, meet(x, y)) == x
                for z in lattice:
                    assert meet(meet(x, y), z) == meet(x, meet(y, z))
                    assert join(join(x, y), z) == join(x, join(y, z))


def test_act_mismatch(A3, R2):
    with pytest.raises(ActMismatch):
        meet(diagonal(A3), diagonal(R2))


def test_rees_congruence_edges(A3):
    assert rees_congruence(A3, []) == diagonal(A3)
    assert rees_congruence(A3, [0b111]) == total(A3)
    with pytest.raises(NotDisjoint):
        rees_congruence(A3, [0b011, 0b110])


def test_rees_outputs_are_rees(U):
    for act in U.acts[:40]:
        for mask in subact_masks(act):
            assert is_rees(rees_single(act, mask))


def test_is_rees_examples(A3, R2):
    assert is_rees(diagonal(A3)) and is_rees(total(A3))
    assert is_rees(parse_partition(A3, "0 1 | 2"))
    assert is_rees(parse_partition(R2, "0 1"))


def test_non_rees_congruence(E2):
    # two chained threads: merging the two non-fixed points is compatible
    # but the resulting class is not action-closed
    act = validate_act(E2, [[0, 1, 2, 3], [2, 3, 2, 3]])
    chi = parse_partition(act, "0 1 | 2 3")
    assert not is_rees(chi)


def test_class_system(A3):
    assert class_system(diagonal(A3)) == ()
    assert class_system(total(A3)) == (0b111,)
    chi = parse_partition(A3, "0 1 | 2")
    assert class_system(chi) == (0b011,)


def test_smallest_extension(A3):
    inner, incl = subact_act_by_mask(A3, 0b011)
    assert smallest_extension(diagonal(inner), incl) == diagonal(A3)
    # the total congruence of the subact extends to its Rees congruence
    assert smallest_extension(total(inner), incl) == rees_single(A3, 0b011)
    _, full = subact_act_by_mask(A3, 0b111)
    chi = parse_partition(A3, "0 1 | 2")
    assert smallest_extension(chi, full) == chi
    with pytest.raises(ActMismatch):
        smallest_extension(chi, incl)


def test_all_congruences_counts(T1, A3):
    two = validate_act(T1, [[0, 1]])
    assert len(all_congruences(two)) == 2
    # Bell(3): every partition is compatible over the identity-only monoid
    partitions = all_partitions(3)
    assert len(partitions) == 5
    found = {c.blocks for c in all_congruences(A3)}
    expected = {
        tuple(sorted((tuple(sorted(b)) for b in p), key=lambda t: t[0]))
        for p in partitions
    }
    assert found == expected


def test_lattice_holds_its_bounds_and_every_principal_congruence(U):
    # a sanity check of every default act's lattice that needs no oracle:
    # the diagonal, the total congruence and each theta(a, b) belong to it
    principal = 0
    for act in U.acts:
        lattice = set(all_congruences(act, U.con_bound))
        assert diagonal(act) in lattice and total(act) in lattice, act
        for a in act.elements:
            for b in range(a + 1, act.size):
                theta = generated_congruence(act, [(a, b)])
                assert theta in lattice, (act, a, b)
                principal += 1
    assert principal > len(U.acts)


def test_all_congruences_on_regular_act(R2):
    assert [str(c) for c in all_congruences(R2)] == ["0 1", "0 | 1"]


def test_size_bound(T1):
    big = validate_act(T1, [list(range(8))])
    with pytest.raises(SizeBound):
        all_congruences(big, 7)


def _lattice_oracle_sample():
    """Every act of the default universe, the left regular act of every
    monoid, and a fixed handful of 5- to 7-point acts: the first orderly
    extensions to each size of each monoid's last universe act.  The
    universe registers no radical, so t_LrG's class check, which reads the
    lattice, cannot stop the test before it compares."""
    universe = Universe()
    yield from universe.acts
    for monoid in universe.monoids:
        yield left_regular_act(monoid)
    for monoid in universe.monoids:
        base = universe.acts_over(monoid)[-1]
        for size, count in ((5, 3), (6, 2), (7, 1)):
            for table in islice(act_tables(monoid, size, base), count):
                yield FiniteAct(monoid, table)


def test_all_congruences_matches_join_closure():
    sizes = set()
    for act in _lattice_oracle_sample():
        assert all_congruences(act) == congruences_by_join_closure(act), act
        sizes.add(act.size)
    assert sizes == set(range(1, 8))


def test_kernel_of_rees_projection(U):
    for act in U.acts[:25]:
        for mask in subact_masks(act):
            quo, _ = quotient(act, rees_single(act, mask))
            # the subact collapses to one point, every other point stays
            assert quo.size == act.size - mask.bit_count() + 1


def test_quotient_by_diagonal_and_total(U):
    for act in U.acts[:25]:
        q, _ = quotient(act, diagonal(act))
        assert find_isomorphism(q, act) is not None
        q, _ = quotient(act, total(act))
        assert q.size == 1


def test_is_essential(T1, A3):
    two = validate_act(T1, [[0, 1]])
    assert is_essential(total(two))
    one = validate_act(T1, [[0]])
    assert is_essential(diagonal(one))  # vacuous: no other congruence
    assert not is_essential(parse_partition(A3, "0 1 | 2"))
    assert is_essential(total(A3))


def _is_essential_by_lattice(chi, bound=CON_BOUND_DEFAULT):
    """Definition-level oracle: chi meets every non-diagonal congruence of
    the full lattice non-trivially."""
    return all(
        meets_nontrivially(chi, theta)
        for theta in all_congruences(chi.act, bound)
        if not theta.is_diagonal()
    )


def _assert_essential_agrees(act, bound=CON_BOUND_DEFAULT):
    for chi in all_congruences(act, bound):
        expected = _is_essential_by_lattice(chi, bound)
        assert is_essential(chi) == expected, (act, str(chi))


def test_is_essential_matches_lattice_on_universe(U):
    for act in U.acts:
        _assert_essential_agrees(act)


def _hull_candidate_sample(U):
    """Hull search tests largeness on extensions of up to 6 points: the
    first tables of each monoid at sizes 5 and 6 in the unpruned sweep,
    and every hull found at those sizes."""
    for monoid in U.monoids:
        base = max(U.acts_over(monoid), key=lambda a: a.size)
        for size in (5, 6):
            for table in islice(act_tables_by_sweep(monoid, size, base), 4):
                yield FiniteAct(monoid, table)
    for act in U.acts:
        try:
            hull = injective_hull(act, U)
        except BoundExceeded:
            continue
        if hull.size >= 5:
            yield hull


def test_is_essential_matches_lattice_on_hull_candidates(U):
    for ext in _hull_candidate_sample(U):
        _assert_essential_agrees(ext)


def test_is_essential_decides_acts_above_lattice_bound():
    # no lattice is built, so an act above the lattice bound is decided:
    # two copies of a 4-point act over {1, a, b} with xy = y for x, y != 1,
    # where 52 of the 120 congruences are essential and 16 of the 48 subacts
    # large
    monoid = validate_monoid([[0, 1, 2], [1, 1, 2], [2, 1, 2]], 0)
    big = validate_act(monoid, [
        list(range(8)), [0, 0, 2, 2, 4, 4, 6, 6], [0, 2, 2, 0, 4, 6, 6, 4],
    ])
    assert big.size > CON_BOUND_DEFAULT
    for chi in all_congruences(big, big.size):
        expected = _is_essential_by_lattice(chi, big.size)
        assert is_essential(chi) == expected, str(chi)
    for mask in subact_masks(big):
        expected = _is_essential_by_lattice(rees_single(big, mask), big.size)
        assert is_large(big, mask) == expected, bin(mask)


def test_maximal_complement_edges(A3, R2):
    assert maximal_complement(A3, diagonal(A3)) == total(A3)
    assert maximal_complement(R2, total(R2)) == diagonal(R2)


def test_maximal_complement_example(A3):
    chi = parse_partition(A3, "0 1 | 2")
    kappa = maximal_complement(A3, chi)
    assert str(kappa) == "0 2 | 1"


def test_maximal_complement_is_maximal(U):
    sample = [a for a in U.acts if a.size <= 3][:12]
    for act in sample:
        lattice = all_congruences(act, U.con_bound)
        for chi in lattice:
            kappa = maximal_complement(act, chi)
            assert meet(chi, kappa) == diagonal(act)
            for other in lattice:
                if kappa != other and kappa.leq(other):
                    assert meet(chi, other) != diagonal(act)


def _maximal_complement_by_lattice(act, chi, bound=CON_BOUND_DEFAULT):
    """Oracle for ``maximal_complement``: build the whole lattice, keep the
    congruences meeting chi in the diagonal, keep the inclusion-maximal ones
    among those, and return the one with the least canonical index vector."""
    lattice = all_congruences(act, bound)
    candidates = [k for k in lattice if not meets_nontrivially(chi, k)]
    maximal = [
        k for k in candidates
        if not any(k != other and k.leq(other) for other in candidates)
    ]
    return min(maximal, key=lambda c: c.index)


def _assert_complement_agrees(act):
    for chi in all_congruences(act):
        expected = _maximal_complement_by_lattice(act, chi)
        assert maximal_complement(act, chi) == expected, (act, str(chi))


def test_maximal_complement_matches_lattice_on_universe(U):
    for act in U.acts:
        _assert_complement_agrees(act)


def test_maximal_complement_matches_lattice_on_hull_candidates(U):
    # both sides read the act only through its lattice (theta(y, x) is the
    # least member relating y and x), so each lattice is checked once
    seen = set()
    for ext in _hull_candidate_sample(U):
        lattice = tuple(chi.index for chi in all_congruences(ext))
        if lattice not in seen:
            seen.add(lattice)
            _assert_complement_agrees(ext)


def test_class_system_round_trip_on_rees(U):
    for act in U.acts[:40]:
        for chi in all_congruences(act, U.con_bound):
            if is_rees(chi):
                system = class_system(chi)
                assert rees_congruence(act, system) == chi


def test_push_pull(R2):
    quo, pi = quotient(R2, total(R2))
    assert push_congruence(pi, total(R2)) == diagonal(quo)
    assert pull_congruence(pi, diagonal(quo)) == total(R2)


def test_partition_string_round_trip(U):
    for act in U.acts[:30]:
        for chi in all_congruences(act, U.con_bound):
            assert parse_partition(act, str(chi)) == chi


def test_index_readers_and_lazy_blocks_match_blocks_of():
    # is_total, is_diagonal and quotient read the index vector only, and
    # blocks is computed on first use: all agree with the blocks of the index
    small = default_universe(monoid_max=2)
    for act in small.acts:
        for chi in all_congruences(act):
            blocks = _blocks_of(chi.index)
            fresh = Congruence(act, chi.index)
            assert fresh.is_total() == (len(blocks) == 1)
            assert fresh.is_diagonal() == (len(blocks) == act.size)
            quo, pi = quotient(act, fresh)
            assert quo.action == tuple(
                tuple(chi.index[row[block[0]]] for block in blocks)
                for row in act.action
            )
            assert pi.map == chi.index
            assert fresh.blocks == blocks
            assert fresh.block_of(act.size - 1) == blocks[chi.index[-1]]


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_congruence_copies_keep_value(A3, clone):
    chi = generated_congruence(A3, [(0, 2)])
    twin = clone(chi)
    assert twin == chi and twin is not chi
    assert hash(twin) == hash(chi) == hash((A3, chi.index))
    assert repr(twin) == repr(chi)
    assert twin.blocks == ((0, 2), (1,))


def test_congruence_refuses_assignment(A3):
    chi = diagonal(A3)
    for name in ("act", "index", "blocks", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(chi, name, None)
    with pytest.raises(FrozenInstanceError):
        del chi.index
    assert chi.index == (0, 1, 2)



# each call gets E2's regular act R2, Z2's free orbit C2 and R2's map to
# the point
@pytest.mark.parametrize("call, error, message", [
    (lambda R2, C2, f: congruence_from_blocks(R2, [[0, 1], [1]]),
     ValueError, "blocks overlap"),
    (lambda R2, C2, f: congruence_from_blocks(R2, [[0]]),
     ValueError, "blocks do not cover the carrier"),
    (lambda R2, C2, f: parse_partition(R2, "0 1 |"),
     ValueError, "empty block in partition '0 1 |'"),
    (lambda R2, C2, f: join(diagonal(R2), diagonal(C2)),
     ActMismatch, "congruences live on different acts"),
    (lambda R2, C2, f: quotient(R2, diagonal(C2)),
     ActMismatch, "congruence is not on this act"),
    (lambda R2, C2, f: push_congruence(f, diagonal(C2)),
     ActMismatch, "congruence is not on the map's source"),
    (lambda R2, C2, f: push_congruence(f, diagonal(R2)),
     ValueError, "kernel of the map does not refine the congruence"),
    (lambda R2, C2, f: pull_congruence(f, diagonal(R2)),
     ActMismatch, "congruence is not on the map's target"),
])
def test_congruence_refusals(R2, C2, call, error, message):
    to_point, = all_homs(R2, trivial_act(R2.monoid))
    with pytest.raises(error) as err:
        call(R2, C2, to_point)
    assert str(err.value) == message
