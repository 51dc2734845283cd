"""Congruences of a finite act: lattice operations, Rees congruences, class
systems, quotients, essentiality and maximal complements, all built from
principal congruences theta(a, b) with no size bound; and the full lattice,
which only ``all_congruences`` builds, under the bound ``con_bound`` (it
alone raises ``SizeBound``).  The lattice is a walk over the set partitions
of the carrier that keeps the action-compatible ones.  It builds no
principal congruence and no join, so the tests that check essentiality and
complements against it do not rest on the principal congruences they test.
The lattice is read only where a question ranges over every congruence:
the checkers L1.2, L2.2, L2.11, T3.6, L3.7, T7.3 (condition c2) and L7.4
(quotients of radical acts); the meet formula of ``induced_radical``;
``verify_semisimple_class`` (quotients of non-members); cyclic acts; the
CLI ``congruences`` command; and the oracle ``collectively_large_by_homs``.

A ``Congruence`` is its act and its canonical index vector.  Extensions,
quotients and the total/diagonal tests read the index, and a join is the
congruence generated by both (``generated_congruence``); the block tuples
are built only when something asks for ``blocks``.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (
    ActHom,
    FiniteAct,
    Frozen,
    is_closed_mask,
    mask_members,
    members_mask,
)
from .errors import ActMismatch, NotDisjoint, SizeBound

CON_BOUND_DEFAULT = 7
MONOID_MAX_DEFAULT = 3
ACT_MAX_DEFAULT = 4
HULL_BOUND_DEFAULT = 6


def _canonical(index):
    """Relabel a block-index vector so labels appear in first-use order."""
    relabel = {}
    out = []
    for b in index:
        if b not in relabel:
            relabel[b] = len(relabel)
        out.append(relabel[b])
    return tuple(out)


def _blocks_of(index):
    blocks = {}
    for a, b in enumerate(index):
        blocks.setdefault(b, []).append(a)
    return tuple(tuple(blocks[b]) for b in sorted(blocks))


class Congruence(Frozen):
    """Act-compatible partition, canonicalised: ``index`` maps each element
    to its block id, ids numbered in first-use order, so blocks are sorted
    by least element.

    A value: equality and hash read (act, index).  ``blocks`` is computed on
    first use; most congruences are only ever compared or read through
    ``index``."""

    __slots__ = ("act", "index", "_blocks")

    def __init__(self, act: FiniteAct, index: tuple[int, ...]):
        _set_act(self, act)
        _set_index(self, index)

    def __reduce__(self):
        return Congruence, (self.act, self.index)

    def __eq__(self, other):
        if other.__class__ is not Congruence:
            return NotImplemented
        return self.index == other.index and self.act == other.act

    def __hash__(self):
        return hash((self.act, self.index))

    def __repr__(self):
        return (f"Congruence(act={self.act!r}, index={self.index!r}, "
                f"blocks={self.blocks!r})")

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        try:
            return self._blocks
        except AttributeError:
            blocks = _blocks_of(self.index)
            _set_blocks(self, blocks)
            return blocks

    def same(self, a: int, b: int) -> bool:
        return self.index[a] == self.index[b]

    def block_of(self, a: int) -> tuple[int, ...]:
        return self.blocks[self.index[a]]

    def is_diagonal(self) -> bool:
        # ids are numbered in first-use order, so the last element has id
        # size - 1 only when every element opened a block of its own
        return self.index[-1] == len(self.index) - 1

    def is_total(self) -> bool:
        return not any(self.index)

    def leq(self, other: "Congruence") -> bool:
        """Refinement order: every block of self sits inside a block of other."""
        oi = other.index
        si = self.index
        rep = {}
        for a in self.act.elements:
            b = si[a]
            if b in rep:
                if oi[a] != rep[b]:
                    return False
            else:
                rep[b] = oi[a]
        return True

    def __str__(self):
        return " | ".join(" ".join(str(a) for a in blk) for blk in self.blocks)


_set_act = Congruence.act.__set__
_set_index = Congruence.index.__set__
_set_blocks = Congruence._blocks.__set__


def _representatives(index):
    """The least element of each block, in block id order."""
    reps = []
    for a, b in enumerate(index):
        if b == len(reps):
            reps.append(a)
    return reps


def _make(act, index) -> Congruence:
    return Congruence(act, _canonical(index))


def congruence_from_index(act: FiniteAct, index) -> Congruence:
    chi = _make(act, tuple(index))
    if not _compatible(act, chi.index):
        raise ValueError("partition is not action-compatible")
    return chi


def congruence_from_blocks(act: FiniteAct, blocks) -> Congruence:
    index = [-1] * act.size
    for i, block in enumerate(blocks):
        for a in block:
            if not 0 <= a < act.size:
                raise ValueError(f"element {a} outside the carrier")
            if index[a] != -1:
                raise ValueError("blocks overlap")
            index[a] = i
    if -1 in index:
        raise ValueError("blocks do not cover the carrier")
    return congruence_from_index(act, index)


def _compatible(act, index) -> bool:
    for row in act.action:
        seen = {}
        for a in act.elements:
            b = index[a]
            if b in seen:
                if index[row[a]] != seen[b]:
                    return False
            else:
                seen[b] = index[row[a]]
    return True


def diagonal(act: FiniteAct) -> Congruence:
    return _make(act, tuple(act.elements))


def total(act: FiniteAct) -> Congruence:
    return _make(act, (0,) * act.size)


def parse_partition(act: FiniteAct, text: str) -> Congruence:
    blocks = []
    for chunk in text.split("|"):
        items = chunk.split()
        if not items:
            raise ValueError(f"empty block in partition {text!r}")
        blocks.append([int(x) for x in items])
    return congruence_from_blocks(act, blocks)


# ---------------------------------------------------------------------------
# generation and lattice structure


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def generated_congruence(act: FiniteAct, pairs) -> Congruence:
    """Least congruence containing the given pairs.

    Union-find closure: whenever two elements merge, their images under every
    monoid element merge as well, until a fixpoint.
    """
    uf = _UnionFind(act.size)
    work = []
    for a, b in pairs:
        if uf.union(a, b):
            work.append((a, b))
    while work:
        a, b = work.pop()
        for row in act.action:
            x, y = row[a], row[b]
            if uf.union(x, y):
                work.append((x, y))
    return _make(act, tuple(uf.find(a) for a in act.elements))


def meet(chi1: Congruence, chi2: Congruence) -> Congruence:
    if chi1.act != chi2.act:
        raise ActMismatch("congruences live on different acts")
    return _make(chi1.act, tuple(zip(chi1.index, chi2.index)))


def join(chi1: Congruence, chi2: Congruence) -> Congruence:
    if chi1.act != chi2.act:
        raise ActMismatch("congruences live on different acts")
    pairs = []
    for chi in (chi1, chi2):
        reps = _representatives(chi.index)
        pairs.extend((reps[b], a) for a, b in enumerate(chi.index))
    return generated_congruence(chi1.act, pairs)


def meets_nontrivially(chi1: Congruence, chi2: Congruence) -> bool:
    """Is the meet different from the diagonal?"""
    seen = set()
    for a in chi1.act.elements:
        key = (chi1.index[a], chi2.index[a])
        if key in seen:
            return True
        seen.add(key)
    return False


def rees_congruence(act: FiniteAct, masks) -> Congruence:
    """Congruence whose non-singleton classes are the given disjoint subacts;
    its quotient is the Rees factor collapsing each of them to a point."""
    index = list(act.elements)
    seen = 0
    for mask in masks:
        if mask & seen:
            raise NotDisjoint("parts overlap")
        if not is_closed_mask(act, mask):
            raise ValueError("parts must be subacts")
        seen |= mask
        members = mask_members(mask)
        for a in members:
            index[a] = members[0]
    return _make(act, tuple(index))


def rees_single(act: FiniteAct, mask: int) -> Congruence:
    return rees_congruence(act, [mask])


def is_rees(chi: Congruence) -> bool:
    """Every class is a singleton or action-closed."""
    for block in chi.blocks:
        if len(block) > 1 and not is_closed_mask(chi.act, members_mask(block)):
            return False
    return True


def class_system(chi: Congruence) -> tuple[int, ...]:
    """The classes of a congruence that are non-trivial subacts, as masks."""
    masks = (members_mask(block) for block in chi.blocks if len(block) >= 2)
    return tuple(m for m in masks if is_closed_mask(chi.act, m))


def smallest_extension(chi: Congruence, emb: ActHom) -> Congruence:
    """Push a congruence of an embedding's source to its target by adding
    singletons: the smallest congruence on the target that relates the images
    of chi-related points."""
    if chi.act != emb.source:
        raise ActMismatch("congruence is not on the embedding's source")
    index = list(emb.target.elements)
    reps = [emb.map[a] for a in _representatives(chi.index)]
    for a, b in enumerate(chi.index):
        index[emb.map[a]] = reps[b]
    return _make(emb.target, tuple(index))


# ---------------------------------------------------------------------------
# quotients, kernels, transport


def quotient(act: FiniteAct, chi: Congruence) -> tuple[FiniteAct, ActHom]:
    """Carrier = classes of chi; action induced by compatibility."""
    if chi.act != act:
        raise ActMismatch("congruence is not on this act")
    reps = _representatives(chi.index)
    action = tuple(
        tuple(chi.index[row[r]] for r in reps) for row in act.action
    )
    quo = FiniteAct(act.monoid, action)
    return quo, ActHom(act, quo, chi.index)


def push_congruence(pi: ActHom, chi: Congruence) -> Congruence:
    """Image partition pi(chi) for a surjection whose kernel refines chi."""
    if chi.act != pi.source:
        raise ActMismatch("congruence is not on the map's source")
    index = [-1] * pi.target.size
    for a in pi.source.elements:
        b = pi.map[a]
        if index[b] == -1:
            index[b] = chi.index[a]
        elif index[b] != chi.index[a]:
            raise ValueError("kernel of the map does not refine the congruence")
    return _make(pi.target, tuple(index))


def pull_congruence(f: ActHom, chi: Congruence) -> Congruence:
    """Preimage congruence: relate x, y when f(x), f(y) are related."""
    if chi.act != f.target:
        raise ActMismatch("congruence is not on the map's target")
    return _make(f.source, tuple(chi.index[f.map[a]] for a in f.source.elements))


def relation_pairs(chi: Congruence) -> frozenset:
    out = set()
    for a in chi.act.elements:
        for b in chi.act.elements:
            if chi.same(a, b):
                out.add((a, b))
    return frozenset(out)


# ---------------------------------------------------------------------------
# essentiality and complements, from principal congruences


def is_essential(chi: Congruence) -> bool:
    """Does chi meet every non-diagonal congruence non-trivially?

    Only principal congruences are tested.  Every non-diagonal congruence
    contains some principal theta(a, b) with a != b, and meets are monotone,
    so chi meets every non-diagonal congruence non-trivially iff it meets
    every such theta(a, b) non-trivially.  When chi already relates a and b
    the meet contains (a, b), so only the pairs chi separates are built.
    """
    act = chi.act
    for a in act.elements:
        for b in range(a + 1, act.size):
            if chi.same(a, b):
                continue
            theta = generated_congruence(act, [(a, b)])
            if not meets_nontrivially(chi, theta):
                return False
    return True


def maximal_complement(act: FiniteAct, chi: Congruence) -> Congruence:
    """Of the congruences maximal among those meeting chi in the diagonal,
    the one with the least canonical index vector.

    From the diagonal kappa, for each x in carrier order and each y < x that
    kappa does not relate, take kappa v theta(y, x), generated by the merges
    taken and (y, x), if it meets chi in the diagonal.  A proper enlargement
    has a smaller index vector (where they first differ it joins an earlier
    block), so the least complement L is maximal; complements are
    down-closed.  With kappa <= L agreeing with L before x: if L puts x in
    an earlier block with least point m, kappa v theta(m, x) <= L is taken;
    any other merge is coarser than L before x or gives x a smaller block
    label, so it is below L, no complement, and refused.  So kappa ends as L.
    """
    kappa, taken = diagonal(act), []
    for x in act.elements:
        for y in range(x):
            if kappa.same(y, x):
                continue
            grown = generated_congruence(act, taken + [(y, x)])
            if not meets_nontrivially(chi, grown):
                kappa = grown
                taken.append((y, x))
    return kappa


# ---------------------------------------------------------------------------
# full enumeration


def _restricted_growth_strings(n):
    """Every canonical index vector of length n, in lexicographic order:
    each entry is at most one more than the largest before it."""
    strings = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings
                   for b in range(max(s, default=-1) + 2)]
    return strings


@lru_cache(maxsize=None)
def all_congruences(act: FiniteAct, bound: int = CON_BOUND_DEFAULT) -> tuple[Congruence, ...]:
    """Full congruence lattice, sorted by index vector.

    A congruence is an action-compatible partition, and the canonical index
    vectors of the partitions of n points are the restricted-growth strings
    of length n (Knuth, TAOCP 4A, 7.2.1.5).  So the lattice is the strings
    that ``_compatible`` accepts, walked in lexicographic order: Bell(n)
    strings for n points, at most 877 at the default bound.  No principal
    congruence or join is built, so the tests that check ``is_essential``
    and ``maximal_complement`` against this lattice do not rest on the
    principal congruences those two build."""
    if act.size > bound:
        raise SizeBound(f"carrier {act.size} exceeds lattice bound {bound}")
    return tuple(
        Congruence(act, index)
        for index in _restricted_growth_strings(act.size)
        if _compatible(act, index)
    )
