"""Finite monoids, acts over them, equivariant maps and elementary constructions.

Carriers are index sets 0..size-1.  Every structure is immutable and hashable,
so results that depend only on these values are memoised in value-keyed
``lru_cache``s, shared by every universe in the process.  Monoids, acts,
maps (``ActHom``), hom sets (``HomSet``) and congruences
(``congruence.Congruence``) share one base, ``Frozen``: slotted values that
refuse assignment and that copies and pickles rebuild from their fields.
``all_homs`` holds each hom set once, as its two acts and a tuple of map
tuples, with each distinct map tuple held once for the process
(``_shared_map``); a hom set iterates as ``ActHom``, building one only for a
map that leaves it, and ``injective_homs`` alone builds the injective ones.
``FiniteMonoid`` and ``FiniteAct`` store their size, their elements and
their hash once, at construction; hash and equality read the table fields
only (names take part in neither), and equality answers at once for the
same object and compares the stored hashes before the tables.  Results
that depend on a ``Universe`` or a ``Radical`` are memoised on that object
(see ``memo_on``), so they are freed together with it; README's
"Memoisation" lists what each keeps.
A subact (a non-empty action-closed subset of a carrier) is always a bitmask
over its parent's carrier: bit a is set when element a belongs to it.
``members_mask`` builds every mask of a member list, ``mask_members`` walks
every mask's members, and ``is_closed_mask`` is the one closure test.
``subact_act_by_mask`` materialises a subact as an act plus its inclusion,
and ``relabel`` builds every relabelled copy of an act.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import lru_cache, wraps
from itertools import repeat

from .errors import (
    ActMismatch,
    AssocAxiom,
    BadIdentity,
    IdentityAxiom,
    NotAssociative,
)


_MISSING = object()
_setattr = object.__setattr__


def memo_on(owner: int):
    """Memoise a function in the ``memo`` dict of its ``owner``-th positional
    argument, keyed by one flat tuple of the function and the other
    arguments, so that entries live exactly as long as that argument.  Call
    the result positionally."""

    def decorate(fn):
        @wraps(fn)
        def memoised(*args):
            memo = args[owner].memo
            key = (fn, *args[:owner], *args[owner + 1:])
            got = memo.get(key, _MISSING)
            if got is _MISSING:
                got = memo[key] = fn(*args)
            return got

        return memoised

    return decorate


class Frozen:
    """Base of the slotted value classes: assignment and deletion raise
    ``FrozenInstanceError``, as on a frozen dataclass.  A subclass sets its
    slots in ``__init__`` through ``object.__setattr__`` or, faster, through
    the slot descriptors, and defines ``__reduce__`` so that copies and
    pickles rebuild it."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class FiniteMonoid(Frozen):
    """Multiplication table with a two-sided identity."""

    __slots__ = ("mul", "identity", "name", "size", "elements", "_hash")

    def __init__(self, mul, identity, name=""):
        _setattr(self, "mul", mul)
        _setattr(self, "identity", identity)
        _setattr(self, "name", name)
        _setattr(self, "size", len(mul))
        _setattr(self, "elements", range(len(mul)))
        _setattr(self, "_hash", hash((mul, identity)))

    def __reduce__(self):
        return FiniteMonoid, (self.mul, self.identity, self.name)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.mul == other.mul
                and self.identity == other.identity)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteMonoid({self.name or self.mul}, identity={self.identity})"


class FiniteAct(Frozen):
    """A carrier together with a left action table: action[s][a] = s*a."""

    __slots__ = ("monoid", "action", "name", "size", "elements", "_hash")

    def __init__(self, monoid, action, name=""):
        _setattr(self, "monoid", monoid)
        _setattr(self, "action", action)
        _setattr(self, "name", name)
        _setattr(self, "size", len(action[0]))
        _setattr(self, "elements", range(len(action[0])))
        _setattr(self, "_hash", hash((monoid, action)))

    def __reduce__(self):
        return FiniteAct, (self.monoid, self.action, self.name)

    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.action == other.action
                and (self.monoid is other.monoid or self.monoid == other.monoid))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteAct({self.name or self.action}, over={self.monoid.name or '?'})"


class ActHom(Frozen):
    """Equivariant map between two acts over the same monoid.

    A value: equality, hash and repr read (source, target, map), and copies
    and pickles rebuild it from those three fields."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: FiniteAct, target: FiniteAct,
                 map: tuple[int, ...]):
        _set_source(self, source)
        _set_target(self, target)
        _set_map(self, map)

    def __reduce__(self):
        return ActHom, (self.source, self.target, self.map)

    def __eq__(self, other):
        if other.__class__ is not ActHom:
            return NotImplemented
        return (self.map == other.map and self.source == other.source
                and self.target == other.target)

    def __hash__(self):
        return hash((self.source, self.target, self.map))

    def __repr__(self):
        return (f"ActHom(source={self.source!r}, target={self.target!r}, "
                f"map={self.map!r})")

    def is_injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.source.size == self.target.size

    def image_mask(self) -> int:
        return members_mask(self.map)


_set_source = ActHom.source.__set__
_set_target = ActHom.target.__set__
_set_map = ActHom.map.__set__


class HomSet(Frozen):
    """The maps source -> target of one hom set, held once: the two acts and
    ``maps``, a tuple of map tuples, each the process's one copy of its
    images (``_shared_map``).  ``len`` and truth read as on ``maps``, and
    iteration yields each map as an ``ActHom``; a hom set is not indexable.
    Readers that need only the images read ``maps``."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: FiniteAct, target: FiniteAct,
                 maps: tuple[tuple[int, ...], ...]):
        _setattr(self, "source", source)
        _setattr(self, "target", target)
        _setattr(self, "maps", maps)

    def __reduce__(self):
        return HomSet, (self.source, self.target, self.maps)

    def __eq__(self, other):
        if other.__class__ is not HomSet:
            return NotImplemented
        return (self.maps == other.maps and self.source == other.source
                and self.target == other.target)

    def __hash__(self):
        return hash((self.source, self.target, self.maps))

    def __repr__(self):
        return (f"HomSet(source={self.source!r}, target={self.target!r}, "
                f"maps={self.maps!r})")

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return map(ActHom, repeat(self.source), repeat(self.target),
                   self.maps)


def mask_members(mask: int) -> tuple[int, ...]:
    out = []
    a = 0
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return tuple(out)


def members_mask(members) -> int:
    m = 0
    for a in members:
        m |= 1 << a
    return m


# ---------------------------------------------------------------------------
# validation


def validate_monoid(table, identity: int, name: str = "") -> FiniteMonoid:
    """Build a monoid from a square table, verifying identity and associativity."""
    mul = tuple(tuple(row) for row in table)
    n = len(mul)
    if any(len(row) != n for row in mul):
        raise ValueError("multiplication table must be square")
    for row in mul:
        for z in row:
            if type(z) is not int:
                raise ValueError(f"table entry {z!r} is not an integer")
            if not 0 <= z < n:
                raise ValueError(f"table entry {z} outside carrier")
    if type(identity) is not int or not 0 <= identity < n:
        raise BadIdentity(identity)
    for x in range(n):
        if mul[identity][x] != x or mul[x][identity] != x:
            raise BadIdentity(x)
    for x in range(n):
        for y in range(n):
            xy = mul[x][y]
            for z in range(n):
                if mul[xy][z] != mul[x][mul[y][z]]:
                    raise NotAssociative(x, y, z)
    return FiniteMonoid(mul, identity, name)


def validate_act(monoid: FiniteMonoid, action_table, name: str = "") -> FiniteAct:
    """Build an act from an action table, verifying both act axioms."""
    action = tuple(tuple(row) for row in action_table)
    n = monoid.size
    if len(action) != n:
        raise ValueError(f"action table needs {n} rows, got {len(action)}")
    m = len(action[0])
    if m < 1:
        raise ValueError("carriers are non-empty")
    if any(len(row) != m for row in action):
        raise ValueError("action table rows must have equal length")
    for row in action:
        for b in row:
            if type(b) is not int:
                raise ValueError(f"action value {b!r} is not an integer")
            if not 0 <= b < m:
                raise ValueError(f"action value {b} outside carrier")
    e = monoid.identity
    for a in range(m):
        if action[e][a] != a:
            raise IdentityAxiom(a)
    mul = monoid.mul
    for t in range(n):
        for s in range(n):
            ts = mul[t][s]
            for a in range(m):
                if action[t][action[s][a]] != action[ts][a]:
                    raise AssocAxiom(t, s, a)
    return FiniteAct(monoid, action, name)


def left_regular_act(monoid: FiniteMonoid) -> FiniteAct:
    """The monoid acting on itself by left multiplication."""
    return FiniteAct(monoid, monoid.mul, name=(monoid.name or "S") + ".reg")


def trivial_act(monoid: FiniteMonoid) -> FiniteAct:
    return FiniteAct(monoid, tuple((0,) for _ in monoid.elements), name="theta")


# ---------------------------------------------------------------------------
# zeros, cyclic subacts, subact enumeration


@lru_cache(maxsize=None)
def zeros(act: FiniteAct) -> tuple[int, ...]:
    """Elements fixed by every monoid element (the one-element subacts)."""
    return tuple(
        a for a in act.elements if all(row[a] == a for row in act.action)
    )


def cyclic_mask(act: FiniteAct, a: int) -> int:
    return members_mask(row[a] for row in act.action)


def is_closed_mask(act: FiniteAct, mask: int) -> bool:
    # its own bit walk, not ``mask_members``: it is the hottest mask reader
    probe = mask
    a = 0
    while probe:
        if probe & 1:
            for row in act.action:
                if not (mask >> row[a]) & 1:
                    return False
        probe >>= 1
        a += 1
    return True


@lru_cache(maxsize=None)
def subact_masks(act: FiniteAct) -> tuple[int, ...]:
    """All non-empty action-closed subsets, in increasing bitmask order."""
    return tuple(mask for mask in range(1, 1 << act.size)
                 if is_closed_mask(act, mask))


def subact_from_members(act: FiniteAct, members) -> int:
    """The mask of the subact with the given members, checked to be a
    non-empty action-closed subset of the carrier: the checked constructor
    of subacts (see ``hom``)."""
    if not all(type(a) is int for a in members):
        raise ValueError("has a non-integer member")
    if not all(0 <= a < act.size for a in members):
        raise ValueError(f"is outside the {act.size}-point act")
    mask = members_mask(members)
    if not mask:
        raise ValueError("is empty")
    if not is_closed_mask(act, mask):
        raise ValueError("is not action-closed")
    return mask


# ---------------------------------------------------------------------------
# sums and products


def coproduct(a: FiniteAct, b: FiniteAct) -> tuple[FiniteAct, ActHom, ActHom]:
    """Disjoint union, first summand's carrier first."""
    total, injections = coproduct_many([a, b])
    return total, injections[0], injections[1]


def coproduct_many(acts) -> tuple[FiniteAct, list[ActHom]]:
    acts = list(acts)
    if not acts:
        raise ValueError("coproduct of no acts")
    monoid = acts[0].monoid
    if any(x.monoid != monoid for x in acts):
        raise ActMismatch("coproduct requires a common monoid")
    offsets = []
    total = 0
    for x in acts:
        offsets.append(total)
        total += x.size
    action = tuple(
        tuple(
            off + x.action[s][a]
            for x, off in zip(acts, offsets)
            for a in x.elements
        )
        for s in monoid.elements
    )
    out = FiniteAct(monoid, action)
    injections = [
        ActHom(x, out, tuple(range(off, off + x.size)))
        for x, off in zip(acts, offsets)
    ]
    return out, injections


def product(*acts: FiniteAct) -> FiniteAct:
    """Cartesian product with componentwise action; tuples in lex order."""
    if not acts:
        raise ValueError("product of no acts")
    monoid = acts[0].monoid
    if any(x.monoid != monoid for x in acts):
        raise ActMismatch("product requires a common monoid")
    tuples = product_tuples(*acts)
    index = {t: i for i, t in enumerate(tuples)}
    action = tuple(
        tuple(
            index[tuple(x.action[s][c] for x, c in zip(acts, t))]
            for t in tuples
        )
        for s in monoid.elements
    )
    return FiniteAct(monoid, action)


def product_tuples(*acts: FiniteAct) -> list[tuple[int, ...]]:
    """Carrier labelling used by product(), for tests and reports."""
    tuples = [()]
    for x in acts:
        tuples = [t + (a,) for t in tuples for a in x.elements]
    return tuples


# ---------------------------------------------------------------------------
# homomorphisms


def identity_hom(act: FiniteAct) -> ActHom:
    return ActHom(act, act, tuple(act.elements))


def compose(g: ActHom, f: ActHom) -> ActHom:
    """g after f."""
    if f.target != g.source:
        raise ActMismatch("homs do not compose")
    return ActHom(f.source, g.target, tuple(map(g.map.__getitem__, f.map)))


def is_equivariant(source: FiniteAct, target: FiniteAct, mapping) -> bool:
    if source.monoid != target.monoid:
        return False
    for s in source.monoid.elements:
        src_row = source.action[s]
        tgt_row = target.action[s]
        for a in source.elements:
            if mapping[src_row[a]] != tgt_row[mapping[a]]:
                return False
    return True


def hom(source: FiniteAct, target: FiniteAct, mapping) -> ActHom:
    """The map source -> target with images ``mapping``, checked to be a
    homomorphism.  ``hom``, ``subact_from_members`` and
    ``DirectedChain.from_maps`` build every map, subact and chain read from
    a flag or a report witness.  Each refuses a value with ``ActMismatch``
    or ``ValueError``, in a message that reads after the value ("is not
    equivariant")."""
    mapping = tuple(mapping)
    if source.monoid != target.monoid:
        raise ActMismatch("joins acts over different monoids")
    if len(mapping) != source.size:
        raise ValueError(f"needs {source.size} images, got {len(mapping)}")
    if not all(type(b) is int for b in mapping):
        raise ValueError("has a non-integer entry")
    if not all(0 <= b < target.size for b in mapping):
        raise ValueError("has entries outside target carrier")
    if not is_equivariant(source, target, mapping):
        raise ValueError("is not equivariant")
    return ActHom(source, target, mapping)


def _hom_search(source, target, partial, injective, limit=None):
    """Backtracking enumeration of equivariant maps extending ``partial``.

    Assigning f(a) = b sets f(s*a) = s*b for every s in one pass over the
    monoid: S*(S*a) = S*a, so that pass covers the whole orbit of a, in |S|
    steps, with no stack of points to revisit.  Each step checks its point
    on its own: a value already set must agree, and an injective search
    refuses an image that another point holds.  Candidate images are tried
    in ascending order and elements are branched left to right, so the
    maps come in lexicographic order of their tuples: a tuple of the first
    ``limit`` of them, or of all when ``limit`` is None.
    """
    n_src = source.size
    # column a of an action table: s*a for every s, in monoid order
    s_cols = tuple(zip(*source.action))
    t_cols = tuple(zip(*target.action))
    f = [-1] * n_src
    used = 0

    def try_assign(a, b):
        # returns the points assigned, for undo, or None on conflict
        nonlocal used
        done = []
        for x, y in zip(s_cols[a], t_cols[b]):
            cur = f[x]
            if cur == y:
                continue
            if cur != -1 or (injective and (used >> y) & 1):
                for z in done:
                    used &= ~(1 << f[z])
                    f[z] = -1
                return None
            f[x] = y
            used |= 1 << y
            done.append(x)
        return done

    def undo(done):
        nonlocal used
        for z in done:
            used &= ~(1 << f[z])
            f[z] = -1

    for a, b in partial.items():
        if try_assign(a, b) is None:
            return ()

    out = []

    def rec(a):
        if a == n_src:
            out.append(tuple(f))
            return len(out) != limit
        if f[a] != -1:
            return rec(a + 1)
        for b in target.elements:
            done = try_assign(a, b)
            if done is None:
                continue
            if not rec(a + 1):
                return False  # the search stops: f is not read again
            undo(done)
        return True

    rec(0)
    # rec holds itself through its closure cell: break the cycle, so the
    # search's state is freed at once rather than by the cyclic collector
    del rec
    return tuple(out)


@lru_cache(maxsize=None)
def _shared_map(images: tuple[int, ...]) -> tuple[int, ...]:
    """The process's one copy of a map tuple.  The hom sets of a universe
    hold a few hundred distinct maps tens of thousands of times over, and
    every entry here is held by an ``all_homs`` entry, which is never freed
    either, so the table costs only its own slots."""
    return images


@lru_cache(maxsize=None)
def all_homs(source: FiniteAct, target: FiniteAct) -> HomSet:
    """Every equivariant map source -> target, lexicographically ordered,
    as one ``HomSet``."""
    if source.monoid != target.monoid:
        raise ActMismatch("homs need a common monoid")
    return HomSet(source, target, tuple(
        map(_shared_map, _hom_search(source, target, {}, False))))


def injective_homs(source: FiniteAct, target: FiniteAct) -> tuple[ActHom, ...]:
    """The injective maps of ``all_homs(source, target)``, in its order, as
    ``ActHom`` between the hom set's own acts."""
    homs = all_homs(source, target)
    return tuple(ActHom(homs.source, homs.target, m) for m in homs.maps
                 if len(set(m)) == len(m))


def hom_extension_exists(target_act, big, partial) -> bool:
    """Is there an equivariant map big -> target_act extending ``partial``?

    One backtracking search per partial map.  Kept only for the per-map
    oracles (``skornjakov_injective`` and the tests): the deciders answer
    extension questions from the restrictions of ``all_homs(big, Q)``.
    The search stops at the first extension."""
    return bool(_hom_search(big, target_act, partial, False, limit=1))


def find_isomorphism(a: FiniteAct, b: FiniteAct) -> ActHom | None:
    """First equivariant bijection in lexicographic order, if any: for acts
    over one monoid and of one size, an injective search that stops at its
    first map."""
    if a.monoid != b.monoid or a.size != b.size:
        return None
    found = _hom_search(a, b, {}, True, limit=1)
    return ActHom(a, b, found[0]) if found else None


def invert(iso: ActHom) -> ActHom:
    if not iso.is_bijective():
        raise ValueError("only bijections invert")
    inv = [0] * iso.target.size
    for a, b in enumerate(iso.map):
        inv[b] = a
    return ActHom(iso.target, iso.source, tuple(inv))


# ---------------------------------------------------------------------------
# subact materialisation and relabelling


@lru_cache(maxsize=None)
def subact_act_by_mask(parent: FiniteAct, mask: int) -> tuple[FiniteAct, ActHom]:
    """Materialise a subact as an act plus its inclusion."""
    members = mask_members(mask)
    pos = {a: i for i, a in enumerate(members)}
    action = tuple(
        tuple(pos[row[a]] for a in members) for row in parent.action
    )
    inner = FiniteAct(parent.monoid, action)
    incl = ActHom(inner, parent, members)
    return inner, incl


def relabel(act: FiniteAct, perm) -> FiniteAct:
    """The isomorphic copy along carrier permutation a -> perm[a]."""
    action = []
    for row in act.action:
        out = [0] * act.size
        for p, q in zip(perm, row):
            out[p] = perm[q]
        action.append(tuple(out))
    return FiniteAct(act.monoid, tuple(action))

