"""Hoehnke radicals, radical/semisimple classes, the induced closure operator
and density machinery, plus the taxonomy flags (hereditary, pre-Kurosh, ...).

A radical assigns to every act a congruence on it, through one function.
The stock ones: the constant diagonal and total radicals, and the
zero-annihilator radical rG (join, over each zero, of the Rees congruence
collapsing the union of all cyclic subacts whose every element maps into that
zero).  Induced radicals come from a semisimple-class membership predicate via
the meet formula; extensional radicals are tables over a fixed catalog of
acts, evaluated on other acts through an isomorphism.

A radical memoises what depends on it: its congruence on each act, one
closure dict per act (from subact to closure: ``closure_mask`` fills it and
``closure_table`` completes it for D2.1's continuity groups, T4.6 and
``dense_subact_masks``) and each act's dense subacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import congruence as cg
from .congruence import (
    Congruence,
    all_congruences,
    class_system,
    quotient,
    rees_single,
)
from .core import (
    FiniteAct,
    ActHom,
    coproduct,
    cyclic_mask,
    find_isomorphism,
    mask_members,
    members_mask,
    memo_on,
    product,
    relabel,
    subact_act_by_mask,
    subact_masks,
    trivial_act,
    zeros,
)
from .errors import ClassNotClosed, NotInUniverse


class Radical:
    """Assignment act -> congruence, computed by ``congruence_of``.  An
    induced radical also carries the ``membership`` predicate of its
    semisimple class, which registration verifies.  Results that depend on
    the radical are memoised on it: congruences and closures in inline tables
    (the hot paths; ``_closures`` holds one closure dict per act), everything
    else in ``memo``."""

    def __init__(self, name, congruence_of, *, membership=None):
        self.name = name
        self.congruence_of = congruence_of
        self.membership = membership
        self._of = {}
        self._closures = {}
        self.memo = {}

    def __repr__(self):
        return f"Radical({self.name!r})"

    def of(self, act: FiniteAct) -> Congruence:
        got = self._of.get(act)
        if got is None:
            got = self._of[act] = self.congruence_of(act)
        return got


def delta_radical() -> Radical:
    return Radical("delta", cg.diagonal)


def nabla_radical() -> Radical:
    return Radical("nabla", cg.total)


def rg_radical() -> Radical:
    return Radical("rG", _rg_congruence)


def induced_radical(name, membership, con_bound=cg.CON_BOUND_DEFAULT) -> Radical:
    """The radical whose congruence on an act is the meet of the congruences
    with a quotient in the semisimple class."""

    def congruence_of(act):
        result = cg.total(act)
        for chi in all_congruences(act, con_bound):
            if membership(quotient(act, chi)[0]):
                result = cg.meet(result, chi)
        return result

    return Radical(name, congruence_of, membership=membership)


def extensional_radical(name, table) -> Radical:
    """A table over a fixed catalog of acts, evaluated on other acts through
    an isomorphism."""
    table = dict(table)

    def congruence_of(act):
        direct = table.get(act)
        if direct is not None:
            return direct
        for member, value in table.items():
            iso = find_isomorphism(act, member)
            if iso is not None:
                return cg.pull_congruence(iso, value)
        raise NotInUniverse(f"{name} has no table entry matching the act")

    return Radical(name, congruence_of)


# ---------------------------------------------------------------------------
# the zero-annihilator radical


def annihilator_union_mask(act: FiniteAct, theta: int) -> int:
    """Union of the cyclic subacts all of whose elements map into theta."""
    out = 0
    for x in act.elements:
        mask = cyclic_mask(act, x)
        if out | mask != out and all(
                any(row[c] == theta for row in act.action)
                for c in mask_members(mask)):
            out |= mask
    return out


def _rg_congruence(act):
    zs = zeros(act)
    if not zs:
        return cg.diagonal(act)
    pairs = []
    for theta in zs:
        members = mask_members(annihilator_union_mask(act, theta))
        pairs.extend((members[0], c) for c in members[1:])
    return cg.generated_congruence(act, pairs)


# ---------------------------------------------------------------------------
# radical and semisimple classes


def is_radical_act(r: Radical, act: FiniteAct) -> bool:
    return r.of(act).is_total()


def is_semisimple_act(r: Radical, act: FiniteAct) -> bool:
    return r.of(act).is_diagonal()


def in_Lr(r: Radical, act: FiniteAct) -> bool:
    """Member of the class of Rees factors over dense subacts: a radical act
    possessing a zero."""
    return bool(zeros(act)) and is_radical_act(r, act)


@memo_on(0)
def lr_induced_radical(base: Radical, con_bound: int) -> Radical:
    """The Kurosh-Amitsur radical ``t_L<base>`` induced by the dense-factor
    class of ``base``: semisimple acts are those with no non-trivial subact in
    that class.  Built once per base radical and bound."""

    def membership(act):
        for mask in subact_masks(act):
            if mask.bit_count() < 2:
                continue
            sub, _ = subact_act_by_mask(act, mask)
            if in_Lr(base, sub):
                return False
        return True

    return induced_radical(f"t_L{base.name}", membership, con_bound)


def coproduct_closed_radical_class(r: Radical, monoid) -> bool:
    """Whether the two-point act with two zeros is a radical act, which for
    Kurosh-Amitsur radicals characterises coproduct closure of the class."""
    theta = trivial_act(monoid)
    double, _, _ = coproduct(theta, theta)
    return is_radical_act(r, double)


def verify_semisimple_class(membership, universe):
    """Check the closure conditions a semisimple class must satisfy, on the
    universe.  Returns None, or raises ClassNotClosed with a witness.

    Binary products are checked only while they stay within the universe's
    act-size bound (a finite approximation of the product condition), and
    congruence extensions only on non-members (their conclusion is membership).

    ``membership`` is asked once per act value: the check keeps each verdict
    by act, and an act's ``name`` takes no part in its equality, so the
    predicate must depend on the act's value alone.
    """
    verdicts = {}

    def member(act):
        got = verdicts.get(act)
        if got is None:
            got = verdicts[act] = membership(act)
        return got

    for monoid in universe.monoids:
        if not member(trivial_act(monoid)):
            raise ClassNotClosed("contains trivial acts", monoid)
    for act in universe.acts:
        inside = member(act)
        mirrored = relabel(act, tuple(reversed(range(act.size))))
        if member(mirrored) != inside:
            raise ClassNotClosed("closed under isomorphic copies", act)
        if inside:
            for mask in subact_masks(act):
                sub, _ = subact_act_by_mask(act, mask)
                if not member(sub):
                    raise ClassNotClosed("closed under subacts", (act, mask))
            continue
        for chi in all_congruences(act, universe.con_bound):
            if member(quotient(act, chi)[0]) and all(
                member(subact_act_by_mask(act, block)[0])
                for block in class_system(chi)
            ):
                raise ClassNotClosed(
                    "closed under congruence extensions", (act, str(chi))
                )
    for monoid in universe.monoids:
        members = [a for a in universe.acts_over(monoid) if member(a)]
        for a in members:
            for b in members:
                if a.size * b.size <= universe.act_max:
                    if not member(product(a, b)):
                        raise ClassNotClosed("closed under products", (a, b))
    return None


# ---------------------------------------------------------------------------
# closure operator


def closure_mask(r: Radical, act: FiniteAct, mask: int) -> int:
    """Preimage, under collapsing the subact, of the radical class of the
    collapsed point.  ``mask`` is a subact of the act; the answer goes into
    the act's closure dict."""
    table = r._closures.setdefault(act, {})
    got = table.get(mask)
    if got is not None:
        return got
    quo, pi = quotient(act, rees_single(act, mask))
    rq = r.of(quo)
    zclass = rq.index[pi.map[mask_members(mask)[0]]]
    out = members_mask(
        a for a in act.elements if rq.index[pi.map[a]] == zclass)
    table[mask] = out
    return out


def is_r_dense(r: Radical, act: FiniteAct, mask: int) -> bool:
    return closure_mask(r, act, mask) == act.full_mask()


def is_r_closed(r: Radical, act: FiniteAct, mask: int) -> bool:
    return closure_mask(r, act, mask) == mask


def is_r_mono(r: Radical, m: ActHom) -> bool:
    return m.is_injective() and is_r_dense(r, m.target, m.image_mask())


def density_equivalent(r: Radical, act: FiniteAct, mask: int) -> bool:
    """Independent density test: the Rees factor over the subact is radical.
    Deliberately not built on closures: it is the oracle that checker D3.9
    compares ``is_r_dense`` against."""
    quo, _ = quotient(act, rees_single(act, mask))
    return is_radical_act(r, quo)


def closure_table(r: Radical, act: FiniteAct) -> dict[int, int]:
    """The closure of every subact of the act: the act's closure dict,
    completed to every mask of ``subact_masks(act)``.  It is the dict that
    ``closure_mask`` fills, kept in the order the masks were first asked
    for, so callers read it by mask and never mutate it."""
    masks = subact_masks(act)
    if len(r._closures.get(act, ())) < len(masks):
        for m in masks:
            closure_mask(r, act, m)
    return r._closures[act]


@memo_on(0)
def dense_subact_masks(r: Radical, act: FiniteAct) -> tuple[int, ...]:
    full = act.full_mask()
    table = closure_table(r, act)
    return tuple(m for m in subact_masks(act) if table[m] == full)


def intersection_large(act: FiniteAct, mask: int) -> bool:
    """Does the subact meet every non-trivial subact in at least two points?"""
    if mask.bit_count() <= 1:
        raise ValueError("intersection-largeness is defined for non-trivial subacts")
    for other in subact_masks(act):
        if other.bit_count() >= 2 and (mask & other).bit_count() < 2:
            return False
    return True


# ---------------------------------------------------------------------------
# taxonomy


@dataclass(frozen=True)
class RadicalTaxonomy:
    hereditary: bool
    pre_hereditary: bool
    weakly_hereditary: bool
    zero_hereditary: bool
    pre_kurosh: bool
    kurosh_amitsur: bool

    FLAG_NAMES = (
        "hereditary",
        "pre_hereditary",
        "weakly_hereditary",
        "zero_hereditary",
        "pre_kurosh",
        "kurosh_amitsur",
    )

    # implications between the flags that hold for every radical
    EXPECTED_EDGES = (
        ("hereditary", "pre_hereditary"),
        ("pre_hereditary", "zero_hereditary"),
        ("zero_hereditary", "weakly_hereditary"),
        ("kurosh_amitsur", "pre_kurosh"),
        ("pre_kurosh", "weakly_hereditary"),
    )

    def flags(self) -> dict:
        return {name: getattr(self, name) for name in self.FLAG_NAMES}


@memo_on(1)
def classify_radical(r: Radical, universe) -> RadicalTaxonomy:
    """Evaluate the taxonomy flags of a radical over every act of a universe."""
    hereditary = True
    pre_hereditary = True
    weakly_hereditary = True
    zero_hereditary = True
    pre_kurosh = True
    kurosh_amitsur = True
    for act in universe.acts:
        ra = r.of(act)
        if hereditary:
            for mask in subact_masks(act):
                sub, incl = subact_act_by_mask(act, mask)
                if r.of(sub) != cg.pull_congruence(incl, ra):
                    hereditary = False
                    break
        if kurosh_amitsur and not cg.is_rees(ra):
            kurosh_amitsur = False
        zs = zeros(act)
        for bmask in class_system(ra):
            sub, _ = subact_act_by_mask(act, bmask)
            block_radical = is_radical_act(r, sub)
            if not block_radical:
                kurosh_amitsur = False
                pre_kurosh = False
                if any((bmask >> z) & 1 for z in zs):
                    weakly_hereditary = False
            if pre_hereditary or zero_hereditary:
                # zeros of the act inside this class, in the class's own labels
                local_zeros = members_mask(
                    i for i, a in enumerate(mask_members(bmask)) if a in zs)
                for ymask in subact_masks(sub):
                    ysub, _ = subact_act_by_mask(sub, ymask)
                    if not is_radical_act(r, ysub):
                        pre_hereditary = False
                        if ymask & local_zeros:
                            zero_hereditary = False
    return RadicalTaxonomy(
        hereditary,
        pre_hereditary,
        weakly_hereditary,
        zero_hereditary,
        pre_kurosh,
        kurosh_amitsur,
    )
