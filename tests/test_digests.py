"""Instance digests (``digests.py``) against goldens recorded at
``monoid_max=2``, and planted enumerator faults that leave the counts as
they are and move the digests."""

import pytest

from radact import checkers, verifier
from radact.core import FiniteAct
from radact.universe import default_universe
from digests import checker_digests, instance_digests, instance_lines

# checker id -> the first 16 hex digits of its (ordered, multiset) digests
# over default_universe(monoid_max=2), acts encoded by table.  Recorded
# while AX-H1 still yielded one instance per hom: its groups keep them.
GOLDEN_M2 = {
    "AX-H1": ("c07eb30425d0c4de", "63d282e360fcb864"),
    "AX-H2": ("e51c30bc5b8af0bf", "8da0935565896758"),
    "R1.1": ("e51c30bc5b8af0bf", "8da0935565896758"),
    "L1.2": ("52b2b73c69d88f57", "899b9126702a4cd8"),
    "D2.1": ("034e113679cb78f0", "b50e16cc2ec8baa1"),
    "L2.2": ("b7d5168623d4cb97", "06bcf94571673522"),
    "P2.3": ("e5ec88401a29f023", "09e0f6b524ef72ed"),
    "T2.4": ("a4aa565871e6dd02", "62f5543ad0960a40"),
    "T2.5": ("62fa9c3862c8c916", "aa25d78c51f698eb"),
    "C2.6": ("a4aa565871e6dd02", "62f5543ad0960a40"),
    "P2.6": ("4e8eb820a83c3061", "d3f5af13523b57fe"),
    "D2.7": ("f062e1617a47f656", "5f56b43ef2aefc8c"),
    "T2.8": ("cd18751fb8a3d0fb", "cd18751fb8a3d0fb"),
    "P2.9": ("e5ec88401a29f023", "09e0f6b524ef72ed"),
    "C2.10": ("e5ec88401a29f023", "09e0f6b524ef72ed"),
    "L2.11": ("0bb992bfd3bd607b", "8325ada2d188e50a"),
    "T2.12": ("4a8a69d8e7f7d85c", "9f77d2f067ba05eb"),
    "P2.13": ("cd18751fb8a3d0fb", "cd18751fb8a3d0fb"),
    "D2.14": ("e5cc81f90310d9e0", "0a423ec279d162fe"),
    "L2.15": ("60d799c0e6e5a17e", "9a0c8f35112192cc"),
    "T2.16": ("900ad0f698fad0af", "737f83397e97f7ea"),
    "P2.17": ("900ad0f698fad0af", "737f83397e97f7ea"),
    "T3.4": ("abe52ef0d44da156", "81a2db23705ac900"),
    "C3.5": ("71e6769d7ef45db2", "6fde9ef987ffe604"),
    "T3.6": ("cabd8dc18c0f48fa", "f9bfb1511521867e"),
    "L3.7": ("88766f2e919c5ce9", "ee952a6030cd91ea"),
    "L3.8": ("b50bd5f4a9a3b45c", "9e7f490dd2185c10"),
    "D3.9": ("4a8a69d8e7f7d85c", "9f77d2f067ba05eb"),
    "T3.10": ("a3e0beae22774fc0", "12a14403c101c749"),
    "D4.1": ("e51c30bc5b8af0bf", "8da0935565896758"),
    "T4.2": ("46035650c873f89b", "adaca1ca7bbc2d3e"),
    "L4.3": ("5a12c31ae099eb68", "5a1b781caacbe245"),
    "T4.4": ("e51c30bc5b8af0bf", "8da0935565896758"),
    "T4.5": ("738b777746c35088", "bd9065d8bbb055bc"),
    "T4.6": ("9ee3a36acdb46691", "66e0ca2e1bfb448b"),
    "C4.7": ("5ef3ab019ee6ab41", "aeff2e818c65845d"),
    "L5.1": ("beb4dea8645758f9", "b1683856e92bf049"),
    "L5.3": ("8a70422a251ce329", "0ca206d9c3b2e74f"),
    "D5.4": ("b70be9c3d531321e", "5aee5afc620e3996"),
    "T5.5": ("b70be9c3d531321e", "5aee5afc620e3996"),
    "R5.6": ("4ce4590b817441d4", "560973173c5f98c6"),
    "T6.1": ("943639c60db17e0f", "53692bee56d9f1e1"),
    "T6.2": ("0e73326426a022b7", "996dc84b1ee1a9cc"),
    "C6.3": ("0e73326426a022b7", "996dc84b1ee1a9cc"),
    "T6.5": ("738b777746c35088", "bd9065d8bbb055bc"),
    "P7.1": ("e51c30bc5b8af0bf", "8da0935565896758"),
    "C7.2": ("e51c30bc5b8af0bf", "8da0935565896758"),
    "T7.3": ("cd18751fb8a3d0fb", "cd18751fb8a3d0fb"),
    "L7.4": ("e51c30bc5b8af0bf", "8da0935565896758"),
    "T7.5": ("fcb6cc7102f3dcb6", "c16efc06485cf85d"),
    "T7.6": ("efd3fe83ecb2f77d", "e47d20e5456f87de"),
    "T7.8": ("e5cc81f90310d9e0", "0a423ec279d162fe"),
    "C7.9": ("e5cc81f90310d9e0", "0a423ec279d162fe"),
}


@pytest.fixture(scope="module")
def two():
    return default_universe(monoid_max=2)


def _short(digests):
    return {cid: (o[:16], m[:16]) for cid, (o, m) in digests.items()}


def test_instance_digests_match_the_goldens(two):
    assert _short(instance_digests(two)) == GOLDEN_M2


def _planted(real, enumerate_fn):
    return verifier.Checker(real.id, real.description, enumerate_fn,
                            real.holds)


def test_digests_see_an_instance_swapped_for_another(two):
    # the second instance of L1.2 replaced by a copy of the first: the same
    # number of instances, and both digests move
    verifier._ensure_registered()
    real = verifier.THEOREMS["L1.2"]

    def swapped(universe):
        items = list(real.enumerate(universe))
        items[1] = items[0]
        yield from items

    planted = _planted(real, swapped)
    assert len(list(instance_lines(planted, two))) == len(
        list(instance_lines(real, two)))
    got, want = checker_digests(planted, two), checker_digests(real, two)
    assert got[0] != want[0] and got[1] != want[1]


def test_digests_see_a_chain_yielded_twice(two, monkeypatch):
    # L5.3's chains, with the first yielded again in place of the last
    verifier._ensure_registered()
    real = verifier.THEOREMS["L5.3"]
    real_chains = checkers._radical_member_chains

    def doubled(universe, r, monoid):
        chains = list(real_chains(universe, r, monoid))
        if len(chains) > 1:
            chains[-1] = chains[0]
        yield from chains

    want = checker_digests(real, two)
    count = len(list(instance_lines(real, two)))
    monkeypatch.setattr(checkers, "_radical_member_chains", doubled)
    got = checker_digests(real, two)
    assert len(list(instance_lines(real, two))) == count
    assert got[0] != want[0] and got[1] != want[1]


def test_order_moves_only_the_ordered_digest(two):
    verifier._ensure_registered()
    real = verifier.THEOREMS["D2.14"]

    def reversed_order(universe):
        return reversed(list(real.enumerate(universe)))

    got = checker_digests(_planted(real, reversed_order), two)
    want = checker_digests(real, two)
    assert got[0] != want[0] and got[1] == want[1]


def test_names_take_no_part_in_the_encoding(two):
    verifier._ensure_registered()
    real = verifier.THEOREMS["D2.14"]

    def renamed(universe):
        for act in universe.acts:
            yield "inst", (FiniteAct(act.monoid, act.action, "other"),)

    assert checker_digests(_planted(real, renamed), two) == checker_digests(
        real, two)
