"""Certification engine: runs registered property checkers over a universe
and emits deterministic machine-readable reports with re-checkable witnesses.

Each checker pairs an instance enumerator with one decision procedure: a
pure per-instance predicate, or a group decider (below), never both.
``Checker.run`` reads the enumerator's items once, in order, in one loop
that gates, settles or expands and decides them.  The enumerator yields
("inst", parts) for instances satisfying the property's hypotheses and
("filtered", parts) for enumerated instances that fail them, so vacuous
verification stays visible in the counts.  It yields
("skip", parts) for instances whose hypotheses it cannot decide within the
bounds; they count as skipped and the predicate does not run.  A checker may
also declare the taxonomy flag its result assumes of the radical
(``assumes=``, one of ``RadicalTaxonomy.FLAG_NAMES``); an "inst" instance
whose radical, ``parts[0]``, lacks that flag is counted as filtered too.  A
bound error raised by the predicate (``BOUND_ERRORS``: SizeBound,
BoundExceeded, or NotInUniverse for an act that an extensional radical has
no entry for) marks the instance skipped, never verified.

An enumerator may also yield ("group", (head, tails)): the instances
``head + (t,)`` for each ``t`` in ``tails``, in that order.  A head that
ends in a ``HomSet`` stands for one group per map f of it, in order: the
instances ``head[:-1] + (f, t)``, map by map (``group_instances``).  A
checker registered with ``holds_all=fn`` decides a group in one call:
``fn(universe, head, tails)`` returns True only when it has shown that every
instance of the group holds, and the group then counts all of them
(``group_size``) as checked.  When it returns False or raises a bound error
or PostconditionError, or when the checker has no ``holds_all``, the group
is expanded and each instance runs through the per-instance predicate, so
skips, the first witness and ``recheck`` are those of the expanded
instances.  The ``assumes=`` gate reads a group's radical from ``head[0]``
and counts a filtered group as that many filtered instances.  The grouped
laws are AX-H1, D2.1 and L5.1, and each registers only its decider:
``Checker`` derives the per-instance predicate once, at registration, as
``fn(universe, parts[:-1], parts[-1:])``, bound to the ``fn`` registered,
with every map part handed over as its one-map ``HomSet`` and a last part
that is a map as the tails themselves.  D2.1 yields only groups.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .congruence import Congruence, parse_partition
from .core import (
    ActHom,
    FiniteAct,
    FiniteMonoid,
    HomSet,
    hom,
    validate_act,
    validate_monoid,
)
from .errors import BOUND_ERRORS, PostconditionError, UnknownTheorem
from .injectivity import DirectedChain
from .radical import Radical, RadicalTaxonomy, classify_radical

SCHEMA = "radact-report/1"


@dataclass
class TheoremReport:
    theorem_id: str
    description: str
    status: str  # verified | violated | skipped-out-of-bounds
    instances_checked: int
    hypothesis_filtered: int
    instances_skipped: int
    witness: dict | None
    duration_ms: float = field(default=0.0, compare=False)

    def payload(self) -> dict:
        out = {
            "theorem_id": self.theorem_id,
            "description": self.description,
            "status": self.status,
            "instances_checked": self.instances_checked,
            "hypothesis_filtered": self.hypothesis_filtered,
            "instances_skipped": self.instances_skipped,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class Checker:
    def __init__(self, cid, description, enumerate_fn, holds_fn=None,
                 assumes=None, holds_all=None):
        if assumes is not None and assumes not in RadicalTaxonomy.FLAG_NAMES:
            raise ValueError(f"checker {cid} assumes unknown flag {assumes!r}")
        if (holds_fn is None) == (holds_all is None):
            raise ValueError(f"checker {cid} needs one of holds_fn and holds_all")
        if holds_fn is None:
            def holds_fn(universe, parts):
                *head, last = map(_one_map, parts)
                if last.__class__ is not HomSet:
                    last = (last,)
                return holds_all(universe, tuple(head), last)
        self.id = cid
        self.description = description
        self.enumerate = enumerate_fn
        self.holds = holds_fn
        self.assumes = assumes
        self.holds_all = holds_all

    def run(self, universe) -> TheoremReport:
        """Read the enumerator's items once, in order, and decide them.  An
        item whose radical lacks the ``assumes=`` flag counts as filtered,
        a group as ``group_size`` filtered instances.  A group that
        ``holds_all`` settles counts ``group_size`` instances as checked;
        any other group is expanded into ``group_instances``, a hom-set
        head into its maps, and each instance is decided as an "inst"
        item is.  The first violated instance is the witness and stops the
        enumeration."""
        t0 = time.perf_counter()
        lacking = self.assumes and {
            r for r in universe.radicals
            if not getattr(classify_radical(r, universe), self.assumes)
        }
        checked = filtered = skipped = 0
        witness = None
        for kind, parts in self.enumerate(universe):
            if kind == "group":
                head, tails = parts
                if lacking and head[0] in lacking:
                    filtered += group_size(head, tails)
                    continue
                if self.holds_all is not None:
                    try:
                        if self.holds_all(universe, head, tails):
                            checked += group_size(head, tails)
                            continue
                    except (*BOUND_ERRORS, PostconditionError):
                        pass
                instances = group_instances(head, tails)
            elif kind == "skip":
                skipped += 1
                continue
            elif kind == "filtered" or (lacking and parts[0] in lacking):
                filtered += 1
                continue
            else:
                instances = (parts,)
            for inst in instances:
                try:
                    ok = self.holds(universe, inst)
                except BOUND_ERRORS:
                    skipped += 1
                    continue
                except PostconditionError as err:
                    witness = {"instance": encode_parts(inst),
                               "note": str(err)}
                    break
                checked += 1
                if not ok:
                    witness = {"instance": encode_parts(inst)}
                    break
            if witness is not None:
                break
        if witness is not None:
            status = "violated"
        elif checked == 0 and skipped > 0:
            status = "skipped-out-of-bounds"
        else:
            status = "verified"
        return TheoremReport(self.id, self.description, status, checked,
                             filtered, skipped, witness,
                             duration_ms=(time.perf_counter() - t0) * 1000.0)

    def recheck(self, universe, witness) -> bool:
        """Re-run the predicate on a decoded witness; True means the witness
        still violates the property."""
        parts = decode_parts(universe, witness["instance"])
        try:
            return not self.holds(universe, parts)
        except PostconditionError:
            return True


def _one_map(part):
    """A map part as the one-map hom set that a group decider reads; any
    other part as it is."""
    if part.__class__ is ActHom:
        return HomSet(part.source, part.target, (part.map,))
    return part


def group_size(head, tails) -> int:
    """The number of instances of one group (``group_instances``)."""
    if head[-1].__class__ is HomSet:
        return len(head[-1]) * len(tails)
    return len(tails)


def group_instances(head, tails):
    """The instances of one group, in order: ``head + (t,)`` for each tail,
    or, when the head ends in a ``HomSet``, ``head[:-1] + (f, t)`` for each
    map f of it, as an ``ActHom``, and each tail."""
    homs = head[-1]
    if homs.__class__ is HomSet:
        head = head[:-1]
        return (head + (f, t) for f in homs for t in tails)
    return (head + (t,) for t in tails)


THEOREMS: dict[str, Checker] = {}
AXIOMS: dict[str, Checker] = {}


def register(cid, description, enumerate_fn, holds_fn=None, axiom=False,
             assumes=None, holds_all=None):
    if cid in AXIOMS or cid in THEOREMS:
        raise ValueError(f"duplicate checker id {cid}")
    table = AXIOMS if axiom else THEOREMS
    table[cid] = Checker(cid, description, enumerate_fn, holds_fn, assumes,
                         holds_all)


# ---------------------------------------------------------------------------
# witness encoding


def encode_part(obj):
    if isinstance(obj, Radical):
        return {"radical": obj.name}
    if isinstance(obj, FiniteMonoid):
        return {
            "monoid": {
                "name": obj.name,
                "identity": obj.identity,
                "table": [list(row) for row in obj.mul],
            }
        }
    if isinstance(obj, FiniteAct):
        return {
            "act": {
                "name": obj.name,
                "monoid": encode_part(obj.monoid)["monoid"],
                "action": [list(row) for row in obj.action],
            }
        }
    if isinstance(obj, Congruence):
        return {
            "congruence": {
                "act": encode_part(obj.act)["act"],
                "partition": str(obj),
            }
        }
    if isinstance(obj, ActHom):
        return {
            "hom": {
                "source": encode_part(obj.source)["act"],
                "target": encode_part(obj.target)["act"],
                "map": list(obj.map),
            }
        }
    if isinstance(obj, DirectedChain):
        return {
            "chain": {
                "acts": [encode_part(a)["act"] for a in obj.acts],
                "maps": [list(h.map) for h in obj.links],
            }
        }
    if isinstance(obj, bool):
        return {"bool": obj}
    if isinstance(obj, int):
        return {"int": obj}
    if isinstance(obj, str):
        return {"str": obj}
    raise TypeError(f"cannot encode {obj!r} into a witness")


def encode_parts(parts) -> list:
    return [encode_part(p) for p in parts]


def _decode_monoid(data) -> FiniteMonoid:
    return validate_monoid(data["table"], data["identity"], data.get("name", ""))


def _decode_act(data) -> FiniteAct:
    return validate_act(_decode_monoid(data["monoid"]), data["action"],
                        data.get("name", ""))


def decode_part(universe, data):
    (tag, payload), = data.items()
    if tag == "radical":
        return universe.radical(payload)
    if tag == "monoid":
        return _decode_monoid(payload)
    if tag == "act":
        return _decode_act(payload)
    if tag == "congruence":
        act = _decode_act(payload["act"])
        return parse_partition(act, payload["partition"])
    if tag == "hom":
        src = _decode_act(payload["source"])
        tgt = _decode_act(payload["target"])
        return hom(src, tgt, payload["map"])
    if tag == "chain":
        return DirectedChain.from_maps(map(_decode_act, payload["acts"]),
                                       payload["maps"])
    if tag in ("int", "str", "bool"):
        # a scalar part's tag names the type of its payload
        if type(payload).__name__ != tag:
            raise ValueError(f"witness component {tag!r} holds {payload!r}")
        return payload
    raise ValueError(f"unknown witness component {tag!r}")


def decode_parts(universe, data) -> tuple:
    return tuple(decode_part(universe, p) for p in data)


# ---------------------------------------------------------------------------
# running


def _ensure_registered():
    if not THEOREMS:
        from . import checkers  # noqa: F401  (registers on import)


def _checker(theorem_id: str) -> Checker:
    _ensure_registered()
    checker = THEOREMS.get(theorem_id) or AXIOMS.get(theorem_id)
    if checker is None:
        raise UnknownTheorem(f"unknown theorem {theorem_id!r}")
    return checker


def verify(theorem_id: str, universe) -> TheoremReport:
    return _checker(theorem_id).run(universe)


def recheck_witness(theorem_id: str, universe, witness) -> bool:
    return _checker(theorem_id).recheck(universe, witness)


def taxonomy_section(universe) -> dict:
    flags = {
        r.name: classify_radical(r, universe).flags() for r in universe.radicals
    }
    names = RadicalTaxonomy.FLAG_NAMES
    implications = []
    for src in names:
        for dst in names:
            if src == dst:
                continue
            holds = all(
                (not f[src]) or f[dst] for f in flags.values()
            )
            implications.append([src, dst, holds])
    broken = [
        [s, d] for s, d in RadicalTaxonomy.EXPECTED_EDGES
        if not all((not f[s]) or f[d] for f in flags.values())
    ]
    return {
        "flags": flags,
        "implications": implications,
        "expected_edges_broken": broken,
    }


def verify_all(universe, theorem_ids=()) -> dict:
    """Run every registered axiom and theorem checker, or only those named
    in ``theorem_ids`` (a doc of their results alone, each id once, in the
    order first named); deterministic apart from the trailing generated_at
    / timings block."""
    if theorem_ids:
        reports = [verify(tid, universe) for tid in dict.fromkeys(theorem_ids)]
        doc = {"schema": SCHEMA, "results": [r.payload() for r in reports]}
    else:
        _ensure_registered()
        axiom_reports = [AXIOMS[k].run(universe) for k in AXIOMS]
        theorem_reports = [THEOREMS[k].run(universe) for k in THEOREMS]
        reports = axiom_reports + theorem_reports
        summary = {
            "verified": sum(1 for r in reports if r.status == "verified"),
            "violated": sum(1 for r in reports if r.status == "violated"),
            "skipped_out_of_bounds": sum(
                1 for r in reports if r.status == "skipped-out-of-bounds"
            ),
        }
        doc = {
            "schema": SCHEMA,
            "bounds": {
                "monoid_max": universe.monoid_max,
                "act_max": universe.act_max,
                "hull_bound": universe.hull_bound,
                "con_bound": universe.con_bound,
            },
            "radicals": [r.name for r in universe.radicals],
            "axioms": [r.payload() for r in axiom_reports],
            "results": [r.payload() for r in theorem_reports],
            "taxonomy": taxonomy_section(universe),
            "summary": summary,
        }
    doc["generated_at"] = _timestamp()
    doc["timings_ms"] = {
        r.theorem_id: round(r.duration_ms, 3) for r in reports
    }
    return doc


def _timestamp() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def exit_code(doc: dict) -> int:
    """1 when some checker of the doc (all of them, or the ones asked for by
    id) is violated, else 0."""
    reports = doc.get("axioms", []) + doc["results"]
    return 1 if any(rep["status"] == "violated" for rep in reports) else 0


# ---------------------------------------------------------------------------
# serialization


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def report_lines(rep: dict) -> list[str]:
    """One checker's lines of the text report, from its payload: its
    counts, then its witness when it has one."""
    lines = [
        f"{rep['theorem_id']:<10} {rep['status']:<22}"
        f" checked={rep['instances_checked']}"
        f" filtered={rep['hypothesis_filtered']}"
        f" skipped={rep['instances_skipped']}"
    ]
    if "witness" in rep:
        lines.append("    witness: " + json.dumps(rep["witness"]))
    return lines


def to_text(doc: dict) -> str:
    """The text report: for checkers named by id, only their lines."""
    if "summary" not in doc:
        return "".join(line + "\n" for rep in doc["results"]
                       for line in report_lines(rep))
    lines = []
    bounds = doc["bounds"]
    lines.append("# verification report")
    lines.append(
        "# bounds: "
        + " ".join(f"{k}={v}" for k, v in bounds.items())
    )
    lines.append("# radicals: " + " ".join(doc["radicals"]))
    for section, key in (("axioms", "axioms"), ("theorems", "results")):
        lines.append(f"# {section}")
        for rep in doc[key]:
            lines += report_lines(rep)
    lines.append("# taxonomy")
    for name, flags in doc["taxonomy"]["flags"].items():
        flagtext = " ".join(f"{k}={'y' if v else 'n'}" for k, v in flags.items())
        lines.append(f"{name}: {flagtext}")
    broken = doc["taxonomy"]["expected_edges_broken"]
    lines.append("# broken-taxonomy-edges: " + (json.dumps(broken) if broken else "none"))
    s = doc["summary"]
    lines.append(
        f"# summary: verified={s['verified']} violated={s['violated']}"
        f" skipped={s['skipped_out_of_bounds']}"
    )
    lines.append("# generated-at: " + doc["generated_at"])
    lines.append(
        "# timings-ms: "
        + " ".join(f"{k}={v}" for k, v in doc["timings_ms"].items())
    )
    return "\n".join(lines) + "\n"


def strip_volatile(doc: dict) -> dict:
    """The comparison payload: everything except the flagged timestamp and
    timing block."""
    out = dict(doc)
    out.pop("generated_at", None)
    out.pop("timings_ms", None)
    return out
