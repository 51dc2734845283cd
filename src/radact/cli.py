"""Command-line surface.

Exit codes: 0 success, 1 when a decision fails or any checker reports
``violated``, 2 for usage and parse errors.

A map, subact or chain named by flags is parsed into integers here and
checked by the constructor that also decodes report witnesses
(``core.hom``, ``core.subact_from_members``, ``DirectedChain.from_maps``);
a value it refuses is a usage error that names the flag.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from . import catalog as cat
from . import congruence as cg
from . import injectivity as inj
from . import radical as rd
from . import verifier
from .core import hom, mask_members, subact_act_by_mask, subact_from_members
from .errors import (ActMismatch, NotRMono, ParseError, RadactError,
                     SizeBound, UsageError)
from .universe import Universe, default_universe, register_stock
from .verifier import to_json, to_text, verify_all


def _catalog_flags(parser):
    parser.add_argument("--seed-catalog", default=None)
    parser.add_argument("--monoid", action="append", default=[],
                        help="extra monoid file")


def _con_bound_flag(parser):
    parser.add_argument("--con-bound", type=int, default=cg.CON_BOUND_DEFAULT)


def _universe_flags(parser):
    parser.add_argument("--monoid-max", type=int, default=cg.MONOID_MAX_DEFAULT)
    parser.add_argument("--act-max", type=int, default=cg.ACT_MAX_DEFAULT)
    parser.add_argument("--hull-bound", type=int, default=cg.HULL_BOUND_DEFAULT)
    _con_bound_flag(parser)
    parser.add_argument("--radical-file", action="append", default=[],
                        help="extensional radical table file to register")


def _radical_flag(parser):
    parser.add_argument("--radical", default="rG")


def build_parser():
    """One subparser per command, holding only the flags that the command
    reads: the catalog flags always, and the universe flags, ``--radical``
    and ``--report`` where the command uses them.  Flags are not
    abbreviated, so that ``--radical`` never stands for ``--radical-file``
    on a command without ``--radical``."""
    parser = argparse.ArgumentParser(
        prog="radact",
        description="finite monoid acts: radicals, closure, injectivity, "
        "and property certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *groups, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for group in (_catalog_flags,) + groups:
            group(p)
        return p

    p = add("validate", help="validate a monoid or act file")
    p.add_argument("--act", default=None)

    p = add("congruences", _con_bound_flag,
            help="list every congruence of an act")
    p.add_argument("--act", required=True)

    p = add("radical", _universe_flags, _radical_flag,
            help="print the radical congruence of an act")
    p.add_argument("--act", required=True)

    add("classify", _universe_flags, _radical_flag,
        help="taxonomy flags of a radical over the universe")

    p = add("closure", _universe_flags, _radical_flag,
            help="closure of a subact under the chosen radical")
    p.add_argument("--act", required=True)
    p.add_argument("--members", required=True,
                   help="space-separated subact members")

    p = add("dense", _universe_flags, _radical_flag,
            help="is the subact dense for the chosen radical")
    p.add_argument("--act", required=True)
    p.add_argument("--members", required=True)

    p = add("injective", _universe_flags, help="decide plain injectivity")
    p.add_argument("--act", required=True)

    p = add("r-injective", _universe_flags, _radical_flag,
            help="decide injectivity relative to the radical")
    p.add_argument("--act", required=True)
    p.add_argument("--mode", choices=("auto", "criterion", "universe"),
                   default="auto")

    p = add("weakly-injective", _universe_flags,
            help="decide weak injectivity")
    p.add_argument("--act", required=True)

    p = add("hull", _universe_flags,
            help="search the injective hull up to --hull-bound")
    p.add_argument("--act", required=True)

    p = add("r-hull", _universe_flags, _radical_flag,
            help="relative injective hull via the closure operator")
    p.add_argument("--act", required=True)

    p = add("pushout", _universe_flags, _radical_flag,
            help="transfer pushout of a subact inclusion and a map")
    p.add_argument("--act", required=True, help="the mono's target act")
    p.add_argument("--members", required=True,
                   help="members of the dense subact being pushed out")
    p.add_argument("--into", required=True, help="the map's target act")
    p.add_argument("--map", required=True,
                   help="images of the subact members, in member order")

    p = add("limit", help="direct limit of a chain of acts")
    p.add_argument("--acts", required=True, help="comma-separated act names")
    p.add_argument("--maps", required=True,
                   help="semicolon-separated link maps, entries space-separated")

    add("enumerate", _universe_flags, help="universe summary")

    p = add("verify", _universe_flags, help="run property checkers")
    p.add_argument("--report", choices=("text", "json"), default="text")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true")
    which.add_argument("--theorem", action="append", default=[])

    return parser


@contextmanager
def _reading(flag):
    """A file or directory named by ``flag`` that does not exist or cannot
    be read is a usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"{flag}: cannot read {exc.filename!r}: "
                         f"{exc.strerror}") from None


@contextmanager
def _checked(flag, text):
    """A value that its checked constructor refuses is a usage error that
    names the flag and its text, followed by the constructor's message."""
    try:
        yield
    except (ValueError, ActMismatch) as exc:
        raise UsageError(f"{flag} {text!r} {exc}") from None


def _load_catalog(args):
    """The catalog of --seed-catalog and --monoid, loaded on first use and
    kept on ``args`` for the rest of the command."""
    if "catalog" not in vars(args):
        c = cat.Catalog()
        if args.seed_catalog:
            with _reading("--seed-catalog"):
                c.load_dir(args.seed_catalog)
        for path in args.monoid:
            with _reading("--monoid"):
                c.load_file(path)
        args.catalog = c
    return args.catalog


def _check_bounds(args):
    """Every size bound that the command takes is at least 1."""
    for name in ("monoid_max", "act_max", "hull_bound", "con_bound"):
        value = vars(args).get(name)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be at least 1, got {value}")


def _universe(args):
    """The universe at the command's bounds with every stock radical, as in
    ``default_universe``, and then each --radical-file's radical: one
    universe that serves every command at these bounds."""
    u = default_universe(
        monoid_max=args.monoid_max,
        act_max=args.act_max,
        hull_bound=args.hull_bound,
        con_bound=args.con_bound,
    )
    for path in args.radical_file:
        with _reading("--radical-file"), open(path) as fh:
            text = fh.read()
        name, table = cat.parse_radical_table(text, _load_catalog(args).acts)
        r = rd.extensional_radical(name, table)
        _require_coverage(r, u)
        u.register_radical(r)
    return u


def _universe_reading(args, radicals):
    """The universe for a command that reads only the stock radicals named
    in ``radicals``: those, with their bases, registered at the command's
    bounds.  A --radical-file gives ``_universe``'s, so that a file radical
    named like a stock one is still refused."""
    if args.radical_file:
        return _universe(args)
    u = Universe(args.monoid_max, args.act_max, args.hull_bound,
                 args.con_bound)
    register_stock(u, radicals)
    return u


def _require_coverage(radical, universe):
    for act in universe.acts:
        try:
            radical.of(act)
        except RadactError:
            raise UsageError(
                f"extensional radical {radical.name!r} has no entry matching "
                f"universe act {act.name}"
            )


def _resolve_act(spec, catalog, flag="--act"):
    if os.path.exists(spec):
        with _reading(flag), open(spec) as fh:
            text = fh.read()
        return cat.parse_act(text, catalog.monoids)
    if spec in catalog.acts:
        return catalog.acts[spec]
    raise UsageError(f"cannot resolve act {spec!r}")


def _act_text(act):
    """The act's catalog text without its header line or final newline."""
    return cat.print_act(act).split("\n", 1)[1][:-1]


def _spaced(ints):
    return " ".join(map(str, ints))


def _yes(value):
    return "true" if value else "false"


def _ints(flag, text):
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise UsageError(f"{flag} takes integers, got {text!r}") from None


def _subact_of(act, members_text):
    """The mask of the subact named by --members."""
    members = _ints("--members", members_text)
    with _checked("--members", members_text):
        return subact_from_members(act, members)


def run(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        _check_bounds(args)
        return _dispatch(args, out)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except RadactError as exc:
        print(f"error: {exc}", file=err)
        return 1


def _dispatch(args, out) -> int:
    cmd = args.command

    if cmd == "validate":
        catalog = _load_catalog(args)
        if args.act:
            act = _resolve_act(args.act, catalog)
            print(f"ok act {act.name} over {act.monoid.name} "
                  f"elements={act.size}", file=out)
        else:
            for name in sorted(catalog.monoids):
                m = catalog.monoids[name]
                print(f"ok monoid {name} elements={m.size}", file=out)
        return 0

    if cmd == "enumerate":
        u = _universe(args)
        print(f"monoids {len(u.monoids)}", file=out)
        for m in u.monoids:
            print(f"{m.name} elements={m.size} acts={len(u.acts_over(m))}",
                  file=out)
        print(f"acts {len(u.acts)}", file=out)
        print("radicals " + " ".join(r.name for r in u.radicals), file=out)
        return 0

    if cmd == "classify":
        u = _universe_reading(args, (args.radical,))
        r = u.radical(args.radical)
        flags = rd.classify_radical(r, u).flags()
        print("\n".join(f"{k} {_yes(v)}" for k, v in flags.items()),
              file=out)
        return 0

    if cmd == "verify":
        u = _universe(args)
        doc = verify_all(u, () if args.all else args.theorem)
        out.write(to_json(doc) if args.report == "json" else to_text(doc))
        return verifier.exit_code(doc)

    catalog = _load_catalog(args)
    if cmd == "limit":
        acts = [_resolve_act(name, catalog, "--acts")
                for name in args.acts.split(",")]
        chunks = args.maps.split(";") if args.maps.strip() else []
        maps = [_ints("--maps", chunk) for chunk in chunks]
        with _checked("--maps", args.maps):
            chain = inj.DirectedChain.from_maps(acts, maps)
        limit, legs = inj.direct_limit(chain)
        print("\n".join([_act_text(limit)] + [
            f"leg{i} " + _spaced(leg.map) for i, leg in enumerate(legs)]),
            file=out)
        return 0

    # the remaining commands all need a catalog act
    act = _resolve_act(args.act, catalog)
    if cmd == "congruences":
        try:
            lattice = cg.all_congruences(act, args.con_bound)
        except SizeBound as exc:
            # a bound below the carrier is a usage error: nothing was decided
            raise UsageError(str(exc)) from None
        print("\n".join(map(str, lattice)), file=out)
        return 0

    reads_radical = "radical" in vars(args)
    u = _universe_reading(args, (args.radical,) if reads_radical else ())
    r = u.radical(args.radical) if reads_radical else None
    if cmd == "radical":
        text = str(r.of(act))
    elif cmd == "closure":
        text = _spaced(mask_members(
            rd.closure_mask(r, act, _subact_of(act, args.members))))
    elif cmd == "dense":
        text = _yes(rd.is_r_dense(r, act, _subact_of(act, args.members)))
    elif cmd == "injective":
        text = _yes(inj.is_injective(act, u))
    elif cmd == "r-injective":
        mode = args.mode
        if mode == "auto":
            zero_hereditary = rd.classify_radical(r, u).zero_hereditary
            mode = "criterion" if zero_hereditary else "universe"
        decide = (inj.criterion_r_injective if mode == "criterion"
                  else inj.universe_r_injective)
        text = _yes(decide(r, act, u))
    elif cmd == "weakly-injective":
        text = _yes(inj.is_weakly_injective(act, u))
    elif cmd == "hull":
        text = _act_text(inj.injective_hull(act, u))
    elif cmd == "r-hull":
        if rd.classify_radical(r, u).kurosh_amitsur:
            method, hull = "closure-of-hull", inj.r_injective_hull(r, act, u)
        else:
            method = "essential-search-fallback"
            hull = inj.maximal_r_essential_extension(r, act, u)
        text = f"method {method}\n" + _act_text(hull)
    else:  # pushout
        inner, incl = subact_act_by_mask(act, _subact_of(act, args.members))
        into = _resolve_act(args.into, catalog, "--into")
        images = _ints("--map", args.map)
        with _checked("--map", args.map):
            f = hom(inner, into, images)
        if not rd.is_r_mono(r, incl):
            raise NotRMono(f"{incl.map} is not a dense monomorphism for "
                           f"{r.name}")
        d, ulab, vlab = inj.pushout_square(inj.pushout_layout(incl), f)
        text = "\n".join((_act_text(d), "u " + _spaced(ulab.map),
                          "v " + _spaced(vlab.map)))
    print(text, file=out)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
