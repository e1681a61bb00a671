"""Command-line front end for batch verification runs.

Every subcommand prints one JSON document on stdout (sorted keys, compact by
default, indented with --pretty) and keeps diagnostics on stderr.  Exit codes:
0 success / verification passed, 1 verification failed, a size cap was hit or
memory ran out, 2 malformed arguments or input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import catalog, groups, labeling, reduction, topology, trees
from .dowling import (
    DEFAULT_MAX_ELEMENTS,
    adjoin_top,
    build_dowling,
    build_subposet,
    poset_to_dot,
    poset_to_json,
)
from .errors import InputFormatError, SDowlingError, SizeLimitExceeded
from .poset import characteristic_polynomial, moebius, sphere_product
from .topology import DEFAULT_MAX_FACES

LABELINGS = {"lambda": labeling.label_lambda, "mu": labeling.label_mu}


def _load_action(spec):
    """Action from a JSON file path or a builtin NAME:m[:ACTION] shorthand."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise InputFormatError(f"bad builtin action spec {spec!r}")
        gname, m = parts[0], parts[1]
        aname = parts[2] if len(parts) == 3 else "trivial"
        try:
            named = dict(catalog.actions_for(gname, int(m)))
        except KeyError:
            raise InputFormatError(f"unknown group {gname!r} in {spec!r}")
        except ValueError as exc:
            raise InputFormatError(f"bad color count in {spec!r}: {exc}")
        if aname not in named:
            raise InputFormatError(
                f"no action {aname!r} for {gname} on {m} colors; "
                f"have {sorted(named)}"
            )
        return named[aname]
    return groups.load_action_file(spec)


def _parse_T(text):
    if not text:
        return []
    try:
        return sorted({int(p) for p in text.split(",")})
    except ValueError:
        raise InputFormatError(f"bad color list {text!r}; expected i,j,...")


def _emit(args, obj):
    indent = 2 if args.pretty else None
    text = json.dumps(obj, sort_keys=True, indent=indent) + "\n"
    _write(args, text)


def _write(args, text):
    with _output(args) as fh:
        fh.write(text)


@contextlib.contextmanager
def _output(args):
    if args.out:
        with open(args.out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _build_base(args):
    action = _load_action(args.group)
    if args.T is not None:
        T = _parse_T(args.T)
        poset = build_subposet(args.n, action, T, max_elements=args.max_elements)
    else:
        poset = build_dowling(args.n, action, max_elements=args.max_elements)
    return action, poset


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_build(args):
    _, poset = _build_base(args)
    if args.hat:
        poset = adjoin_top(poset)
    if args.dot:
        _write(args, poset_to_dot(poset, ascii_only=args.ascii))
    else:
        _emit(args, poset_to_json(poset, ascii_only=args.ascii))
    return 0


def cmd_verify_el(args):
    _, poset = _build_base(args)
    phat = adjoin_top(poset)
    rep = labeling.verify_el(phat, LABELINGS[args.labeling])
    _emit(args, {
        "passed": rep.passed,
        "labeling": args.labeling,
        "intervalFailures": [
            {"x": f.x, "y": f.y, "reason": f.reason} for f in rep.failures[:50]
        ],
        "failureCount": len(rep.failures),
        "decreasingChains": rep.decreasing_chain_count,
    })
    return 0 if rep.passed else 1


def cmd_count_chains(args):
    action, poset = _build_base(args)
    count = labeling.count_decreasing_chains(adjoin_top(poset), LABELINGS[args.labeling])
    formula = sphere_product(args.n, action.group.order, action.set_size)
    _emit(args, {
        "decreasing": count,
        "formula": formula,
        "match": count == formula,
    })
    return 0 if count == formula else 1


def cmd_charpoly(args):
    _, poset = _build_base(args)
    chi = characteristic_polynomial(poset)
    _emit(args, {"coefficients": list(chi.coeffs)})
    return 0


def cmd_moebius(args):
    _, poset = _build_base(args)
    phat = adjoin_top(poset)
    _emit(args, {"value": moebius(phat, phat.bottom, phat.top)})
    return 0


def cmd_trees(args):
    count = trees.count_blooming(args.nodes, args.q, args.r)
    out = {"nodes": args.nodes, "q": args.q, "r": args.r, "count": count}
    if args.count_only:
        _emit(args, out)
        return 0
    if count > args.max_trees:
        raise SizeLimitExceeded(f"{count} trees exceed the cap of {args.max_trees}; "
                                "raise --max-trees or use --count-only")
    # sorted keys put "trees" last: write the document around an empty list,
    # and each tree (json.dumps writes its tuples as nested lists) into the
    # gap as it is generated, laid out as json.dumps lays out list items
    indent = 2 if args.pretty else None
    head, tail = json.dumps({**out, "trees": []}, sort_keys=True, indent=indent).rsplit("[]", 1)
    newline, sep, close = ("\n    ", ",", "\n  ") if args.pretty else ("", ", ", "")
    written = 0
    with _output(args) as fh:
        fh.write(head + "[")
        for written, tree in enumerate(trees.enumerate_blooming(args.nodes, args.q, args.r), 1):
            text = json.dumps(tree, indent=indent).replace("\n", newline)
            fh.write((sep if written > 1 else "") + newline + text)
        fh.write(close + "]" + tail + "\n")
    if written != count:
        raise SDowlingError("enumeration disagrees with the count formula")
    return 0


def cmd_bijection(args):
    action, poset = _build_base(args)
    chain_count, tree_count, messages = trees.bijection_failures(adjoin_top(poset), args.n, action)
    _emit(args, {
        "chains": chain_count,
        "trees": tree_count,
        "bijective": not messages,
    })
    return 1 if messages else 0


def cmd_homology(args):
    _, poset = _build_base(args)
    cx = topology.order_complex(poset, max_faces=args.max_faces)
    _emit(args, topology.homology(cx).to_json())
    return 0


def cmd_certify(args):
    if args.paper_suite:
        # certify registers these with default None, so a value means "given"
        given = [opt for opt in ("--group", "--n", "--T", "--dim", "--count",
                                 "--max-elements", "--max-faces")
                 if getattr(args, opt[2:].replace("-", "_")) is not None]
        if given:
            raise InputFormatError(f"--paper-suite runs a fixed battery; drop {' '.join(given)}")
        return _run_suite(args)
    if args.group is None or args.n is None or args.dim is None or args.count is None:
        raise InputFormatError(
            "certify needs --group, --n, --dim, and --count (or --paper-suite)"
        )
    if args.max_elements is None:
        args.max_elements = DEFAULT_MAX_ELEMENTS
    action, poset = _build_base(args)
    max_faces = DEFAULT_MAX_FACES if args.max_faces is None else args.max_faces
    cert = topology.certify_wedge(poset, args.dim, args.count, max_faces=max_faces)
    _emit(args, cert.to_json())
    return 0 if cert.passed else 1


def _run_suite(args):
    from . import acceptance

    results = acceptance.run_suite(progress=lambda line: print(line, file=sys.stderr))
    _emit(args, [r.to_json() for r in results])
    return 0 if all(r.passed for r in results) else 1


def cmd_reduce(args):
    action = _load_action(args.group)
    T = _parse_T(args.T)
    spec = reduction.make_spec(action, T, args.orbit)
    _, reduced, report = reduction.reduce_and_verify(args.n, action, T, spec,
                                                     max_elements=args.max_elements)
    _emit(args, {
        "closureReport": report.to_json(),
        "reducedPoset": poset_to_json(reduced, ascii_only=args.ascii),
    })
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Argument plumbing.


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _add_common(sub, with_poset=True, with_T=True, poset_required=True):
    if with_poset:
        sub.add_argument("--group", required=poset_required,
                         help="action JSON file, or builtin NAME:m[:ACTION] "
                              "(e.g. Z2:2:swap)")
        sub.add_argument("--n", type=_int_at_least(1), required=poset_required,
                         help="ground set size")
        if with_T:
            sub.add_argument("--T", default=None,
                             help="invariant color subset i,j,... (selects the subposet)")
        else:
            sub.set_defaults(T=None)
        sub.add_argument("--max-elements", type=_int_at_least(1), default=DEFAULT_MAX_ELEMENTS)
    sub.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub.add_argument("--out", default=None, help="write output here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sdowling",
        description="Exhaustive verification for group-colored partition posets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="build the poset and dump JSON or DOT")
    _add_common(p)
    p.add_argument("--ascii", action="store_true", help="ASCII-only element notation")
    p.add_argument("--hat", action="store_true", help="adjoin a top element")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    p.set_defaults(fn=cmd_build)

    p = subs.add_parser("verify-el", help="check the EL-labeling condition")
    _add_common(p)
    p.add_argument("--labeling", choices=LABELINGS, default="lambda")
    p.set_defaults(fn=cmd_verify_el)

    p = subs.add_parser("count-chains",
                        help="count decreasing chains against the closed form")
    _add_common(p, with_T=False)
    p.add_argument("--labeling", choices=LABELINGS, default="lambda")
    p.set_defaults(fn=cmd_count_chains)

    p = subs.add_parser("charpoly", help="characteristic polynomial coefficients")
    _add_common(p)
    p.set_defaults(fn=cmd_charpoly)

    p = subs.add_parser("moebius", help="Moebius value between the bounds")
    _add_common(p)
    p.set_defaults(fn=cmd_moebius)

    p = subs.add_parser("trees", help="count and enumerate blooming trees")
    _add_common(p, with_poset=False)
    p.add_argument("--nodes", type=_int_at_least(1), required=True)
    p.add_argument("--q", type=_int_at_least(0), required=True)
    p.add_argument("--r", type=_int_at_least(0), required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--max-trees", type=_int_at_least(1), default=trees.DEFAULT_MAX_TREES)
    p.set_defaults(fn=cmd_trees)

    p = subs.add_parser("bijection",
                        help="round-trip the chain/tree bijection exhaustively")
    _add_common(p, with_T=False)
    p.set_defaults(fn=cmd_bijection)

    p = subs.add_parser("homology", help="reduced homology of the proper part")
    _add_common(p)
    p.add_argument("--max-faces", type=_int_at_least(1), default=DEFAULT_MAX_FACES)
    p.set_defaults(fn=cmd_homology)

    p = subs.add_parser("certify", help="certify a wedge-of-spheres profile")
    _add_common(p, poset_required=False)
    p.add_argument("--max-faces", type=_int_at_least(1), default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--paper-suite", action="store_true",
                   help="run the whole reproduction battery")
    p.set_defaults(fn=cmd_certify, max_elements=None)

    p = subs.add_parser("reduce", help="apply and verify the orbit reduction")
    _add_common(p)
    p.add_argument("--ascii", action="store_true", help="ASCII-only element notation")
    p.add_argument("--orbit", type=int, required=True,
                   help="minimum color of the free orbit to remove")
    p.set_defaults(fn=cmd_reduce)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SDowlingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
