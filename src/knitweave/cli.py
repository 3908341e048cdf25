"""Command-line interface: every solver, checker, and campaign behind one
JSON-emitting tool.

Exit codes: 0 = verdict computed (whatever it is), 1 = a mathematical finding
(campaign violation or internal-consistency failure), 2 = input error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from . import campaigns, certify, coloring, solver, structure
from .errors import InputError, InternalConsistencyError, KnitweaveError, ResourceError
from .formats import certificate_to_json, parse_graph_auto, write_edge_list, write_graph6, write_json
from .generators import gen_min_degree, gen_universal_vertex
from .graphs import MAX_VERTICES, Graph, mask_of, set_of

# the separations command lists at most this many, rather than hold an
# unbounded listing in memory; one separator can cut off exponentially many
# unions of pieces
SEPARATIONS_LIMIT = 1 << 16


def _read_graph(args) -> Graph:
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_graph_auto(fh.read())
    return parse_graph_auto(sys.stdin.read())


def _parse_int(token: str) -> int:
    """A vertex or a part size, so a nonnegative integer below
    ``MAX_VERTICES``; a larger one is rejected before it becomes a bit of a
    mask."""
    try:
        value = int(token)
    except ValueError:
        value = -1
    if value < 0:
        raise InputError(f"{token!r} is not a nonnegative integer")
    if value >= MAX_VERTICES:
        raise InputError(f"vertex {value} is outside 0..{MAX_VERTICES - 1}")
    return value


def _parse_ints(text: str) -> list[int]:
    return [_parse_int(x) for x in text.replace(",", " ").split()]


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    out = []
    for chunk in text.split(","):
        ends = chunk.split("-")
        if len(ends) != 2:
            raise InputError(f"pair {chunk!r} is not two vertices joined by '-'")
        out.append((_parse_int(ends[0]), _parse_int(ends[1])))
    return out


def _mask_arg(text: str | None) -> int:
    return mask_of(_parse_ints(text)) if text else 0


def _write_json(obj: dict) -> None:
    sys.stdout.write(write_json(obj) + "\n")


def _emit(payload: dict) -> int:
    _write_json({"schema": campaigns.SCHEMA, **payload})
    return 0


def _spec_from_args(args) -> solver.TerminalSpec:
    parts: list[tuple[int, ...]] = []
    if getattr(args, "pairs", None):
        parts.extend(tuple(p) for p in _parse_pairs(args.pairs))
    if getattr(args, "terminals", None):
        ts = _parse_ints(args.terminals)
        if getattr(args, "profile", None):
            profile = _parse_ints(args.profile)
            if sum(profile) != len(ts):
                raise InputError(f"profile sums to {sum(profile)}, but there are {len(ts)} terminals")
            pos = 0
            for size in profile:
                parts.append(tuple(ts[pos:pos + size]))
                pos += size
        else:
            parts.extend((t,) for t in ts)
    return solver.TerminalSpec(tuple(parts), _mask_arg(getattr(args, "forbidden", None)))


@functools.cache  # built once per process: parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="knitweave")
    ap.add_argument("--input", "-i", default="-", help="graph file or - for stdin")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--no-timestamps", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linkage", help="disjoint paths for the given pairs")
    p.add_argument("--pairs", required=True, help="e.g. 0-1,2-3")
    p.add_argument("--forbidden")

    p = sub.add_parser("knit", help="disjoint connected subgraphs per part")
    p.add_argument("--pairs")
    p.add_argument("--terminals")
    p.add_argument("--profile")
    p.add_argument("--forbidden")

    p = sub.add_parser("profile-knitted", help="knit every partition of a set")
    p.add_argument("--terminals", required=True)
    p.add_argument("--profile", required=True)

    p = sub.add_parser("k-linked")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")

    p = sub.add_parser("massed")
    p.add_argument("--set", required=True, help="terminal set, e.g. 0,1,2")
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("minimize")
    p.add_argument("--set", required=True)
    p.add_argument("--p", type=int, required=True)

    p = sub.add_parser("separations")
    p.add_argument("--set", required=True)
    p.add_argument("--max-order", type=int, required=True)

    p = sub.add_parser("rigid")
    p.add_argument("--side-a", required=True)
    p.add_argument("--side-b", required=True)

    sub.add_parser("chromatic")

    p = sub.add_parser("critical")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("dirac")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("certify-common")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--knitted-variant", action="store_true")

    p = sub.add_parser("certify-greedy")
    p.add_argument("--pairs", required=True)
    p.add_argument("--forbidden")

    p = sub.add_parser("dense")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--set", default="")

    p = sub.add_parser("knitted1")
    p.add_argument("--p", type=int, required=True)

    sub.add_parser("campaign-si")
    sub.add_parser("campaign-4linked")

    p = sub.add_parser("gen")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--universal", action="store_true")

    p = sub.add_parser("convert")
    p.add_argument("--to", choices=["graph6", "edges"], required=True)

    p = sub.add_parser("thresholds")
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    return ap


def cli_main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except InternalConsistencyError as exc:
        _write_json({"error": str(exc), "kind": "internal-consistency"})
        return 1
    except (KnitweaveError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "thresholds":
        out = {}
        if args.t is not None:
            # first, so that a small t is named as the --t given: both need t >= 6
            out["easy_connectivity"] = certify.easy_connectivity_threshold(args.t)
            out["mader"] = certify.mader_threshold(args.t - 1, args.t - 3)
        if args.k is not None:
            out["connectivity"] = certify.main_theorem_table(args.k)
        return _emit(out)
    if cmd == "gen":
        if args.universal:
            g, z = gen_universal_vertex(args.n, args.delta, args.seed)
            return _emit({"graph6": write_graph6(g), "universal_vertex": z})
        g = gen_min_degree(args.n, args.delta, args.seed)
        return _emit({"graph6": write_graph6(g)})
    if cmd in ("campaign-si", "campaign-4linked"):
        run = campaigns.campaign_lemma_si if cmd == "campaign-si" else campaigns.campaign_pipeline_4linked
        rep = run(args.samples, args.seed, no_timestamps=args.no_timestamps)
        _emit(rep)
        return 1 if rep["violations"] else 0

    g = _read_graph(args)
    if cmd == "convert":
        text = write_graph6(g) if args.to == "graph6" else write_edge_list(g)
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return 0
    if cmd == "linkage":
        spec = _spec_from_args(args)
        got = solver.disjoint_paths(g, spec)
        cert = solver.two_pair_obstruction(g, spec) if got is None else None
        return _emit({
            "exists": got is not None,
            "paths": got and certificate_to_json(got),
            "certificate": cert and certificate_to_json(cert),
        })
    if cmd == "knit":
        spec = _spec_from_args(args)
        got = solver.knit(g, spec)
        return _emit({"exists": got is not None, "subgraphs": got and certificate_to_json(got)})
    if cmd == "profile-knitted":
        ok, witness = solver.is_profile_knitted(g, _mask_arg(args.terminals), tuple(_parse_ints(args.profile)))
        return _emit({"knitted": ok, "violating_partition": witness})
    if cmd == "k-linked":
        ok, witness = solver.is_k_linked(
            g, args.k, mode=args.mode, samples=args.samples, seed=args.seed
        )
        return _emit({"k_linked": ok, "violating_pairs": witness})
    if cmd == "massed":
        rep = structure.is_p_massed(g, _mask_arg(args.set), args.p)
        return _emit({
            "massed": rep.satisfied,
            "rho": rep.rho_value,
            "threshold": str(rep.threshold),
            "condition_i": rep.condition_i,
            "condition_ii": rep.condition_ii,
            "violating_separation": rep.violating_separation and certificate_to_json(rep.violating_separation),
        })
    if cmd == "separations":
        found = structure.enumerate_separations(g, _mask_arg(args.set), args.max_order)
        seps = list(itertools.islice(found, SEPARATIONS_LIMIT + 1))
        if len(seps) > SEPARATIONS_LIMIT:
            raise ResourceError(f"more than {SEPARATIONS_LIMIT} separations, the most the CLI lists")
        listed = [{**certificate_to_json(sp), "order": sp.order} for sp in seps]
        return _emit({"count": len(listed), "separations": listed})
    if cmd == "minimize":
        res = structure.minimize_pair(g, _mask_arg(args.set), args.p)
        return _emit({"graph6": write_graph6(res.graph), "set": set_of(res.s), "trail": res.trail})
    if cmd == "rigid":
        sep = structure.Separation(_mask_arg(args.side_a), _mask_arg(args.side_b))
        return _emit({"rigid": structure.is_rigid(g, sep)})
    if cmd == "chromatic":
        chi, col = coloring.chromatic_number(g)
        return _emit({"chromatic_number": chi, "coloring": certificate_to_json(col)})
    if cmd == "critical":
        ok, wit = coloring.is_contraction_critical(g, args.k)
        return _emit({"contraction_critical": ok, "witness_minor": wit and certificate_to_json(wit)})
    if cmd == "dirac":
        return _emit({"violations": coloring.dirac_neighborhood_check(g, args.k)})
    if cmd == "certify-common":
        ok, pair = certify.common_neighbor_certificate(g, args.k, args.knitted_variant)
        return _emit({"certified": ok, "violating_pair": pair})
    if cmd == "certify-greedy":
        spec = _spec_from_args(args)
        res = certify.greedy_link(g, spec)
        return _emit({
            "linked": res.linkage is not None,
            "paths": res.linkage and certificate_to_json(res.linkage),
            "ordering": res.ordering,
            "failed_pair": res.failed_pair,
        })
    if cmd == "dense":
        hit = certify.find_dense_neighborhood(g, _mask_arg(args.set), args.p)
        if hit is None:
            return _emit({"found": False})
        v, rep = hit
        return _emit({
            "found": True,
            "vertex": v,
            "case": rep.case,
            "n": rep.n_h,
            "min_degree": rep.delta_h,
        })
    if cmd == "knitted1":
        verdict = certify.knitted1_check(g, args.p, args.samples, args.seed)
        code = 1 if verdict.status == "not-found" else 0
        _emit({
            "status": verdict.status,
            "route": verdict.route,
            "candidate": set_of(verdict.candidate),
            "samples_run": verdict.samples_run,
            "failures": [{"pairs": pairs, "forbidden": set_of(forbidden)} for pairs, forbidden in verdict.failures],
        })
        return code
    raise InputError(f"unknown command {cmd!r}")


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
