"""Command-line surface: validate, compute, synthesize, cross-check, lab runs.

Machine-readable output (JSON, or CSV for lab sweeps) goes to stdout; human
summaries go to stderr.  Exit codes: 0 = pass, 1 = a check or verification
failed, 2 = unreadable input, bad usage, or a request that ran out of
memory.  Only the lab commands load numpy.  Out of memory while Python
imports graphck (under about 20 MB), or numpy for a lab command, can end in
a traceback and exit 1.  Identical inputs and flags give byte-identical
output (lab commands: identical for the same seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring as _json_string

from .abelian import format_group, parse_decimal
from .graphs import (
    FiniteGraph,
    GraphChain,
    GraphFormatError,
    check_condition_a,
    check_condition_b2,
    every_cycle_has_exit,
    is_cycle,
    is_irreducible,
    load_graph,
    write_graph,
)
from .ktheory import (
    ChainConditionError,
    boundary_map,
    chain_ktheory_report,
    ktheory,
    les_check,
)
from .synthesis import SynthesisRequest, synthesize

PASS, FAIL, USAGE = 0, 1, 2


def _emit(data: dict) -> None:
    """Write ``json.dumps(data, ensure_ascii=False, indent=2)`` and a newline to stdout, byte for byte.

    With an indent ``json`` runs its pure-Python encoder token by token; here
    ``json``'s C encoder encodes each string, and the layout is joined once.
    """
    parts: list[str] = []
    _encode(data, "\n", parts)
    parts.append("\n")
    sys.stdout.write("".join(parts))


def _encode(value, newline: str, parts: list[str]) -> None:
    """Append the indent-2 JSON text of ``value`` to ``parts``; ``newline`` is a
    newline and the indent of the line ``value`` starts on.  Strings, ints,
    bools, None, lists, tuples and dicts with string keys are laid out as
    ``json`` lays them out, and any other value by ``json.dumps`` itself."""
    if isinstance(value, (list, tuple)) and value:
        items, brackets = ((None, v) for v in value), "[]"
    elif isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        items, brackets = value.items(), "{}"
    else:
        if isinstance(value, str):
            text = _json_string(value)
        elif value is None or value is True or value is False:
            text = "null" if value is None else "true" if value else "false"
        elif isinstance(value, int):
            text = int.__repr__(value)
        else:
            # empty containers, floats, other keys: a newline in json's
            # indented text is always layout, never inside a string
            text = json.dumps(value, ensure_ascii=False, indent=2).replace("\n", newline)
        parts.append(text)
        return
    inner = newline + "  "
    sep = brackets[0] + inner
    for key, item in items:
        parts.append(sep if key is None else f"{sep}{_json_string(key)}: ")
        _encode(item, inner, parts)
        sep = "," + inner
    parts.append(newline + brackets[1])


def _info(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _usage(msg: str) -> int:
    _info(f"usage error: {msg}")
    return USAGE


def cmd_check(args) -> int:
    if args.window < 1:
        return _usage(f"--window must be at least 1, got {args.window}")
    graph = load_graph(args.file)
    if isinstance(graph, FiniteGraph):
        irr = is_irreducible(graph) if graph.vertices else False
        cyc = is_cycle(graph)
        exits = every_cycle_has_exit(graph)
        ok = irr and not cyc and exits
        _emit(
            {
                "type": "finite",
                "irreducible": irr,
                "cycle": cyc,
                "every_cycle_has_exit": exits,
                "pass": ok,
            }
        )
        _info(f"finite graph: {'PASS' if ok else 'FAIL'}")
        return PASS if ok else FAIL
    # the chain report checks (a1)-(a6) first; reuse its verdict
    rep = None
    if len(graph) < args.window + 2:
        cond = check_condition_a(graph)
    else:
        try:
            rep = chain_ktheory_report(graph, window=args.window)
            cond = rep.condition_a
        except ChainConditionError as exc:
            cond = exc.report
    out = {
        "type": "chain",
        "passed": cond.passed,
        "conditions": dict(sorted(cond.checks.items())),
        "witnesses": dict(sorted(cond.witnesses.items())),
    }
    ok = cond.passed
    if not cond.passed:
        out["b2"] = "skipped: layer conditions failed"
    elif rep is None:
        out["b2"] = "skipped: prefix too short for the window"
        _info("b2 skipped: the chain prefix is too short for the window")
    else:
        b2 = check_condition_b2(graph, rep.k0_class_map)
        out["b2"] = b2.to_json_dict()
        ok = ok and b2.passed
        if b2.unchecked:
            _info(
                f"b2: {len(b2.unchecked)} vertices beyond the "
                f"stabilization window were not checked"
            )
    out["pass"] = ok
    _emit(out)
    _info(f"chain: {'PASS' if ok else 'FAIL'}")
    return PASS if ok else FAIL


def _layer_for(args, graph):
    if isinstance(graph, GraphChain):
        n = args.at if args.at is not None else len(graph) - 1
        if not 0 <= n < len(graph):
            raise GraphFormatError(f"layer {n} out of range for a chain of length {len(graph)}")
        graph = graph.layer_graph(n)
    elif args.at is not None:
        raise GraphFormatError("--at only applies to chain files")
    # the full-relation graph has the same, already checked, vertices and edges
    return graph if args.toeplitz else FiniteGraph._grown(graph, (), (), frozenset())


def cmd_ktheory(args) -> int:
    graph = load_graph(args.file)
    g = _layer_for(args, graph)
    kt = ktheory(g)
    _emit(
        {
            "k0": format_group(kt.k0),
            "k1": format_group(kt.k1),
            "k0_classes": {v: list(kt.k0_class_of_vertex[v]) for v in kt.vertex_order},
            "k1_basis": [[x.get(i, 0) for i in range(len(kt.vertex_order))] for x in kt.k1_basis],
        }
    )
    _info(f"K0 = {format_group(kt.k0)}, K1 = {format_group(kt.k1)}")
    return PASS


def cmd_colimit(args) -> int:
    if args.window < 1:
        return _usage(f"--window must be at least 1, got {args.window}")
    graph = load_graph(args.file)
    if not isinstance(graph, GraphChain):
        raise GraphFormatError("colimit needs a chain file")
    if len(graph) < args.window + 2:
        return _usage(f"chain of length {len(graph)} is too short for window {args.window}")
    rep = chain_ktheory_report(graph, window=args.window, force=args.force)
    _emit(
        {
            "k0": format_group(rep.k0),
            "k1": format_group(rep.k1),
            "k0_classes": {v: list(c) for v, c in sorted(rep.k0_class_map.items())},
            "stabilized": rep.stabilized,
            "window": rep.window,
            "forced": rep.forced,
        }
    )
    _info(
        f"K0 = {format_group(rep.k0)}, K1 = {format_group(rep.k1)}, "
        f"stabilized = {rep.stabilized} (window {rep.window})"
    )
    return PASS if rep.stabilized else FAIL


def cmd_boundary(args) -> int:
    graph = load_graph(args.file)
    if not isinstance(graph, FiniteGraph):
        raise GraphFormatError("boundary needs a finite graph file")
    try:
        vec = tuple(parse_decimal(x, signed=True) for x in args.cls.split(","))
    except ValueError:
        raise GraphFormatError("--class must be a comma-separated integer vector") from None
    image = boundary_map(graph, vec)
    _emit(
        {
            "vertices": list(graph.vertex_list),
            "class": list(vec),
            "boundary_basis": sorted(graph.relation_exempt),
            "boundary": list(image),
        }
    )
    _info(f"boundary = {image}")
    return PASS


def cmd_les_check(args) -> int:
    graph = load_graph(args.file)
    if not isinstance(graph, FiniteGraph):
        raise GraphFormatError("les-check needs a finite graph file")
    rep = les_check(graph)
    out = {"passed": rep.passed, "nodes": dict(sorted(rep.checks.items())), "terms": rep.terms}
    if not rep.passed:
        out["witnesses"] = dict(sorted(rep.witnesses.items()))
    _emit(out)
    _info(f"long exact sequence: {'PASS' if rep.passed else 'FAIL'}")
    return PASS if rep.passed else FAIL


def cmd_synthesize(args) -> int:
    try:
        req = SynthesisRequest.parse(args.k0, args.k1, depth=args.depth)
    except ValueError as exc:
        return _usage(str(exc))
    res = synthesize(req)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_graph(res.graph, fh)
        _info(f"wrote {args.output}")
    _emit(res.to_json_dict())
    v = res.verification
    _info(
        f"case {res.case_tag}: verified={v.passed} "
        f"K = ({format_group(v.k0)}, {format_group(v.k1)})"
    )
    return PASS if v.passed else FAIL


# ---------------------------------------------------------------------------
# Lab sweeps (CSV)
# ---------------------------------------------------------------------------


def cmd_lab(args) -> int:
    """Run a lab handler; each imports the lab as it runs, so only lab commands load numpy."""
    from .lab import LabError

    try:
        return args.run(args)
    except LabError as exc:
        _info(f"lab error: {exc}")
        return FAIL


def _csv_rows(rows) -> None:
    sys.stdout.write("t,defect_name,value\n")
    for t, name, value in rows:
        sys.stdout.write(f"{t},{name},{value:.12e}\n")


def cmd_lab_straighten(args) -> int:
    from statistics import median

    from .lab import _norm, partial_isometry_defect, straighten
    from .scenarios import injected_defect_trial

    if args.trials < 1:
        return _usage(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        return _usage(f"--seed must be non-negative, got {args.seed}")
    rows = []
    for d in (1e-2, 1e-3, 1e-4):
        residuals, moves, sided = [], [], []
        for i in range(args.trials):
            trial = injected_defect_trial(args.seed + i, d)
            y = straighten(trial.x)
            residuals.append(partial_isometry_defect(y))
            moves.append(_norm(y - trial.x))
            sided.append(max(_norm(trial.left_projection @ y - y), _norm(y @ trial.right_projection - y)))
        rows.append((d, "pi_residual_max", max(residuals)))
        rows.append((d, "y_minus_x_median", median(moves)))
        rows.append((d, "one_sided_relation_max", max(sided)))
    _csv_rows(rows)
    return PASS


def cmd_lab_w(args) -> int:
    from .lab import lemma36_w
    from .scenarios import CANONICAL_W_SCENARIOS, lemma36_scenario

    if args.scenario not in CANONICAL_W_SCENARIOS + ("scalar",):
        return _usage(f"unknown scenario {args.scenario!r}")
    try:
        ts = [float(x) for x in args.t.split(",")]
    except ValueError:
        return _usage("--t must be a comma-separated list of floats")
    bad = [t for t in ts if not 0.0 <= t < 1.0]  # NaN fails both comparisons
    if bad:
        return _usage(f"--t must lie in [0, 1), got {bad[0]}")
    sc = lemma36_scenario(args.scenario)
    rows = []
    for t in ts:
        _, rep = lemma36_w(sc.a, sc.b, sc.r, t, sc.case, ideal_fiber=sc.ideal_fiber)
        for name, val in sorted(rep.defects.items()):
            rows.append((t, name, val))
        for name, val in sorted(rep.j_residuals.items()):
            rows.append((t, name, val))
    _csv_rows(rows)
    return PASS


def cmd_lab_family(args) -> int:
    from .lab import condition_o_residuals, straighten_family
    from .scenarios import CANONICAL_FAMILY_SCENARIOS, family_scenario

    if args.scenario not in CANONICAL_FAMILY_SCENARIOS:
        return _usage(f"unknown scenario {args.scenario!r}")
    if args.seed < 0:
        return _usage(f"--seed must be non-negative, got {args.seed}")
    sc = family_scenario(args.scenario, seed=args.seed)
    out = straighten_family(sc.small, sc.large, sc.infinite_vertices, sc.fields)
    res = condition_o_residuals(sc.large, sc.infinite_vertices, out)
    rows = [(0.0, f"residual_{name}", val) for name, val in sorted(res.items())]
    drift = max(((out[e] - sc.fields[e]).norm() for e in sc.new_edge_ids), default=0.0)
    rows.append((0.0, "max_new_edge_drift", drift))
    _csv_rows(rows)
    return PASS


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="graphck", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a graph or chain file")
    p.add_argument("file")
    p.add_argument("--window", type=int, default=2)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ktheory", help="K-theory of a finite graph or chain layer")
    p.add_argument("file")
    p.add_argument("--toeplitz", action="store_true", help="keep the relation-exempt set")
    p.add_argument("--at", type=int, default=None, help="chain layer index")
    p.set_defaults(func=cmd_ktheory)

    p = sub.add_parser("colimit", help="colimit K-theory of a chain")
    p.add_argument("file")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--force", action="store_true", help="skip the condition gate (recorded)")
    p.set_defaults(func=cmd_colimit)

    p = sub.add_parser("boundary", help="index map on a degree-one class")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", required=True, help="comma-separated integers, as in --class=-1,0,1")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("les-check", help="verify the Toeplitz extension sequence")
    p.add_argument("file")
    p.set_defaults(func=cmd_les_check)

    p = sub.add_parser("synthesize", help="build a graph with prescribed K-theory")
    p.add_argument("--k0", required=True)
    p.add_argument("--k1", required=True)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_synthesize)

    lab = sub.add_parser("lab", help="numeric perturbation experiments (CSV output)")
    labsub = lab.add_subparsers(dest="lab_command", required=True)

    p = labsub.add_parser("straighten", help="injected-defect straightening sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_lab, run=cmd_lab_straighten)

    p = labsub.add_parser("w", help="two-term interpolation sweep")
    p.add_argument("--scenario", default="case_ii_blocks")
    p.add_argument("--t", default="0.5,0.9,0.99")
    p.set_defaults(func=cmd_lab, run=cmd_lab_w)

    p = labsub.add_parser("family", help="family straightening scenario")
    p.add_argument("--scenario", default="orthogonal_pair")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lab, run=cmd_lab_family)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs far more than parsing; parse_args leaves it
    # unchanged, so one per process serves every call of ``main``
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphFormatError as exc:
        _info(f"input error: {exc}")
        return USAGE
    except ChainConditionError as exc:
        _info(f"check failed: {exc}")
        return FAIL
    except OSError as exc:
        # unreadable input or unwritable output path: missing, a directory, ...
        _info(f"input error: {exc}")
        return USAGE
    except ValueError as exc:
        _info(f"error: {exc}")
        return USAGE
    except MemoryError:
        pass  # reported below: leaving the handler frees the request's frames first
    _info("error: out of memory: the request does not fit in the memory this process may use")
    return USAGE


if __name__ == "__main__":
    sys.exit(main())
