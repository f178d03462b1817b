"""Command-line front end.

Exit codes are part of the contract: 0 success, 1 bad input or usage
(including parse and format errors), 2 a work cap was hit, 3 file-system
trouble.  All subcommand output is deterministic for fixed inputs.
The `bounds` modes that take no graph are rows of one table, which
builds both their subparsers and their records.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import asymptotics
from .certificates import (bound_comparison, comparisons_csv,
                           find_sphere_certificates)
from .complexes import (closed_set_poset, facet_list_text, lovasz_retract,
                        neighborhood_complex, parse_facet_list)
from .errors import ResourceCapError
from .experiments import (ExperimentConfig, aggregate, betti_sweep,
                          records_to_csv, records_to_jsonl, run_survey)
from .graphs import (density, from_family_spec, gnp_sample, parse_edge_list,
                     serialize_edge_list)
from .homology import boundary_matrices, graph_homology, homology_integer

_FEATURES = ("homology", "neighborliness", "certificates", "cliques")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(obj, path: Optional[str]) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", path)


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("-i", "--input", metavar="PATH",
                   help="read the graph from an edge list file")
    p.add_argument("--family", metavar="SPEC",
                   help="named graph, e.g. complete:5, cycle:7, path:4, "
                        "complete_bipartite:3,4, kneser:2,1, xn:3")
    p.add_argument("--gnp", nargs=3, metavar=("N", "P", "SEED"),
                   help="sample a random graph with the given seed")


def _load_graph(args):
    chosen = [name for name in ("input", "family", "gnp")
              if getattr(args, name, None) is not None]
    if len(chosen) != 1:
        raise ValueError(
            "choose exactly one graph source: -i/--input, --family, or --gnp")
    if args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    if args.family is not None:
        return from_family_spec(args.family)
    raw_n, raw_p, raw_seed = args.gnp
    try:
        n, p, seed = int(raw_n), float(raw_p), int(raw_seed)
    except ValueError:
        raise ValueError(
            f"--gnp expects an integer N, a float P and an integer SEED; "
            f"got {args.gnp}") from None
    return gnp_sample(n, p, seed)


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"bad probability list {text!r}") from None
    if not vals:
        raise ValueError("empty probability list")
    return vals


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    _emit(serialize_edge_list(_load_graph(args)), args.output)
    return 0


def _cmd_complex(args) -> int:
    _emit(facet_list_text(neighborhood_complex(_load_graph(args))),
          args.output)
    return 0


def _cmd_homology(args) -> int:
    if args.facets is None:
        result, source = graph_homology(_load_graph(args),
                                        max_dim=args.max_dim)
    else:
        if any(getattr(args, k) is not None
               for k in ("input", "family", "gnp")):
            raise ValueError("--facets replaces the graph sources")
        with open(args.facets, encoding="utf-8") as fh:
            comp = parse_facet_list(fh.read())
        result = homology_integer(
            boundary_matrices(comp, max_dim=args.max_dim))
        source = "facets"
    out = result.to_json_dict()
    if args.coeff == "f2":
        out["betti"] = out["torsion"] = None
    elif args.coeff == "z":
        out["field2"] = None
    out["source"] = source
    _emit_json(out, args.output)
    return 0


def _cmd_retract(args) -> int:
    g = _load_graph(args)
    poset = closed_set_poset(g)
    chains = lovasz_retract(poset)
    _emit_json({
        "poset": poset.to_json_dict(),
        "retract": {
            "dimension": max((len(f) for f in chains), default=0) - 1,
            "facet_count": len(chains),
            "facets": [list(f) for f in chains],
        },
    }, args.output)
    return 0


def _cmd_certify(args) -> int:
    certs = find_sphere_certificates(_load_graph(args))
    best = max((c.sphere_dim for c in certs), default=None)
    _emit_json({
        "count": len(certs),
        "best_sphere_dim": best,
        "certificates": [c.to_json_dict() for c in certs],
    }, args.output)
    return 0


def _cmd_chromatic(args) -> int:
    record = bound_comparison(_load_graph(args), coloring_cap=args.vertex_cap)
    if args.format == "csv":
        _emit(comparisons_csv([record]), args.output)
    else:
        _emit_json(record.to_json_dict(), args.output)
    return 0


# One row per `bounds` mode that takes no graph: help text, function,
# record kind (None when the function returns a WindowReport) and flags as
# (name, type, default) in the function's argument order; a flag without a
# default is required.  A record is {"kind", <flags in order>, "value"}.
_BOUNDS_MODES = {
    "neighborly": ("expected count of level-i neighborliness failures",
                   asymptotics.neighborliness_failure_bound,
                   "neighborliness_failure_bound",
                   (("n", int, None), ("level", int, None),
                    ("p", float, None))),
    "biclique": ("expected count of complete bipartite pairs",
                 asymptotics.biclique_count_bound, "biclique_count_bound",
                 (("n", int, None), ("j", int, None), ("k", int, None),
                  ("p", float, None))),
    "extension": ("expected count of blocked clique extensions",
                  asymptotics.clique_extension_bound, "clique_extension_bound",
                  (("n", int, None), ("p", float, None), ("k", int, None))),
    "vanishing-dimension": ("dimension window where homology vanishes a.a.s.",
                            asymptotics.vanishing_dimension_window, None,
                            (("n", int, None), ("eps", float, 0.0))),
    "vanishing-exponent": ("density exponents forcing vanishing at a fixed "
                           "level", asymptotics.vanishing_exponent_bounds,
                           None, (("level", int, None),)),
    "nonvanishing-dimension": ("dimension window with nonvanishing homology "
                               "a.a.s.",
                               asymptotics.nonvanishing_dimension_window,
                               None, (("n", int, None), ("eps", float, 0.0))),
    "nonvanishing-exponent": ("density exponents giving nonvanishing at a "
                              "fixed level",
                              asymptotics.nonvanishing_exponent_window, None,
                              (("k", int, None),)),
}


def _cmd_bounds(args) -> int:
    if args.mode == "threshold":
        g = _load_graph(args)
        out = {"kind": "subgraph_threshold_exponent",
               "density": str(density(g)),
               "exponent": str(asymptotics.subgraph_threshold_exponent(g))}
    else:
        _, fn, kind, flags = _BOUNDS_MODES[args.mode]
        values = {name: getattr(args, name) for name, _, _ in flags}
        if kind is None:
            out = fn(*values.values()).to_json_dict()
        else:
            out = {"kind": kind, **values, "value": fn(*values.values())}
    _emit_json(out, args.output)
    return 0


def _survey_config(args) -> ExperimentConfig:
    listed = "homology" if args.features is None else args.features
    feats = {tok.strip() for tok in listed.split(",") if tok.strip()}
    unknown = feats - set(_FEATURES)
    if unknown:
        raise ValueError(f"unknown features {sorted(unknown)}; "
                         f"pick from {', '.join(_FEATURES)}")
    return ExperimentConfig(
        n=args.n, p_grid=_parse_float_list(args.p), trials=args.trials,
        master_seed=args.seed, max_dim=args.max_dim,
        homology="homology" in feats,
        neighborliness="neighborliness" in feats,
        certificates="certificates" in feats,
        clique_stats="cliques" in feats)


def _records_text(records, fmt: str) -> str:
    return records_to_csv(records) if fmt == "csv" else records_to_jsonl(records)


def _cmd_survey(args) -> int:
    cfg = _survey_config(args)
    records = run_survey(cfg, jobs=args.jobs)
    if args.summary is not None:
        _emit_json(aggregate(records, cfg).to_json_dict(), args.summary)
    if args.output is not None or args.summary is None:
        _emit(_records_text(records, args.format), args.output)
    return 0


def _cmd_sweep(args) -> int:
    records, summary = betti_sweep(
        args.n, _parse_float_list(args.p), args.trials, args.seed,
        args.max_dim, jobs=args.jobs)
    if args.output is not None:
        _emit(_records_text(records, args.format), args.output)
    _emit_json(summary.to_json_dict(), args.summary)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nbcomplex",
                     description="Neighborhood complexes of graphs: "
                                 "construction, homology, certificates, "
                                 "bounds, and seeded surveys.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=handler)
        p.add_argument("-o", "--output", metavar="PATH",
                       help="write output here instead of stdout")
        return p

    p = command("gen", _cmd_gen, "write a graph as an edge list")
    _add_graph_source(p)

    p = command("complex", _cmd_complex,
                "facet list of a graph's neighborhood complex")
    _add_graph_source(p)

    p = command("homology", _cmd_homology,
                "reduced homology of a neighborhood complex")
    _add_graph_source(p)
    p.add_argument("--facets", metavar="PATH",
                   help="compute on a facet-list file instead of a graph")
    p.add_argument("--max-dim", type=int, default=None, metavar="K",
                   help="truncate above dimension K")
    p.add_argument("--coeff", choices=("z", "f2", "both"), default="z",
                   help="integer homology, GF(2) Betti numbers, or both")

    p = command("retract", _cmd_retract,
                "closed-set poset and its order complex")
    _add_graph_source(p)

    p = command("certify", _cmd_certify,
                "sphere certificates from maximal cliques")
    _add_graph_source(p)

    p = command("chromatic", _cmd_chromatic,
                "chromatic number vs lower bounds for one graph")
    _add_graph_source(p)
    p.add_argument("--vertex-cap", type=int, default=20,
                   help="largest graph the exact coloring search accepts")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("bounds", _cmd_bounds,
                "first-moment bounds and asymptotic windows")
    bsub = p.add_subparsers(dest="mode", required=True, metavar="MODE")

    def bounds_mode(name, help_text):
        bp = bsub.add_parser(name, help=help_text)
        # SUPPRESS: an absent mode-level -o must not overwrite `bounds -o`
        bp.add_argument("-o", "--output", metavar="PATH",
                        default=argparse.SUPPRESS)
        return bp

    for mode, (help_text, _, _, flags) in _BOUNDS_MODES.items():
        bp = bounds_mode(mode, help_text)
        for name, cast, default in flags:
            bp.add_argument(f"--{name}", type=cast, default=default,
                            required=default is None)
    _add_graph_source(bounds_mode(
        "threshold", "appearance-threshold exponent of a strictly balanced "
                     "graph"))

    p = command("survey", _cmd_survey,
                "seeded random-graph survey over a probability grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, metavar="P1,P2,...",
                   help="comma-separated probability grid")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-dim", type=int, default=4)
    p.add_argument("--features", metavar="LIST", default=None,
                   help=f"comma list from: {', '.join(_FEATURES)} "
                        "(default homology)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--summary", metavar="PATH",
                   help="also write aggregate statistics here")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    p = command("sweep", _cmd_sweep,
                "expected Betti curves across a probability grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, metavar="P1,P2,...")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-dim", type=int, default=4)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--summary", metavar="PATH",
                   help="write the summary here instead of stdout")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as err:
        print(f"nbcomplex: resource cap: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"nbcomplex: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"nbcomplex: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
