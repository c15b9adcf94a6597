"""Command-line pipeline driver.

Subcommands compose the full workflow: inspect, project, attitudes,
communities, census, render. Every command that writes files also writes a
manifest (input/output digests plus all parameters) so a run can be verified
and reproduced byte-for-byte. Each output is written to a temporary file
beside it and moved into place only once all of them are written, the
manifest last, so a failed command leaves no output behind. Exit codes:
0 success, 2 validation error, 3 algorithmic failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analyze import connected_components, girvan_newman, profile_census
from .errors import AlgorithmError, OpinionNetError, ValidationError
from .ingest import SurveySchema, load_survey, write_csv
from .normalize import binarize, renormalize, write_normalized_csv
from .project import (
    _auto_projection,
    binarized_agreement_weights,
    exact_agreement_weights,
    project_attitudes,
    project_participants,
    score_weights,
    select_threshold,  # not called here: bench/layers.py traces the sweep by this name
    style_edges,
)
from .rational import as_fraction, format_fraction
from .render import (
    ColorScheme,
    export_edgelist,
    export_graphml,
    fr_layout,
    import_graphml,
    render_bipartite_svg,
    render_svg,
)

MODE_ALIASES = {"exact": "exact_agreement", "score": "score", "binarized": "binarized_agreement"}
SURVEY_INPUTS = ("survey", "schema")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _temporary(args, final: Path) -> Path:
    """A temporary path beside final, in final's directory, made if missing;
    args.pending maps it to final until _move_into_place moves it there, and
    main removes it if the command fails. A final path that is one of the
    command's input files is refused."""
    for name in ("survey", "schema", "graph"):
        source = getattr(args, name, None)
        if source and final.exists() and Path(source).exists() and os.path.samefile(final, source):
            raise ValidationError(f"output {final} is the --{name} input; it would be replaced")
    final.parent.mkdir(parents=True, exist_ok=True)
    temp = final.with_name(f".{final.name}.{os.getpid()}.tmp")
    args.pending[temp] = final
    return temp


def _move_into_place(args, temps) -> list:
    """Move each temporary output to its file, in order; returns the files."""
    for temp in temps:
        os.replace(temp, args.pending[temp])
    return [args.pending.pop(temp) for temp in temps]


def _outputs(args, **suffixes) -> dict:
    """Temporary paths for the files named `--out-prefix` plus each suffix,
    each beside its file. See _temporary."""
    prefix = Path(args.out_prefix)
    return {name: _temporary(args, prefix.with_name(prefix.name + suffix))
            for name, suffix in suffixes.items()}


def _write_manifest(args, command: str, parameters: dict, input_names, outputs: dict) -> None:
    """Record digests of the named input arguments and of the outputs plus
    parameters, move every output into place, the manifest last, then print
    one `wrote` line. No timestamps, so a rerun with identical inputs
    produces an identical manifest."""
    def entry(path):
        return {"file": Path(args.pending.get(path, path)).name, "sha256": _sha256(path)}

    manifest = {
        "tool": {"name": "opinionnet", "version": __version__},
        "command": command,
        "parameters": parameters,
        "inputs": {name: entry(getattr(args, name)) for name in input_names},
        "outputs": {name: entry(path) for name, path in outputs.items()},
    }
    path = _outputs(args, manifest=".manifest.json")["manifest"]
    _write_json(path, manifest)
    print("wrote " + ", ".join(map(str, _move_into_place(args, [*outputs.values(), path]))))


def _sign_counts(graph) -> str:
    positive = int(graph.positive_mask().sum())
    return f"{positive} positive / {graph.n_edges - positive} negative edges"


def _load_inputs(args):
    schema = SurveySchema.from_json(args.schema)
    matrix = load_survey(args.survey, schema, missing_policy=args.missing_policy)
    return schema, matrix


def _scale_summary(schema: SurveySchema) -> str:
    counts: dict[int, int] = {}
    for item in schema.items:
        counts[item.scale_size] = counts.get(item.scale_size, 0) + 1
    return ", ".join(f"{n}×{k}pt" for k, n in counts.items())


def cmd_inspect(args) -> int:
    schema, matrix = _load_inputs(args)
    if args.dump_normalized:
        write_normalized_csv(renormalize(matrix), _temporary(args, Path(args.dump_normalized)))
    report = matrix.report
    summary = {
        "n_participants": matrix.n_participants,
        "n_items": matrix.n_items,
        "scales": _scale_summary(schema),
        "scale_sizes": list(schema.scale_sizes),
        "rows_read": report.rows_read,
        "rows_dropped": report.rows_dropped,
        "missing_cells": report.missing_cells,
        "missing_policy": args.missing_policy,
        "attribute_columns": list(schema.attribute_columns),
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"N={summary['n_participants']}, m={summary['n_items']}, scales: {summary['scales']}")
        print(f"rows read: {report.rows_read}, dropped: {report.rows_dropped}, "
              f"missing cells: {report.missing_cells}")
        if schema.attribute_columns:
            print(f"attributes: {', '.join(schema.attribute_columns)}")
    _move_into_place(args, [*args.pending])  # the dump, if any, once the summary is out
    return 0


def _weights_for_mode(args, matrix):
    mode = MODE_ALIASES[args.mode]
    if mode == "exact_agreement":
        return exact_agreement_weights(matrix)
    normalized = renormalize(matrix)
    if mode == "score":
        return score_weights(normalized, rescale_to_full=args.rescale)
    return binarized_agreement_weights(binarize(normalized),
                                       count_neutral_pairs=not args.exclude_neutral_pairs)


def cmd_project(args) -> int:
    _, matrix = _load_inputs(args)
    weights = _weights_for_mode(args, matrix)
    outputs = _outputs(args, sweep=".sweep.csv", graphml=".graphml", edges=".edges.csv")
    parameters = {
        "mode": args.mode,
        "missing_policy": args.missing_policy,
        "threshold": args.threshold,
        "negative_threshold": args.negative_threshold,
        "rescale": args.rescale,
        "exclude_neutral_pairs": args.exclude_neutral_pairs,
    }
    node_attrs = matrix.node_attributes()
    if args.threshold == "auto":  # a refused run prints nothing: the graph exists first
        selection, graph = _auto_projection(weights, args.target_fraction, args.min_level,
                                            args.negative_threshold, node_attrs)
        parameters["target_fraction"] = args.target_fraction
        parameters["min_level"] = args.min_level
        write_csv(outputs["sweep"], ["threshold", "giant_fraction", "giant_fraction_decimal"],
                  ([format_fraction(level), format_fraction(frac), repr(float(frac))]
                   for level, frac in selection.sweep))
        # the sweep's giant at the chosen level is the projection's: the same
        # participants and the same positive edges, so no components pass
        giant = selection.giant_fraction_at_chosen
        print(f"auto threshold: {format_fraction(graph.threshold_used)} "
              f"(giant fraction {format_fraction(giant)})")
    else:
        del outputs["sweep"]
        graph = project_participants(weights, args.threshold, args.negative_threshold, node_attrs)
        giant = connected_components(graph).giant_fraction
    threshold = parameters["resolved_threshold"] = format_fraction(graph.threshold_used)
    export_graphml(graph, outputs["graphml"])
    export_edgelist(graph, outputs["edges"])
    print(f"projected {graph.n_nodes} participants: {_sign_counts(graph)} "
          f"at threshold {threshold}")
    print(f"largest component: {format_fraction(giant)} of nodes")
    _write_manifest(args, "project", parameters, SURVEY_INPUTS, outputs)
    return 0


def cmd_attitudes(args) -> int:
    _, matrix = _load_inputs(args)
    normalized = renormalize(matrix)
    graph = style_edges(project_attitudes(normalized), mode=args.attitude_mode)
    outputs = _outputs(args, graphml=".graphml", edges=".edges.csv")
    export_graphml(graph, outputs["graphml"])
    export_edgelist(graph, outputs["edges"])
    print(f"attitude graph over {graph.n_nodes} items: {_sign_counts(graph)}")
    _write_manifest(args, "attitudes",
                    {"attitude_mode": args.attitude_mode, "missing_policy": args.missing_policy},
                    SURVEY_INPUTS, outputs)
    return 0


def cmd_communities(args) -> int:
    graph = import_graphml(args.graph)
    report = girvan_newman(
        graph,
        target_components=args.target,
        max_removed_fraction=as_fraction(args.max_removed_fraction),
    )
    outputs = _outputs(args, report=".communities.json")
    _write_json(outputs["report"], report.to_dict())
    sizes = [len(c) for c in report.final_components]
    print(f"status: {report.status}")
    print(f"removed {len(report.removed_edges)} of {report.original_edge_count} edges "
          f"({format_fraction(report.removed_fraction)})")
    print(f"component sizes: {sizes[:10]}{' ...' if len(sizes) > 10 else ''}")
    shown = report.history[:10]
    if shown:
        print("step  removed edge                        betweenness  components")
        for i, step in enumerate(shown, start=1):
            edge = f"{step.edge[0]} -- {step.edge[1]}"
            comps = ",".join(str(s) for s in step.component_sizes[:6])
            print(f"{i:>4}  {edge:<35} {step.betweenness:>11.2f}  {comps}")
        if len(report.history) > len(shown):
            print(f"      ... {len(report.history) - len(shown)} more removals in "
                  f"{args.pending[outputs['report']]}")
    _write_manifest(args, "communities",
                    {"target": args.target, "max_removed_fraction": args.max_removed_fraction},
                    ("graph",), outputs)
    if report.status == "budget_exhausted":
        raise AlgorithmError(f"removal budget exhausted after {len(report.removed_edges)} "
                             f"removals at {len(sizes)} components; the target is {args.target}")
    return 0


def cmd_census(args) -> int:
    _, matrix = _load_inputs(args)
    signs = binarize(renormalize(matrix))
    census = profile_census(signs)
    outputs = _outputs(args, census=".census.json")
    _write_json(outputs["census"], census.to_dict())
    print(f"profiles realized: {census.realized_profiles}/{census.space} "
          f"({float(census.realized_fraction):.4f})")
    _write_manifest(args, "census", {"missing_policy": args.missing_policy}, SURVEY_INPUTS, outputs)
    return 0


def _parse_color_map(arg: str | None) -> dict:
    if not arg:
        return {}
    mapping = {}
    for part in arg.split(","):
        if "=" not in part:
            raise ValidationError(f"bad color mapping entry {part!r}; expected VALUE=COLOR")
        value, color = (side.strip() for side in part.split("=", 1))
        if not color:  # an empty value is legal, an empty fill is not a paint
            raise ValidationError(f"bad color mapping entry {part!r}; its color is empty")
        mapping[value] = color
    return mapping


def cmd_render(args) -> int:
    outputs = _outputs(args, svg=".svg")
    if args.bipartite:
        if not (args.survey and args.schema):
            raise ValidationError("--bipartite rendering needs --survey and --schema")
        _, matrix = _load_inputs(args)
        render_bipartite_svg(renormalize(matrix), outputs["svg"])
        inputs = SURVEY_INPUTS
        parameters = {"bipartite": True, "missing_policy": args.missing_policy}
    else:
        if not args.graph:
            raise ValidationError("render needs --graph FILE (or --bipartite with survey+schema)")
        graph = import_graphml(args.graph)
        layout = fr_layout(graph, seed=args.seed, iterations=args.iterations)
        scheme = ColorScheme(
            attribute=args.color_attr,
            mapping=_parse_color_map(args.color_map),
            default_color=args.default_color,
        )
        render_svg(graph, layout, scheme, outputs["svg"])
        inputs = ("graph",)
        parameters = {
            "bipartite": False,
            "seed": args.seed,
            "iterations": args.iterations,
            "color_attr": args.color_attr,
            "color_map": args.color_map,
            "default_color": args.default_color,
        }
    _write_manifest(args, "render", parameters, inputs, outputs)
    return 0


def _add_survey_args(sub, required=True):
    sub.add_argument("--survey", required=required, help="survey CSV file")
    sub.add_argument("--schema", required=required, help="schema JSON file")
    sub.add_argument("--missing-policy", dest="missing_policy",
                     choices=["drop_participant", "keep_pairwise"],
                     default="drop_participant")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValidationError, so it prints the JSON error block."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opinionnet",
        description="Opinion-based group structure from ordinal survey data",
    )
    parser.add_argument("--version", action="version", version=f"opinionnet {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("inspect", help="summarize a survey file against its schema")
    _add_survey_args(p)
    p.add_argument("--json", action="store_true", help="print the summary as JSON")
    p.add_argument("--dump-normalized", dest="dump_normalized", default=None,
                   help="also write normalized values (exact fractions) to this CSV")
    p.set_defaults(func=cmd_inspect)

    p = subs.add_parser("project", help="project participants into an agreement graph")
    _add_survey_args(p)
    p.add_argument("--mode", choices=sorted(MODE_ALIASES), required=True)
    p.add_argument("--threshold", required=True,
                   help="agreement threshold as a decimal or fraction (e.g. 11.5 or 23/2), "
                        "or 'auto' to pick the highest level forming a giant component")
    p.add_argument("--target-fraction", dest="target_fraction", default="1/2",
                   help="giant-component target for --threshold auto (default 1/2)")
    p.add_argument("--min-level", dest="min_level", default=None,
                   help="lowest level the auto sweep may descend to")
    p.add_argument("--negative-threshold", dest="negative_threshold", default=None,
                   help="add disagreement edges for weights at or below this value")
    p.add_argument("--rescale", action="store_true",
                   help="score mode with pairwise missing data: stretch scores back to the "
                        "full range (weight * m / co_answered)")
    p.add_argument("--exclude-neutral-pairs", dest="exclude_neutral_pairs", action="store_true",
                   help="binarized mode: do not count two neutral answers as agreement")
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(func=cmd_project)

    p = subs.add_parser("attitudes", help="project items into a co-endorsement graph")
    _add_survey_args(p)
    p.add_argument("--attitude-mode", dest="attitude_mode", choices=["dual", "signed"],
                   default="dual")
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(func=cmd_attitudes)

    p = subs.add_parser("communities", help="split a projected graph by edge betweenness")
    p.add_argument("--graph", required=True, help="GraphML file from 'project'")
    p.add_argument("--target", type=int, default=2, help="component count to reach (default 2)")
    p.add_argument("--max-removed-fraction", dest="max_removed_fraction", default="1",
                   help="removal budget as a fraction of the edge count (default 1)")
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(func=cmd_communities)

    p = subs.add_parser("census", help="tally binarized response profiles")
    _add_survey_args(p)
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(func=cmd_census)

    p = subs.add_parser("render", help="render a graph (or the raw bipartite survey) to SVG")
    p.add_argument("--graph", default=None, help="GraphML file to lay out and draw")
    _add_survey_args(p, required=False)
    p.add_argument("--bipartite", action="store_true",
                   help="draw the two-layer participant-item graph directly")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--color-attr", dest="color_attr", default=None,
                   help="node attribute to color by")
    p.add_argument("--color-map", dest="color_map", default=None,
                   help="comma-separated VALUE=COLOR pairs, e.g. 'D=#1f77b4,R=#d62728'")
    p.add_argument("--default-color", dest="default_color", default="#999999",
                   type=lambda color: color or None,
                   help="fill for unmapped values (empty string to make them an error)")
    p.add_argument("--out-prefix", dest="out_prefix", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    pending = {}  # temporary output -> its file; see _temporary
    try:
        try:
            args = build_parser().parse_args(argv)
            args.pending = pending
            try:
                return args.func(args)
            finally:
                for temp in pending:  # what a failed command wrote is removed
                    temp.unlink(missing_ok=True)
                sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        except OSError as exc:  # e.g. an output prefix under a regular file, or a full disk
            if isinstance(exc, BrokenPipeError) and exc.filename is None:
                # what is still buffered for stdout goes nowhere, not into a traceback at exit
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise ValidationError("standard output closed before the run finished") from exc
            finals = {str(temp): final for temp, final in pending.items()}
            name = finals.get(exc.filename, exc.filename) or "a file"  # never a temporary
            raise ValidationError(f"cannot access {name}: {exc.strerror or exc}") from exc
    except OpinionNetError as exc:
        block = {"error": {"type": type(exc).__name__, "message": str(exc),
                           "exit_code": exc.exit_code}}
        sweep = getattr(exc, "sweep", None)
        if sweep is not None:
            block["error"]["sweep"] = [
                {"threshold": format_fraction(level), "giant_fraction": format_fraction(frac)}
                for level, frac in sweep
            ]
        sys.stderr.write(json.dumps(block, sort_keys=True) + "\n")
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
