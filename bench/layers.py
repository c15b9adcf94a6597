"""Which program functions the traced run wraps, and the per-layer metrics.

Functions are wrapped where ``opinionnet.cli`` binds them, plus the pair
kernel ``PairWeights.block_numerators`` on its class, because every
histogram, collect and scan pass calls it from inside ``project`` and
``analyze``. Layer times are self times, so the kernel's time is not also
counted in the sweep or edge-assembly span that called it.
"""

from __future__ import annotations

import os
from statistics import median

from spans import Tracer, self_times

# span name -> (attribute on opinionnet.cli, counts taken from the call)
CLI_FUNCTIONS = {
    "ingest.load_survey": ("load_survey", lambda a, k, r: {"rows": r.n_participants}),
    "normalize.renormalize": ("renormalize", None),
    "normalize.binarize": ("binarize", None),
    "edges.project_participants": ("project_participants", lambda a, k, r: {"edges": r.n_edges}),
    "sweep.select_threshold": ("select_threshold", lambda a, k, r: {"levels": len(r.sweep)}),
    "components.connected_components": ("connected_components", None),
    "gn.girvan_newman": ("girvan_newman", lambda a, k, r: {"removals": len(r.removed_edges)}),
    "export.graphml": ("export_graphml", lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    "export.edgelist": ("export_edgelist", lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    "import.graphml": ("import_graphml", lambda a, k, r: {"edges": r.n_edges}),
    "layout.fr_layout": ("fr_layout", lambda a, k, r: {"iterations": r.iterations}),
    "svg.render_svg": ("render_svg", None),
}

CLI_SPAN = "cli.main"
KERNEL_SPAN = "kernel.block_numerators"

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "kernel.calls": "count",
    "kernel.cells": "count",
    "kernel.s": "s",
    "kernel.cells_per_s": "1/s",
    "kernel.passes": "count",
    "kernel.item_ops": "count",
    "edges.s": "s",
    "edges.emitted": "count",
    "edges.per_s": "1/s",
    "sweep.s": "s",
    "sweep.levels": "count",
    "export.graphml_s": "s",
    "export.graphml_bytes": "B",
    "export.edgelist_s": "s",
    "export.edgelist_bytes": "B",
    "import.graphml_s": "s",
    "import.edges_per_s": "1/s",
    "components.s": "s",
    "gn.s": "s",
    "gn.removals": "count",
    "gn.s_per_removal": "s",
    "layout.s": "s",
    "layout.s_per_iter": "s",
    "svg.s": "s",
    "ingest.load_s": "s",
    "ingest.rows": "count",
    "normalize.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _kernel_counts(args, kwargs, result):
    weights, r0, r1, c0, c1 = args
    n = weights.n_participants
    cells = (r1 - r0) * (c1 - c0)
    return {"cells": cells, "item_ops": cells * weights.n_items,
            "passes": cells / (n * (n - 1) // 2)}


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function; undo with tracer.restore()."""
    import opinionnet.cli as cli
    from opinionnet.project import PairWeights

    for name, (attr, count) in CLI_FUNCTIONS.items():
        tracer.wrap(cli, attr, name, count)
    tracer.wrap(PairWeights, "block_numerators", KERNEL_SPAN, _kernel_counts)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def chain_metrics(spans) -> dict:
    """Per-layer metrics of one traced chain (everything but trace.overhead_s)."""
    own = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def secs(*names):
        return sum(own[s.id] for n in names for s in by_name.get(n, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    kernel_s = secs(KERNEL_SPAN)
    cells = count(KERNEL_SPAN, "cells")
    edges_s = secs("edges.project_participants")
    emitted = count("edges.project_participants", "edges")
    import_s = secs("import.graphml")
    gn_s = secs("gn.girvan_newman")
    removals = count("gn.girvan_newman", "removals")
    layout_s = secs("layout.fr_layout")
    return {
        "kernel.calls": len(by_name.get(KERNEL_SPAN, ())),
        "kernel.cells": cells,
        "kernel.s": kernel_s,
        "kernel.cells_per_s": _ratio(cells, kernel_s),
        "kernel.passes": count(KERNEL_SPAN, "passes"),
        "kernel.item_ops": count(KERNEL_SPAN, "item_ops"),
        "edges.s": edges_s,
        "edges.emitted": emitted,
        "edges.per_s": _ratio(emitted, edges_s),
        "sweep.s": secs("sweep.select_threshold"),
        "sweep.levels": count("sweep.select_threshold", "levels"),
        "export.graphml_s": secs("export.graphml"),
        "export.graphml_bytes": count("export.graphml", "bytes"),
        "export.edgelist_s": secs("export.edgelist"),
        "export.edgelist_bytes": count("export.edgelist", "bytes"),
        "import.graphml_s": import_s,
        "import.edges_per_s": _ratio(count("import.graphml", "edges"), import_s),
        "components.s": secs("components.connected_components"),
        "gn.s": gn_s,
        "gn.removals": removals,
        "gn.s_per_removal": _ratio(gn_s, removals),
        "layout.s": layout_s,
        "layout.s_per_iter": _ratio(layout_s, count("layout.fr_layout", "iterations")),
        "svg.s": secs("svg.render_svg"),
        "ingest.load_s": secs("ingest.load_survey"),
        "ingest.rows": count("ingest.load_survey", "rows"),
        "normalize.s": secs("normalize.renormalize", "normalize.binarize"),
        "cli.self_s": secs(CLI_SPAN),
    }


def median_metrics(per_chain: list) -> dict:
    """Median of each per-layer metric over the traced chains of one run."""
    return {name: median(m[name] for m in per_chain) for name in per_chain[0]}
