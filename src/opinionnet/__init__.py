"""Opinion-based group structure from ordinal survey data.

A survey is a bipartite graph: participants on one side, items on the other,
each response an edge valued by the rated scale point. This package projects
that graph two ways: participants linked by agreement (exact, score-based, or
binarized, filtered by an agreement threshold) and attitudes linked by how
often participants co-endorse or co-reject them. On top of the projections it
provides giant-component threshold selection, community splitting by edge
betweenness, binarized profile censuses, and deterministic layout/export.
"""

__version__ = "0.1.0"

from .errors import AlgorithmError, NoGiantComponentError, OpinionNetError, ValidationError
from .ingest import (
    MISSING,
    LoadReport,
    ResponseMatrix,
    SurveyItem,
    SurveySchema,
    load_survey,
    write_survey,
)
from .normalize import (
    NormalizedMatrix,
    SignMatrix,
    binarize,
    renormalize,
    scale_values,
    write_normalized_csv,
)
from .project import (
    AttitudeGraph,
    Edge,
    PairWeights,
    ProjectionGraph,
    ThresholdSelection,
    binarized_agreement_weights,
    exact_agreement_weights,
    project_attitudes,
    project_participants,
    score_weights,
    select_threshold,
    style_edges,
    thirds_style,
)
from .analyze import (
    CommunityReport,
    ComponentReport,
    ProfileCensus,
    connected_components,
    edge_betweenness,
    girvan_newman,
    profile_census,
)
from .render import (
    ColorScheme,
    LayoutResult,
    export_edgelist,
    export_graphml,
    fr_layout,
    import_graphml,
    render_bipartite_svg,
    render_svg,
)
from .rational import as_fraction, format_fraction

__all__ = [
    "__version__",
    "AlgorithmError",
    "AttitudeGraph",
    "ColorScheme",
    "CommunityReport",
    "ComponentReport",
    "Edge",
    "LayoutResult",
    "LoadReport",
    "MISSING",
    "NoGiantComponentError",
    "NormalizedMatrix",
    "OpinionNetError",
    "PairWeights",
    "ProfileCensus",
    "ProjectionGraph",
    "ResponseMatrix",
    "SignMatrix",
    "SurveyItem",
    "SurveySchema",
    "ThresholdSelection",
    "ValidationError",
    "as_fraction",
    "binarize",
    "binarized_agreement_weights",
    "connected_components",
    "edge_betweenness",
    "exact_agreement_weights",
    "export_edgelist",
    "export_graphml",
    "format_fraction",
    "fr_layout",
    "girvan_newman",
    "import_graphml",
    "load_survey",
    "profile_census",
    "project_attitudes",
    "project_participants",
    "renormalize",
    "render_bipartite_svg",
    "render_svg",
    "scale_values",
    "score_weights",
    "select_threshold",
    "style_edges",
    "thirds_style",
    "write_normalized_csv",
    "write_survey",
]
