"""Multi-order path models, path centralities, prediction experiments, and
rolling-window team-role analytics."""

from .errors import DataError, NumericError, UnsupportedMeasureError
from .pathdata import (
    END,
    START,
    ActionRecord,
    DatasetStats,
    Path,
    PathDataset,
    TemporalEdge,
    WindowSlice,
    extract_paths,
    parse_paths,
    paths_from_actions,
    rolling_windows,
    stats,
)
from .models import (
    MOGenModel,
    NetworkModel,
    PathModel,
    encode_path,
    fit_mogen,
    fit_network,
    fit_path,
    fundamental_matrix,
    select_order,
)
from .centrality import (
    MEASURES,
    CentralityVector,
    EdgeCentralityReport,
    compute,
    edge_centralities,
)
from .experiment import AUCResult, SplitSpec, auc_score, evaluate, ground_truth, project_up, split
from .smells import (
    DeviationScore,
    PlatformSeries,
    SmellEvidence,
    deviation_scores,
    evidence,
    rank_members,
    windowed_centralities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
