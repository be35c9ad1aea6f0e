"""Multi-order path models, path centralities, prediction experiments, and
rolling-window team-role analytics.

Every public name resolves on first access (PEP 562): ``import pathcent``
loads no submodule, and ``from pathcent import fit_mogen`` loads only what
:mod:`pathcent.models` needs. The names and objects are those of the
defining submodules, listed below.
"""
from importlib import import_module

_NAMES = {
    "errors": "DataError NumericError UnsupportedMeasureError",
    "pathdata": "END MEASURES START ActionRecord DatasetStats Path PathDataset TemporalEdge "
                "WindowSlice extract_paths parse_paths paths_from_actions rolling_windows stats",
    "models": "MOGenModel NetworkModel PathModel encode_path fit_mogen fit_network fit_path select_order",
    "centrality": "CentralityVector EdgeCentralityReport compute edge_centralities",
    "experiment": "AUCResult SplitSpec auc_score evaluate ground_truth project_up split",
    "smells": "DeviationScore PlatformSeries SmellEvidence deviation_scores evidence "
              "rank_members windowed_centralities",
}
#: Public name -> the submodule that defines it; a submodule maps to itself.
_SOURCE = {name: module for module, names in _NAMES.items() for name in (module, *names.split())}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_SOURCE[name]}")
    value = globals()[name] = module if name == _SOURCE[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
