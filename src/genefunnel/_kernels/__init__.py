"""Kernel backend selection.

Split search is the numpy kernel on every install. ``knn_predict``,
which serves the ``knn`` evaluation classifier, uses the compiled Cython
extension when present, otherwise the numpy fallback. GA fitness votes
with the numpy ``knn_vote`` on every install. Set
GENEFUNNEL_KERNELS=python or =compiled to force a backend (the latter
raises if the extension is missing).
"""
import os

from . import _fallback

_forced = os.environ.get("GENEFUNNEL_KERNELS", "").lower()

if _forced == "python":
    _impl = _fallback
    BACKEND = "python"
else:
    try:
        from . import _core as _impl  # type: ignore[attr-defined]
        BACKEND = "compiled"
    except ImportError:
        if _forced == "compiled":
            raise
        _impl = _fallback
        BACKEND = "python"

best_split = _fallback.best_split
best_split_sorted = _fallback.best_split_sorted
sort_columns = _fallback.sort_columns
sorted_partition = _fallback.sorted_partition
knn_vote = _fallback.knn_vote
knn_predict = _impl.knn_predict

__all__ = ["BACKEND", "best_split", "best_split_sorted", "knn_predict",
           "knn_vote", "sort_columns", "sorted_partition"]
