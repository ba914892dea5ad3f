"""Kernel backend selection.

Split search is the numpy kernel on every install. KNN voting uses the
compiled Cython extension when present, otherwise the numpy fallback.
Set GENEFUNNEL_KERNELS=python or =compiled to force a backend (the
latter raises if the extension is missing).
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
knn_predict = _impl.knn_predict

__all__ = ["BACKEND", "best_split", "knn_predict"]
