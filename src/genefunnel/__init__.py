"""Two-stage gene selection for high-dimensional tabular data.

Stage 1 ranks genes by total split gain of a gradient-boosted tree
ensemble and keeps everything with positive importance; stage 2 searches
that subset with a genetic algorithm scored by internal-CV KNN accuracy.
A cross-validation harness (KNN / Gaussian NB / linear SVM, macro
metrics, Wilcoxon signed-rank test) evaluates the result.
"""
# The kernels are numpy only; the name stays for run records that store it.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]
