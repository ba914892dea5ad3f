# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled brute-force KNN voting.

Tie-break semantics are identical to ``_fallback.knn_predict``; the
parity test in ``tests/test_kernels.py`` compares the two.
"""
import numpy as np
cimport numpy as cnp

cnp.import_array()


def knn_predict(train, labels, test, Py_ssize_t k, Py_ssize_t n_classes):
    """See ``_fallback.knn_predict``; same contract and tie rules."""
    cdef cnp.ndarray[cnp.float64_t, ndim=2] tr = np.ascontiguousarray(train, dtype=np.float64)
    cdef cnp.ndarray[cnp.float64_t, ndim=2] te = np.ascontiguousarray(test, dtype=np.float64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] lab = np.asarray(labels, dtype=np.int64)
    cdef Py_ssize_t m = tr.shape[0]
    cdef Py_ssize_t d = tr.shape[1]
    cdef Py_ssize_t q_count = te.shape[0]
    if k > m:
        k = m
    cdef cnp.ndarray[cnp.int64_t, ndim=1] out = np.empty(q_count, dtype=np.int64)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] nd = np.empty(k, dtype=np.float64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] ni = np.empty(k, dtype=np.int64)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] votes = np.empty(n_classes, dtype=np.int64)
    cdef Py_ssize_t q, t, j, pos, filled, top_class
    cdef double dist, diff, best_votes
    cdef long cls

    for q in range(q_count):
        filled = 0
        for t in range(m):
            dist = 0.0
            for j in range(d):
                diff = te[q, j] - tr[t, j]
                dist += diff * diff
            # insertion keeping (distance, index) ascending
            if filled < k:
                pos = filled
                while pos > 0 and nd[pos - 1] > dist:
                    nd[pos] = nd[pos - 1]
                    ni[pos] = ni[pos - 1]
                    pos -= 1
                nd[pos] = dist
                ni[pos] = t
                filled += 1
            elif dist < nd[k - 1]:
                pos = k - 1
                while pos > 0 and nd[pos - 1] > dist:
                    nd[pos] = nd[pos - 1]
                    ni[pos] = ni[pos - 1]
                    pos -= 1
                nd[pos] = dist
                ni[pos] = t
        for j in range(n_classes):
            votes[j] = 0
        for t in range(k):
            votes[lab[ni[t]]] += 1
        best_votes = 0
        for j in range(n_classes):
            if votes[j] > best_votes:
                best_votes = votes[j]
        top_class = -1
        for t in range(k):
            cls = lab[ni[t]]
            if votes[cls] == best_votes:
                top_class = cls
                break
        out[q] = top_class
    return out
