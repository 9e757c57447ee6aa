import time
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from hamline import spectra, verify


@pytest.fixture(scope="session")
def soundness_factorizations():
    """Sparse factorizations of the :func:`soundness_run` probe, counted
    by block dimension."""
    return Counter()


@pytest.fixture(scope="session")
def soundness_run(soundness_factorizations):
    """One in-process run of the default soundness probe, shared by the
    verify and acceptance tests: (report, seconds)."""
    factor = spectra._factor

    def counted(A, x, floor):
        soundness_factorizations[A.shape[0]] += 1
        return factor(A, x, floor)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_factor", counted)
        t0 = time.perf_counter()
        rep = verify.soundness_probe()
        return rep, time.perf_counter() - t0


def _component_eigh(H, k: int):
    """The k lowest eigenpairs of a Hermitian matrix, from
    ``np.linalg.eigh`` on each connected component of its graph (the
    exchange-closed sets of a whole-chain matrix), the vectors embedded
    in the whole space: (values, vectors).  At 4 sites the 2,423
    components have at most 40 dimensions, so this takes a tenth of the
    time of one dense solve of all 4,096."""
    H = sp.csr_matrix(H)
    _, label = connected_components(abs(H), directed=False)
    pairs = []
    for idx in np.split(np.argsort(label, kind="stable"),
                        np.cumsum(np.bincount(label))[:-1]):
        vals, vecs = np.linalg.eigh(H[idx][:, idx].toarray())
        pairs += [(v, idx, y) for v, y in zip(vals, vecs.T)]
    pairs = sorted(pairs, key=lambda p: p[0])[:k]
    values = np.array([v for v, _, _ in pairs])
    vectors = np.zeros((H.shape[0], len(pairs)), dtype=H.dtype)
    for j, (_, idx, y) in enumerate(pairs):
        vectors[idx, j] = y
    return values, vectors


@pytest.fixture(scope="session")
def component_eigh():
    """The component-spectrum oracle, :func:`_component_eigh`."""
    return _component_eigh
