"""Numpy fallback for the stencil kernel.

Like the compiled version, it ping-pongs between two float64 buffers made
once per call, and both hold the edge nodes from the start, so a pass
writes only the interior. Each pass is five ufunc calls into one scratch
array, in the compiled version's operation order, so results are
bit-identical between backends and no pass allocates.
"""
import numpy as np


def apply_passes(values: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """Run one explicit stencil pass per entry of ``nus``.

    Interior nodes update as v[i] + nu * (v[i+1] - 2 v[i] + v[i-1]);
    the two edge nodes keep their incoming values. Returns a new float64
    array; ``values`` is never written.
    """
    a = np.array(values, dtype=np.float64)
    if a.shape[0] < 3:
        raise ValueError("stencil needs at least 3 nodes")
    nus = np.asarray(nus, dtype=np.float64)
    b = a.copy()
    tmp = np.empty(a.shape[0] - 2)
    # (right, mid, left) of the source, then the destination's interior
    src = (a[2:], a[1:-1], a[:-2], b[1:-1])
    dst = (b[2:], b[1:-1], b[:-2], a[1:-1])
    mul, sub, add = np.multiply, np.subtract, np.add
    for nu in nus:
        right, mid, left, out = src
        mul(mid, 2.0, tmp)
        sub(right, tmp, tmp)
        add(tmp, left, tmp)
        mul(tmp, nu, tmp)
        add(mid, tmp, out)
        src, dst = dst, src
    # an odd number of passes leaves the last one in b
    return b if nus.shape[0] % 2 else a
