"""Numpy fallback for the stencil kernel.

Like the compiled version, it ping-pongs between two float64 buffers made
once per call, and both hold the edge nodes from the start, so a pass
writes only the interior. Each pass is five ufunc calls straight into the
destination's interior, in the compiled version's operation order (2 v is
computed as v + v, which is exact), so results are bit-identical between
backends and no pass allocates. Several rows are laid end to end in one
buffer, so a pass stays five ufunc calls.
"""
import numpy as np


def apply_passes(values: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """Run one explicit stencil pass per entry of ``nus``.

    ``values`` has shape ``(nx,)`` or ``(rows, nx)``; each row is an
    independent line. Interior nodes update as
    v[i] + nu * (v[i+1] - 2 v[i] + v[i-1]); the two edge nodes of every row
    keep their incoming values. Returns a new float64 array of the input's
    shape; ``values`` is never written.
    """
    a = np.array(values, dtype=np.float64, order="C")
    if a.ndim not in (1, 2):
        raise ValueError(f"stencil takes a 1-d or 2-d array, got {a.ndim} dimensions")
    if a.shape[-1] < 3:
        raise ValueError("stencil needs at least 3 nodes")
    nus = np.asarray(nus, dtype=np.float64)
    b = a.copy()
    nx = a.shape[-1]
    fa, fb = a.reshape(-1), b.reshape(-1)  # views: the rows end to end
    joined = fa.size > nx
    if joined:  # where rows meet, a pass mixes two rows: put those held edge nodes back
        seams = (np.arange(nx, fa.size, nx) - np.array([[2], [1]])).ravel()  # in the interior
        held = fa[1:-1][seams]
    # (right, mid, left) of the source, then the destination's interior
    src = (fa[2:], fa[1:-1], fa[:-2], fb[1:-1])
    dst = (fb[2:], fb[1:-1], fb[:-2], fa[1:-1])
    mul, sub, add = np.multiply, np.subtract, np.add
    for nu in nus:
        right, mid, left, out = src
        add(mid, mid, out)
        sub(right, out, out)
        add(out, left, out)
        mul(out, nu, out)
        add(mid, out, out)
        if joined:
            out[seams] = held
        src, dst = dst, src
    # an odd number of passes leaves the last one in b
    return b if nus.shape[0] % 2 else a
