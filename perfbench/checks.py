"""Correctness checks on restored outputs.

Each check tests a property of the method or compares against data the
benchmark kept apart from the program; none compares against a saved
copy of an earlier run's output.  A check returns ``None`` when it passes
and a one-line description of the fault when it does not.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

#: Low-band agreement allowed, relative to the band's largest magnitude.
#: Only float rounding of the forward and inverse transforms separates
#: the two bands (about 1e-16 relative per operation).
LOWBAND_RTOL = 1e-9

#: The paper's Fig. 6/7 bands for the default lossy configuration.
RATIO_BAND = (0.13, 0.29)
MAX_MEAN_REL_ERR_PCT = 1.2


def haar_lowband(x: np.ndarray, levels: int) -> np.ndarray:
    """The deepest Haar low band of ``x``, computed here in numpy.

    Each level halves every axis of length >= 2 by averaging neighbour
    pairs; an odd axis carries its last element over.  The quantizer only
    touches high bands, so this band must survive a lossy round trip up
    to float rounding.
    """
    a = np.asarray(x, dtype=np.float64)
    for _ in range(levels):
        if all(n < 2 for n in a.shape):
            break
        for axis, n in enumerate(a.shape):
            if n < 2:
                continue
            m = n // 2
            v = np.moveaxis(a, axis, 0)
            low = 0.5 * (v[0 : 2 * m : 2] + v[1 : 2 * m : 2])
            if n % 2:
                low = np.concatenate([low, v[n - 1 :]], axis=0)
            a = np.moveaxis(low, 0, axis)
    return a


def check_lowband(
    name: str, want: np.ndarray, restored: np.ndarray, levels: int
) -> str | None:
    """Compare the restored array's low band with ``want``, the input's."""
    got = haar_lowband(restored, levels)
    if got.shape != want.shape:
        return f"{name}: restored low band shape {got.shape} != input {want.shape}"
    diff = float(np.max(np.abs(want - got)))
    scale = max(1.0, float(np.max(np.abs(want))))
    if not diff <= LOWBAND_RTOL * scale:
        return f"{name}: deepest low band differs by {diff:.3g} (scale {scale:.3g})"
    return None


def mean_rel_err(original: np.ndarray, restored: np.ndarray) -> float:
    """Paper Eq. 6: mean |x - x'| over the input's value range, as a share."""
    o = np.asarray(original, dtype=np.float64)
    r = np.asarray(restored, dtype=np.float64)
    span = float(o.max() - o.min())
    if span == 0.0:
        span = 1.0
    return float(np.mean(np.abs(o - r))) / span


def check_band(name: str, value: float, lo: float, hi: float) -> str | None:
    if not lo <= value <= hi:
        return f"{name} = {value:.6g} outside [{lo}, {hi}]"
    return None


def check_error_bound(
    name: str, original: np.ndarray, restored: np.ndarray, bound: float
) -> str | None:
    if restored.shape != original.shape:
        return f"{name}: restored shape {restored.shape} != input {original.shape}"
    worst = float(np.max(np.abs(np.asarray(original) - np.asarray(restored))))
    if not worst <= bound:
        return f"{name}: max error {worst:.6g} exceeds bound {bound:.6g}"
    return None


def check_identical(
    label: str, sent: Mapping[str, bytes], got: Mapping[str, bytes]
) -> str | None:
    if set(sent) != set(got):
        return f"{label}: restored names {sorted(got)} != sent {sorted(sent)}"
    for name in sorted(sent):
        if bytes(got[name]) != bytes(sent[name]):
            return f"{label}: blob {name!r} differs from the bytes sent"
    return None


def check_shape(label: str, decoded: np.ndarray, shape: tuple[int, ...]) -> str | None:
    if tuple(decoded.shape) != tuple(shape):
        return f"{label}: decoded shape {decoded.shape} != submitted {shape}"
    return None
