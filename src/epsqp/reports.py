"""Residual norms, least-squares fits, and the report container.

Norms are taken over a validity mask with an explicit integration measure
(grid spacing in 1D, phase-space cell in 2D) so values are comparable
across resolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class ResidualReport:
    """Named residual norms plus the context needed to interpret them.

    ``metadata`` carries scalar context (alpha, dt, grid size, fitted
    constants); ``fields`` carries the arrays behind the norms for dumps
    and follow-up analysis and is excluded from repr/comparison.  A 2D
    residual's fields are crops of the mask's bounding ``fields["box"]``,
    NaN off the mask.
    """

    name: str
    l2_norm: float
    max_norm: float
    masked_fraction: float
    metadata: dict = field(default_factory=dict)
    fields: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.l2_norm < 0 or self.max_norm < 0:
            raise ValueError("norms must be non-negative")
        if not 0.0 <= self.masked_fraction <= 1.0:
            raise ValueError("masked_fraction must lie in [0, 1]")


def l2(values: NDArray, measure: float = 1.0) -> float:
    """``sqrt(sum |values|^2 * measure)``, without BLAS: independent of its thread count."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * measure))


def masked_l2(values: NDArray, mask: NDArray, measure: float) -> float:
    """:func:`l2` over the valid samples."""
    values = np.asarray(values)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("cannot take a norm over an empty mask")
    return l2(values[mask], measure)


def masked_max(values: NDArray, mask: NDArray) -> float:
    """Max absolute value over the valid samples."""
    values = np.asarray(values)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("cannot take a norm over an empty mask")
    return float(np.max(np.abs(values[mask])))


def masked_fraction(mask: NDArray) -> float:
    """Fraction of samples excluded by the mask."""
    mask = np.asarray(mask, dtype=bool)
    return float(1.0 - mask.sum() / mask.size)


def snapshot_metadata(center, dt: float) -> dict:
    """The ``dt``, ``t``, ``grid_n`` and ``potential`` entries of a residual at the
    ``center`` state (``grid_n`` counts its points)."""
    return {
        "dt": dt,
        "t": center.t,
        "grid_n": center.grid.n_points,
        "potential": center.params.potential.kind,
    }


def residual_report(
    name: str, full: NDArray, mask: NDArray[np.bool_], measure: float, metadata: dict,
    classical: NDArray | None = None, quantum: NDArray | None = None, fields: dict | None = None,
    box: tuple = (),
) -> ResidualReport:
    """Report of a residual ``full`` (= ``classical + quantum`` when split).

    The arrays cover the ``box`` crop of ``mask``'s grid.  Norms are taken
    over the mask with the integration ``measure``; the norms of the
    classical form and of the quantum term are added to ``metadata`` when
    those pieces are given.  The report's fields are the residual, classical
    form and quantum term on the box, NaN off the mask, the ``box``, the
    ``mask`` and the caller's extra ``fields``.
    """
    inside = mask[box]
    if classical is not None:
        metadata["classical_form_l2"] = masked_l2(classical, inside, measure)
        metadata["classical_form_max"] = masked_max(classical, inside)
    if quantum is not None:
        metadata["quantum_term_l2"] = masked_l2(quantum, inside, measure)
    pieces = {"residual": full, "classical_form": classical, "quantum_term": quantum}
    crops = {k: np.where(inside, v, np.nan) for k, v in pieces.items() if v is not None}
    l2_norm, peak = masked_l2(full, inside, measure), masked_max(full, inside)
    fields = crops | {"box": box, "mask": mask} | (fields or {})
    return ResidualReport(name, l2_norm, peak, masked_fraction(mask), metadata, fields)


@dataclass(frozen=True)
class LineFit:
    """Least-squares line ``y = slope * x + intercept``.

    ``zero_crossing`` is the root ``-intercept/slope`` (NaN for a flat
    line); ``r_squared`` is the coefficient of determination.
    """

    slope: float
    intercept: float
    r_squared: float
    zero_crossing: float


def fit_line(x, y) -> LineFit:
    """Fit a straight line through the sample points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("fit_line expects matching 1D samples")
    if x.size < 2:
        raise ValueError("need at least two points to fit a line")
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    zero = -intercept / slope if slope != 0.0 else math.nan
    return LineFit(float(slope), float(intercept), r_squared, float(zero))


def fit_global_constant(target: NDArray, basis: NDArray, mask: NDArray | None = None) -> complex:
    """Least-squares constant ``c`` minimising ``||target - c * basis||``.

    Works for complex fields; restrict to ``mask`` if given.  Raises if the
    basis is identically zero on the mask.  The two sums come from
    ``np.einsum``, without a full-size temporary and without BLAS.
    """
    target = np.asarray(target)
    basis = np.asarray(basis)
    if target.shape != basis.shape:
        raise ValueError("target and basis shapes differ")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        target = target[mask]
        basis = basis[mask]
    axes = "abcdefghijkl"[: basis.ndim]
    conj = basis.conj()  # the array itself when it is real
    denom = np.einsum(f"{axes},{axes}->", conj, basis).real
    if denom == 0.0:
        raise ValueError("cannot fit a constant against a zero basis")
    return complex(np.einsum(f"{axes},{axes}->", conj, target) / denom)
