"""Small shared helpers for the experiment harness."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


class RunError(Exception):
    """The base of the library's refusals of a parsed config: a run that
    raises one ends as a config error (exit 2), never in a traceback."""


def sample_moments(values: np.ndarray) -> tuple[float, float]:
    """Mean and unbiased (ddof=1) variance of per-sample Monte Carlo values.

    The variance is numpy's two-pass one (squared deviations from the mean),
    so it does not cancel the way E[x^2] - E[x]^2 does.  No values, or any
    non-finite value, give (inf, inf); one value, or constant values, give
    variance exactly 0.  Every estimator reduces its samples here, once, in
    sample-index order, so results do not depend on how samples were batched.
    """
    if len(values) == 0 or not np.isfinite(values).all():
        return math.inf, math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        var = float(values.var(ddof=1)) if (values != values[0]).any() else 0.0
    if not math.isfinite(mean):
        return math.inf, math.inf
    return mean, var if math.isfinite(var) else math.inf


def format_value(v: object) -> str:
    """Canonical text form used in CSV cells and metadata echoes.

    Floats use repr (shortest round-trip form), so output bytes depend only
    on the computed values, never on locale or print settings.
    """
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def write_csv(
    path: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    header_lines: Sequence[str] = (),
    trailing_comments: Sequence[str] = (),
) -> None:
    """Write a gnuplot-friendly CSV: '#' metadata block, one header row,
    data rows, optional trailing '#' summary lines."""
    out = []
    for line in header_lines:
        out.append(f"# {line}")
    out.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(
                f"row width {len(row)} does not match {len(columns)} columns"
            )
        out.append(",".join(format_value(v) for v in row))
    for line in trailing_comments:
        out.append(f"# {line}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
