"""CSV, JSON, and SVG output helpers.

A table is a list of row dicts; its CSV header is the first row's keys.
All numeric CSV fields are written with 17 significant digits so that
re-running an experiment with the same seed produces byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MixgameError

_SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN = 640, 400, 50


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, rows: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = list(rows[0])
    lines = [",".join(header)]
    lines += [",".join(fmt(row[k]) for k in header) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    path = Path(path)
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise MixgameError(f"{path}: {exc}") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def svg_line_plot(path, rows, x_key: str, y_keys: list, title: str = "") -> None:
    """Self-contained SVG of columns ``y_keys`` of the rows against ``x_key``."""
    x = [float(row[x_key]) for row in rows]
    series = {key: [row[key] for row in rows] for key in y_keys}
    width, height, margin = _SVG_WIDTH, _SVG_HEIGHT, _SVG_MARGIN
    all_y = [float(v) for ys in series.values() for v in ys]
    x_lo, x_hi = min(x), max(x)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(v):
        return margin + (v - x_lo) / x_span * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / y_span * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#888"/>',
    ]
    for i, (name, ys) in enumerate(series.items()):
        pts = " ".join(f"{sx(a):.2f},{sy(float(b)):.2f}" for a, b in zip(x, ys))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{width - margin - 5}" y="{margin + 16 + 16 * i}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="12" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
