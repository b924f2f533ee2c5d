"""Minimal self-contained SVG chart writers (no plotting dependency).

Fixed 800x500 canvas, linear axes, one polyline per curve with optional
vertical error bars. CSV files remain the machine-readable source of
truth; these are companion pictures.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 75, 25, 45, 60
PALETTE = ["#1f77b4", "#d62728", "#7f4fc9", "#2ca02c", "#8c564b", "#e377c2"]


@dataclass
class Curve:
    label: str
    points: list[tuple[float, float]]
    err: list[float] | None = None  # half-width of a vertical bar per point


def padded_range(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) widened by 5% of its width on each side; an empty range first widens to width 1."""
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _scales(xlo, xhi, ylo, yhi):
    def sx(x):
        return MARGIN_L + (x - xlo) / (xhi - xlo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        return HEIGHT - MARGIN_B - (y - ylo) / (yhi - ylo) * (HEIGHT - MARGIN_T - MARGIN_B)

    return sx, sy


def _axes(parts, sx, sy, xlo, xhi, ylo, yhi, title, xlabel, ylabel):
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    x0, x1 = sx(xlo), sx(xhi)
    y0, y1 = sy(ylo), sy(yhi)
    parts.append(f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" y2="{y0:.1f}" stroke="black"/>')
    parts.append(f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x0:.1f}" y2="{y1:.1f}" stroke="black"/>')
    for i in range(6):
        fx = xlo + (xhi - xlo) * i / 5
        fy = ylo + (yhi - ylo) * i / 5
        px, py = sx(fx), sy(fy)
        parts.append(f'<line x1="{px:.1f}" y1="{y0:.1f}" x2="{px:.1f}" y2="{y0 + 5:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 20:.1f}" font-size="12" text-anchor="middle">{fx:g}</text>'
        )
        parts.append(f'<line x1="{x0 - 5:.1f}" y1="{py:.1f}" x2="{x0:.1f}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8:.1f}" y="{py + 4:.1f}" font-size="12" text-anchor="end">{fy:.4g}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="25" font-size="15" text-anchor="middle">{title}</text>'
    )
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 15}" font-size="13" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{HEIGHT / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {HEIGHT / 2:.1f})">{ylabel}</text>'
    )


def write_line_chart(
    path: str | Path,
    curves: list[Curve],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    hline: tuple[str, float] | None = None,
) -> None:
    xs = [x for c in curves for x, _ in c.points]
    ys = [y for c in curves for _, y in c.points]
    for c in curves:
        if c.err:
            ys.extend(y - e for (_, y), e in zip(c.points, c.err))
            ys.extend(y + e for (_, y), e in zip(c.points, c.err))
    if hline is not None:
        ys.append(hline[1])
    xlo, xhi = padded_range(min(xs), max(xs))
    ylo, yhi = padded_range(min(ys), max(ys))
    sx, sy = _scales(xlo, xhi, ylo, yhi)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">']
    _axes(parts, sx, sy, xlo, xhi, ylo, yhi, title, xlabel, ylabel)
    if hline is not None:
        label, y = hline
        parts.append(
            f'<line x1="{sx(xlo):.1f}" y1="{sy(y):.1f}" x2="{sx(xhi):.1f}" y2="{sy(y):.1f}" '
            'stroke="black" stroke-dasharray="2,6" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{sx(xlo) + 8:.1f}" y="{sy(y) - 6:.1f}" font-size="12">{label}</text>'
        )
    for ci, curve in enumerate(curves):
        color = PALETTE[ci % len(PALETTE)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in curve.points)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        if curve.err:
            for (x, y), e in zip(curve.points, curve.err):
                parts.append(
                    f'<line x1="{sx(x):.1f}" y1="{sy(y - e):.1f}" x2="{sx(x):.1f}" y2="{sy(y + e):.1f}" '
                    f'stroke="{color}" stroke-width="1.2"/>'
                )
        ly = MARGIN_T + 16 * ci + 10
        lx = WIDTH - MARGIN_R - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{curve.label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def write_scatter(
    path: str | Path,
    points: list[tuple[float, float]],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """(x, y) points on equal axes, with the y = x diagonal dashed."""
    xs = [x for x, _ in points] or [0.0]
    ys = [y for _, y in points] or [0.0]
    lo = min(min(xs), min(ys))
    hi = max(max(xs), max(ys))
    lo, hi = padded_range(lo, hi)
    sx, sy = _scales(lo, hi, lo, hi)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">']
    _axes(parts, sx, sy, lo, hi, lo, hi, title, xlabel, ylabel)
    parts.append(
        f'<line x1="{sx(lo):.1f}" y1="{sy(lo):.1f}" x2="{sx(hi):.1f}" y2="{sy(hi):.1f}" '
        'stroke="#999999" stroke-dasharray="4,4"/>'
    )
    for x, y in points:
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2" fill="#1f77b4" fill-opacity="0.5"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))
