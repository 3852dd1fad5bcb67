"""Minimal deterministic SVG writer for phase portraits.

Byte-identical output for identical inputs: fixed float formatting, fixed
element order, no timestamps or library version strings.
"""
from __future__ import annotations

import numpy as np


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


class SvgCanvas:
    def __init__(self, width: int, height: int, window):
        self.width = width
        self.height = height
        (self.x0, self.y0), (self.x1, self.y1) = window
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]

    def to_px(self, x: float, y: float) -> tuple:
        px = (x - self.x0) / (self.x1 - self.x0) * self.width
        py = self.height - (y - self.y0) / (self.y1 - self.y0) * self.height
        return px, py

    def polyline(self, xs, ys, color: str = "#3465a4", width: float = 1.0,
                 closed: bool = False):
        # to_px on whole arrays runs the IEEE operations of the scalar path,
        # so every point gets the same bits; overflow and inf - inf give inf
        # and nan silently, as they do in Python floats
        with np.errstate(over="ignore", invalid="ignore"):
            px, py = self.to_px(np.asarray(xs, dtype=float),
                                np.asarray(ys, dtype=float))
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}"
                       for a, b in zip(px.tolist(), py.tolist()))
        tag = "polygon" if closed else "polyline"
        self.parts.append(f'<{tag} points="{pts}" fill="none" '
                          f'stroke="{color}" stroke-width="{_fmt(width)}"/>')

    def circle(self, x: float, y: float, r_px: float, color: str):
        px, py = self.to_px(x, y)
        self.parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" '
                          f'r="{_fmt(r_px)}" fill="{color}" stroke="black" '
                          f'stroke-width="0.5"/>')

    def arrow(self, x: float, y: float, dx: float, dy: float,
              color: str = "#3465a4"):
        """Arrowhead at (x, y) pointing along (dx, dy) in data coordinates."""
        px, py = self.to_px(x, y)
        qx, qy = self.to_px(x + dx, y + dy)
        vx, vy = qx - px, qy - py
        n = (vx * vx + vy * vy) ** 0.5
        if n == 0:
            return
        vx, vy = vx / n, vy / n
        wx, wy = -vy, vx
        s = 6.0    # the arrowhead's length in px
        p1 = (px - s * vx + 0.5 * s * wx, py - s * vy + 0.5 * s * wy)
        p2 = (px - s * vx - 0.5 * s * wx, py - s * vy - 0.5 * s * wy)
        self.parts.append(
            f'<polygon points="{_fmt(px)},{_fmt(py)} {_fmt(p1[0])},{_fmt(p1[1])} '
            f'{_fmt(p2[0])},{_fmt(p2[1])}" fill="{color}" stroke="none"/>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"
