"""Arc-diagram rendering: plain text and SVG.

Vertices sit on a baseline and every edge is an arc above it. Output is
deterministic for a fixed matching and options, so renders can be golden-filed.
"""

import sys
from bisect import bisect_right
from math import isfinite
from typing import Iterator, Optional

from .core import Matching, _digits, edges

__all__ = ["render", "render_text", "render_svg"]

# Paints an arc's run: blanks become dashes, the legs it passes stay.
_DASHES = bytes.maketrans(b" ", b"-")


def _text_lines(m: Matching, labels: bool) -> Iterator[str]:
    """The rows of the text diagram, top row first, each ending in a newline.

    An arc sits one row above every arc whose right endpoint lies strictly
    inside it: the arcs nested in it and those crossing it from the left.
    Visiting arcs by right endpoint, the tallest of those is read with one
    bisect from a stack of (right, height) whose heights fall as the rights
    rise. Row r paints the runs of the arcs at height r, then the legs of
    the taller arcs, then the labels at height r; a label too wide for the
    last columns runs past them.
    """
    stack_r: list[int] = []  # right endpoints, rising
    stack_h: list[int] = []  # their heights, falling
    height = [0] * (2 * m.n)  # by left endpoint
    for v, w in enumerate(m.partner):
        if w < v:
            i = bisect_right(stack_r, w)
            h = 1 + (stack_h[i] if i < len(stack_h) else 0)
            while stack_h and stack_h[-1] <= h:
                stack_r.pop()
                stack_h.pop()
            stack_r.append(v)
            stack_h.append(h)
            height[w] = h
    at_height: list[list] = [[] for _ in range(stack_h[0] + 1)]  # stack_h[0]: the tallest arc
    for e in edges(m):
        at_height[height[e.left]].append(e)
    legs = bytearray(b" " * (4 * m.n - 1))  # vertex v sits in column 2v
    for arcs in reversed(at_height[1:]):
        row = legs[:]
        for _, l, r in arcs:
            row[2 * l:2 * r + 1] = b"." + legs[2 * l + 1:2 * r].translate(_DASHES) + b"."
        if labels:
            for label, l, r in arcs:
                text = str(label).encode()
                mid = l + r - (len(text) - 1) // 2
                row[mid:mid + len(text)] = text
        yield row.rstrip().decode() + "\n"
        for _, l, r in arcs:
            legs[2 * l] = legs[2 * r] = ord("|")
    yield " ".join("*" * (2 * m.n)) + "\n"


def render_text(m: Matching, labels: bool = False) -> str:
    """ASCII arc diagram: '*' vertices, '.-' arc tops, '|' legs. O(n log n)
    for the arc heights plus the size of the output."""
    return "".join(_text_lines(m, labels))


def _fmt(x: float) -> str:
    return f"{x:g}"


def render_svg(m: Matching, labels: bool = False,
               width: Optional[int] = None,
               height: Optional[int] = None) -> str:
    """SVG arc diagram: circles on a baseline, semicircular arcs above; O(n).
    A width or height below 1, past the largest float, or so large that a
    coordinate would not be finite raises ValueError."""
    for setting, value in (("width", width), ("height", height)):
        if value is not None and value < 1:
            raise ValueError(f"{setting} must be a positive integer, got {_digits(value)}")
        if value is not None and value > sys.float_info.max:
            raise ValueError(f"{setting} is too large to draw: the largest is "
                             f"{sys.float_info.max:g}")
    es = edges(m)
    n2 = 2 * m.n
    margin = 20.0
    unit = 24.0
    if width is not None:
        unit = max((width - 2 * margin) / (n2 - 1), 1.0)
    max_radius = max((e.right - e.left) for e in es) * unit / 2
    label_room = 14.0 if labels else 0.0
    baseline = margin + label_room + max_radius
    total_w = width if width is not None else 2 * margin + (n2 - 1) * unit
    total_h = height if height is not None else baseline + margin

    def x(v: int) -> float:
        return margin + v * unit

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(total_w)}" '
        f'height="{_fmt(total_h)}" viewBox="0 0 {_fmt(total_w)} {_fmt(total_h)}">'
    ]
    parts.append(
        f'<line x1="{_fmt(x(0))}" y1="{_fmt(baseline)}" x2="{_fmt(x(n2 - 1))}" '
        f'y2="{_fmt(baseline)}" stroke="#999" stroke-width="1"/>'
    )
    for e in es:
        r = (e.right - e.left) * unit / 2
        parts.append(
            f'<path d="M {_fmt(x(e.left))} {_fmt(baseline)} '
            f'A {_fmt(r)} {_fmt(r)} 0 0 1 {_fmt(x(e.right))} {_fmt(baseline)}" '
            f'fill="none" stroke="black" stroke-width="1.5"/>'
        )
    for v in range(n2):
        parts.append(
            f'<circle cx="{_fmt(x(v))}" cy="{_fmt(baseline)}" r="3" fill="black"/>'
        )
    if labels:
        for e in es:
            cx = (x(e.left) + x(e.right)) / 2
            # Every other coordinate is at most the width or height; this sum
            # of two can overflow.
            if not isfinite(cx):
                raise ValueError("width is too large to draw with labels: "
                                 "a label's x coordinate is not finite")
            cy = baseline - (e.right - e.left) * unit / 2 - 4
            parts.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-size="12" '
                f'text-anchor="middle">{e.label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(m: Matching, format: str = "text", labels: bool = False,
           width: Optional[int] = None, height: Optional[int] = None) -> Iterator[str]:
    """Render ``m`` as ``format`` "text" or "svg", yielding text line by line
    at the cost of ``render_text``, or SVG whole in O(n); ``width`` and
    ``height`` apply to SVG only. An unknown format raises ValueError on the
    first ``next``."""
    if format == "text":
        yield from _text_lines(m, labels)
    elif format == "svg":
        yield render_svg(m, labels=labels, width=width, height=height)
    else:
        raise ValueError(f"unknown render format {format!r}; expected text or svg")
