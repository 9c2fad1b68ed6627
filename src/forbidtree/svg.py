"""SVG rendering of point sets, embeddings and forbidden edge sets.

Rendering is a pure view: it never recomputes or alters verdicts. Tree
edges are solid, forbidden edges dashed, the hull outline faint.
"""
from __future__ import annotations

from .embedding import Embedding
from .geometry import EdgeSet, PointSet, convex_hull

CANVAS = 1000
MARGIN = 60


def _scaler(s: PointSet):
    xs, ys = zip(*s.xy)
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1)
    scale = (CANVAS - 2 * MARGIN) / span

    def to_canvas(p):
        x = MARGIN + (p.x - lo_x) * scale
        # SVG y grows downward
        y = CANVAS - MARGIN - (p.y - lo_y) * scale
        return round(x, 2), round(y, 2)

    return to_canvas


def render_svg(
    s: PointSet,
    embedding: Embedding | None = None,
    forbidden: EdgeSet | None = None,
) -> str:
    at = _scaler(s)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>',
    ]
    if len(s) >= 3:
        hull = convex_hull(s)
        pts = " ".join("%s,%s" % at(s[i]) for i in hull)
        parts.append(
            f'<polygon points="{pts}" fill="none" stroke="#dddddd" stroke-width="1"/>'
        )
    if forbidden is not None:
        for e in forbidden:
            x1, y1 = at(s[e.a])
            x2, y2 = at(s[e.b])
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="#cc3333" stroke-width="2" stroke-dasharray="8 6"/>'
            )
    if embedding is not None:
        for a, b in embedding.segment_pairs:
            x1, y1 = at(s[a])
            x2, y2 = at(s[b])
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="#222222" stroke-width="2"/>'
            )
    for i in range(len(s)):
        x, y = at(s[i])
        parts.append(f'<circle cx="{x}" cy="{y}" r="6" fill="#4682b4"/>')
        parts.append(
            f'<text x="{x + 9}" y="{y - 9}" font-size="22" fill="#333333">{i}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
