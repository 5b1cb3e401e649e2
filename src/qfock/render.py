"""Arc diagrams for pair/singleton partitions, in ASCII and SVG.

Layout is the usual one: points 1..n on a horizontal line, an arc over each
pair, a tick at each singleton.  When the partition carries a nonempty right
block the baseline shows the split position, and the caption reports the
insertion statistic alongside the plain crossing count.  Every choice below
(spacing, glyphs, arc heights) is fixed so that output is byte-stable.

ASCII arcs are rectangular hooks; shorter spans sit lower, so nesting reads
off the picture, and each pair-pair crossing shows up as exactly one ``+``
where a vertical cuts a horizontal.  SVG arcs are semicircles, radius half
the span, which gives the same containment behaviour.
"""

from __future__ import annotations

from .combinatorics import PartialPartition, crossings, iota_prime

ASCII_UNIT = 4
SVG_UNIT = 40
SVG_MARGIN = 30


def caption(rho: PartialPartition) -> str:
    """Statistics line under a diagram.

    >>> caption(PartialPartition(8, 0, ((2, 5), (4, 7))))
    'iota = 3'
    >>> caption(PartialPartition(8, 4, ((1, 6), (2, 5))))
    "iota' = 6, iota = 4"
    """
    plain = f"iota = {crossings(rho)}"
    if rho.k > 0 and rho.respects_block():
        return f"iota' = {iota_prime(rho)}, " + plain
    return plain


def _arc_heights(pairs: tuple) -> dict:
    # shortest spans lowest, first fit above; nested arcs land strictly
    # inside their parents and overlapping spans never share a row
    order = sorted(pairs, key=lambda p: (p[1] - p[0], p[0]))
    rows: dict = {}
    heights = {}
    for l, r in order:
        h = 1
        while any(a <= r and l <= b for a, b in rows.get(h, ())):
            h += 1
        rows.setdefault(h, []).append((l, r))
        heights[(l, r)] = h
    return heights


def ascii_diagram(rho: PartialPartition) -> str:
    n = rho.n
    col = lambda i: (i - 1) * ASCII_UNIT
    width = col(n) + len(str(n))
    heights = _arc_heights(rho.pairs)
    top = max(heights.values(), default=0)
    grid = [[" "] * width for _ in range(top)]

    # paint low arcs first so a later vertical meeting a dash reads as +
    for l, r in sorted(rho.pairs, key=lambda p: heights[p]):
        h = heights[(l, r)]
        row = grid[h - 1]
        row[col(l)] = "."
        row[col(r)] = "."
        for c in range(col(l) + 1, col(r)):
            row[c] = "-"
        for lower in range(1, h):
            for c in (col(l), col(r)):
                grid[lower - 1][c] = "+" if grid[lower - 1][c] == "-" else "|"

    paired = {x for p in rho.pairs for x in p}
    base = ["-"] * (col(n) + 1) + [" "] * (width - col(n) - 1)
    for i in range(1, n + 1):
        base[col(i)] = "o" if i in paired else "'"
    if 0 < rho.k < n:
        base[col(n - rho.k) + ASCII_UNIT // 2] = ":"

    labels = [" "] * width
    for i in range(1, n + 1):
        for off, ch in enumerate(str(i)):
            labels[col(i) + off] = ch

    lines = ["".join(row).rstrip() for row in reversed(grid)]
    lines.append("".join(base).rstrip())
    lines.append("".join(labels).rstrip())
    lines.append("")
    lines.append(caption(rho))
    return "\n".join(lines) + "\n"


def svg_diagram(rho: PartialPartition) -> str:
    n = rho.n
    xs = {i: SVG_MARGIN + (i - 1) * SVG_UNIT for i in range(1, n + 1)}
    max_r = max(((r - l) * SVG_UNIT // 2 for l, r in rho.pairs), default=SVG_UNIT // 2)
    base_y = SVG_MARGIN + max_r
    width = 2 * SVG_MARGIN + (n - 1) * SVG_UNIT
    height = base_y + 70

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{xs[1]}" y1="{base_y}" x2="{xs[n]}" y2="{base_y}" '
        'stroke="black" stroke-width="1"/>',
    ]
    if 0 < rho.k < n:
        sep = (xs[n - rho.k] + xs[n - rho.k + 1]) // 2
        parts.append(
            f'<line x1="{sep}" y1="{base_y - max_r - 10}" x2="{sep}" y2="{base_y + 10}" '
            'stroke="black" stroke-width="1" stroke-dasharray="4 4"/>'
        )
    paired = {x for p in rho.pairs for x in p}
    for l, r in rho.pairs:
        radius = (r - l) * SVG_UNIT // 2
        parts.append(
            f'<path d="M {xs[l]} {base_y} A {radius} {radius} 0 0 1 {xs[r]} {base_y}" '
            'fill="none" stroke="black" stroke-width="1"/>'
        )
    for i in range(1, n + 1):
        if i in paired:
            parts.append(f'<circle cx="{xs[i]}" cy="{base_y}" r="3" fill="black"/>')
        else:
            parts.append(
                f'<line x1="{xs[i]}" y1="{base_y - 6}" x2="{xs[i]}" y2="{base_y + 6}" '
                'stroke="black" stroke-width="1"/>'
            )
    for i in range(1, n + 1):
        parts.append(
            f'<text x="{xs[i]}" y="{base_y + 24}" text-anchor="middle" '
            f'font-family="monospace" font-size="12">{i}</text>'
        )
    parts.append(
        f'<text x="{width // 2}" y="{base_y + 48}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{caption(rho)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
