"""Hand-built SVG charts.

Byte-for-byte deterministic: floats are always written with two decimals,
attribute order is fixed, and nothing timestamps or randomizes the output.
"""

from __future__ import annotations

MARGIN_LEFT = 56
MARGIN_TOP = 34
MARGIN_BOTTOM = 42
MARGIN_RIGHT = 16
WIDTH = 720
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT

BAR_FILL = "#4878a8"
BAR_FILL_ALT = "#c46d4e"
AXIS_COLOR = "#444444"
TEXT_STYLE = 'font-family="monospace" font-size="11"'


def _escape(text: str) -> str:
    """XML character data, as `xml.sax.saxutils.escape` writes it.

    Kept here because importing `xml.sax.saxutils` loads `urllib.request`.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    # -0.00 and 0.00 must not differ between runs.
    out = f"{x:.2f}"
    return "0.00" if out == "-0.00" else out


def _header(height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{_escape(title)}</text>',
    ]


def render_histogram(
    values: list[float],
    labels: list[str],
    title: str,
) -> str:
    """Vertical bar chart, one bar per label."""
    if len(values) != len(labels):
        raise ValueError("values and labels must align")
    height = 320
    parts = _header(height, title)
    plot_h = height - MARGIN_TOP - MARGIN_BOTTOM
    top = max(values) if values and max(values) > 0 else 1.0
    n = max(1, len(values))
    slot = PLOT_W / n
    bar_w = slot * 0.8

    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" '
        f'x2="{MARGIN_LEFT + PLOT_W}" y2="{MARGIN_TOP + plot_h}" stroke="{AXIS_COLOR}"/>'
    )
    for i, (value, label) in enumerate(zip(values, labels)):
        h = plot_h * (value / top)
        x = MARGIN_LEFT + i * slot + slot * 0.1
        y = MARGIN_TOP + plot_h - h
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(h)}" fill="{BAR_FILL}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + bar_w / 2)}" y="{height - MARGIN_BOTTOM + 14}" '
            f'text-anchor="middle" {TEXT_STYLE}>{_escape(label)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT - 6}" y="{MARGIN_TOP + 4}" text-anchor="end" '
        f'{TEXT_STYLE}>{_fmt(top)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_heatmap(
    matrix: list[list[float]],
    row_labels: list[str],
    col_labels: list[str],
    title: str,
) -> str:
    """Grid heatmap; cell shade scales linearly with value / global max."""
    if len(matrix) != len(row_labels):
        raise ValueError("matrix rows and row_labels must align")
    for row in matrix:
        if len(row) != len(col_labels):
            raise ValueError("matrix columns and col_labels must align")
    height = 300
    parts = _header(height, title)
    plot_h = height - MARGIN_TOP - MARGIN_BOTTOM
    n_rows = max(1, len(matrix))
    n_cols = max(1, len(col_labels))
    cell_w = PLOT_W / n_cols
    cell_h = plot_h / n_rows
    top = max((v for row in matrix for v in row), default=0.0)
    if top <= 0:
        top = 1.0

    for r, row in enumerate(matrix):
        y = MARGIN_TOP + r * cell_h
        parts.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{_fmt(y + cell_h / 2 + 4)}" '
            f'text-anchor="end" {TEXT_STYLE}>{_escape(row_labels[r])}</text>'
        )
        for c, value in enumerate(row):
            x = MARGIN_LEFT + c * cell_w
            opacity = value / top
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w)}" '
                f'height="{_fmt(cell_h)}" fill="{BAR_FILL}" '
                f'fill-opacity="{_fmt(opacity)}" stroke="#dddddd" stroke-width="0.5"/>'
            )
    for c, label in enumerate(col_labels):
        x = MARGIN_LEFT + c * cell_w + cell_w / 2
        parts.append(
            f'<text x="{_fmt(x)}" y="{height - MARGIN_BOTTOM + 14}" '
            f'text-anchor="middle" {TEXT_STYLE}>{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_grouped_bars(
    groups: list[str],
    series: dict[str, list[float]],
    title: str,
) -> str:
    """Clustered bars: one cluster per group, one bar per series member."""
    for name, values in series.items():
        if len(values) != len(groups):
            raise ValueError(f"series {name!r} does not align with groups")
    height = 320
    parts = _header(height, title)
    plot_h = height - MARGIN_TOP - MARGIN_BOTTOM
    all_values = [v for values in series.values() for v in values]
    top = max(all_values) if all_values and max(all_values) > 0 else 1.0
    n_groups = max(1, len(groups))
    n_series = max(1, len(series))
    slot = PLOT_W / n_groups
    bar_w = slot * 0.8 / n_series
    palette = [BAR_FILL, BAR_FILL_ALT, "#5e9c76", "#8a6fae"]

    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" '
        f'x2="{MARGIN_LEFT + PLOT_W}" y2="{MARGIN_TOP + plot_h}" stroke="{AXIS_COLOR}"/>'
    )
    for s, (name, values) in enumerate(series.items()):
        color = palette[s % len(palette)]
        for g, value in enumerate(values):
            h = plot_h * (value / top)
            x = MARGIN_LEFT + g * slot + slot * 0.1 + s * bar_w
            y = MARGIN_TOP + plot_h - h
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(h)}" fill="{color}"/>'
            )
        legend_x = MARGIN_LEFT + PLOT_W - 120
        legend_y = MARGIN_TOP + 14 * s
        parts.append(
            f'<rect x="{legend_x}" y="{legend_y}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 14}" y="{legend_y + 9}" {TEXT_STYLE}>{_escape(name)}</text>'
        )
    for g, label in enumerate(groups):
        x = MARGIN_LEFT + g * slot + slot / 2
        parts.append(
            f'<text x="{_fmt(x)}" y="{height - MARGIN_BOTTOM + 14}" '
            f'text-anchor="middle" {TEXT_STYLE}>{_escape(label)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT - 6}" y="{MARGIN_TOP + 4}" text-anchor="end" '
        f'{TEXT_STYLE}>{_fmt(top)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
