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


def _frame(height: int, title: str) -> tuple[list[str], int]:
    """A chart's opening elements, and the height of its plot area."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{_escape(title)}</text>',
    ], height - MARGIN_TOP - MARGIN_BOTTOM


def _svg(parts: list[str]) -> str:
    return "\n".join(parts) + "\n</svg>\n"


def _top(values) -> float:
    """The top of a bar chart's scale: its largest value, or 1.0 when that is not positive."""
    top = max(values, default=0.0)
    return top if top > 0 else 1.0


def _baseline(plot_h: int) -> str:
    return (
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" '
        f'x2="{MARGIN_LEFT + PLOT_W}" y2="{MARGIN_TOP + plot_h}" stroke="{AXIS_COLOR}"/>'
    )


def _tick_label(x: float, height: int, label: str) -> str:
    """A label centred at `x` below the plot area."""
    return (
        f'<text x="{_fmt(x)}" y="{height - MARGIN_BOTTOM + 14}" '
        f'text-anchor="middle" {TEXT_STYLE}>{_escape(label)}</text>'
    )


def _left_label(y: int | str, text: str) -> str:
    """`text`, already escaped, right-aligned against the plot area at height `y`."""
    return f'<text x="{MARGIN_LEFT - 6}" y="{y}" text-anchor="end" {TEXT_STYLE}>{text}</text>'


def render_histogram(
    values: list[float],
    labels: list[str],
    title: str,
) -> str:
    """Vertical bar chart, one bar per label."""
    if len(values) != len(labels):
        raise ValueError("values and labels must align")
    height = 320
    parts, plot_h = _frame(height, title)
    top = _top(values)
    n = max(1, len(values))
    slot = PLOT_W / n
    bar_w = slot * 0.8

    parts.append(_baseline(plot_h))
    for i, (value, label) in enumerate(zip(values, labels)):
        h = plot_h * (value / top)
        x = MARGIN_LEFT + i * slot + slot * 0.1
        y = MARGIN_TOP + plot_h - h
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(h)}" fill="{BAR_FILL}"/>'
        )
        parts.append(_tick_label(x + bar_w / 2, height, label))
    parts.append(_left_label(MARGIN_TOP + 4, _fmt(top)))
    return _svg(parts)


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
    parts, plot_h = _frame(height, title)
    n_rows = max(1, len(matrix))
    n_cols = max(1, len(col_labels))
    cell_w = PLOT_W / n_cols
    cell_h = plot_h / n_rows
    top = max((v for row in matrix for v in row), default=0.0)
    if top <= 0:  # not `_top`: a NaN top stays NaN here
        top = 1.0

    for r, row in enumerate(matrix):
        y = MARGIN_TOP + r * cell_h
        parts.append(_left_label(_fmt(y + cell_h / 2 + 4), _escape(row_labels[r])))
        for c, value in enumerate(row):
            x = MARGIN_LEFT + c * cell_w
            opacity = value / top
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell_w)}" '
                f'height="{_fmt(cell_h)}" fill="{BAR_FILL}" '
                f'fill-opacity="{_fmt(opacity)}" stroke="#dddddd" stroke-width="0.5"/>'
            )
    for c, label in enumerate(col_labels):
        parts.append(_tick_label(MARGIN_LEFT + c * cell_w + cell_w / 2, height, label))
    return _svg(parts)


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
    parts, plot_h = _frame(height, title)
    top = _top([v for values in series.values() for v in values])
    n_groups = max(1, len(groups))
    n_series = max(1, len(series))
    slot = PLOT_W / n_groups
    bar_w = slot * 0.8 / n_series
    palette = [BAR_FILL, BAR_FILL_ALT, "#5e9c76", "#8a6fae"]

    parts.append(_baseline(plot_h))
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
        parts.append(_tick_label(MARGIN_LEFT + g * slot + slot / 2, height, label))
    parts.append(_left_label(MARGIN_TOP + 4, _fmt(top)))
    return _svg(parts)
