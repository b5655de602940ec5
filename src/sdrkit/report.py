"""Report tables (CSV + JSON bundle) and hand-rolled SVG plots.

Outputs are deterministic: stable row order, ``repr``-based float formatting,
and no timestamps, so a rerun from the same fit artifacts is byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .core import SdrkitError, TRAIT_LABELS, write_csv_rows
from .metrics import EffectSummary


class ReportError(SdrkitError):
    pass


def write_effect_table(summaries: Sequence[EffectSummary], path: str | Path) -> None:
    """Per-(format, trait) effect and recovery table."""
    if not summaries:
        raise ReportError("no effect summaries to report")
    write_csv_rows(
        path,
        ["format", "trait", "d_z", "d_tilde", "faking_zone", "recovery_r", "recovery_zone"],
        (
            [s.format, t, repr(s.d_z[t]), repr(s.d_tilde[t]), s.faking_zones[t],
             repr(s.recovery_r[t]), s.recovery_zones[t]]
            for s in summaries
            for t in TRAIT_LABELS
        ),
    )


def write_tradeoff_table(summaries: Sequence[EffectSummary], path: str | Path) -> None:
    """Per-format aggregate SDR vs recovery table for the trade-off plot."""
    if not summaries:
        raise ReportError("no effect summaries to report")
    write_csv_rows(
        path,
        ["format", "aggregate_d_tilde", "aggregate_recovery", "faking_zone", "recovery_zone"],
        (
            [s.format, repr(s.aggregate_d_tilde), repr(s.aggregate_recovery),
             s.overall_faking_zone, s.overall_recovery_zone]
            for s in summaries
        ),
    )


def write_report_bundle(
    summaries: Sequence[EffectSummary],
    path: str | Path,
    sources: dict[str, str] | None = None,
) -> None:
    """JSON bundle of every reported number plus provenance metadata."""
    if not summaries:
        raise ReportError("no effect summaries to report")
    payload = {
        "metadata": {
            "aggregation": "unweighted-mean-over-traits",
            "zone_thresholds": {"faking": [0.2, 0.5], "recovery": [0.50, 0.70]},
            "sources": sources or {},
        },
        "formats": [
            {
                "format": s.format,
                "d_z": s.d_z,
                "d_tilde": s.d_tilde,
                "recovery_r": s.recovery_r,
                "faking_zones": s.faking_zones,
                "recovery_zones": s.recovery_zones,
                "aggregate_d_tilde": s.aggregate_d_tilde,
                "aggregate_recovery": s.aggregate_recovery,
                "overall_faking_zone": s.overall_faking_zone,
                "overall_recovery_zone": s.overall_recovery_zone,
            }
            for s in summaries
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------


def _diverging_color(value: float, vmax: float) -> str:
    """Blue (negative) to white (zero) to red (positive)."""
    if vmax <= 0:
        vmax = 1.0
    x = max(-1.0, min(1.0, value / vmax))
    if x >= 0:
        r, g, b = 255, int(255 * (1 - x)), int(255 * (1 - x))
    else:
        r, g, b = int(255 * (1 + x)), int(255 * (1 + x)), 255
    return f"rgb({r},{g},{b})"


def render_heatmap_svg(summaries: Sequence[EffectSummary]) -> str:
    """Direction-corrected effect per (format, trait) as a colored grid."""
    if not summaries:
        raise ReportError("no effect summaries to plot")
    cell_w, cell_h, left, top = 90, 44, 110, 50
    rows = list(summaries)
    width = left + cell_w * len(TRAIT_LABELS) + 20
    height = top + cell_h * len(rows) + 20
    vmax = max(abs(v) for s in rows for v in s.d_tilde.values()) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for c, t in enumerate(TRAIT_LABELS):
        x = left + c * cell_w + cell_w / 2
        parts.append(f'<text x="{x}" y="{top - 12}" text-anchor="middle">{t}</text>')
    for r, s in enumerate(rows):
        y0 = top + r * cell_h
        parts.append(
            f'<text x="{left - 10}" y="{y0 + cell_h / 2 + 4}" text-anchor="end">{s.format}</text>'
        )
        for c, t in enumerate(TRAIT_LABELS):
            v = s.d_tilde[t]
            x0 = left + c * cell_w
            parts.append(
                f'<rect x="{x0}" y="{y0}" width="{cell_w}" height="{cell_h}" '
                f'fill="{_diverging_color(v, vmax)}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{x0 + cell_w / 2}" y="{y0 + cell_h / 2 + 4}" '
                f'text-anchor="middle">{v:.2f}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def render_tradeoff_svg(summaries: Sequence[EffectSummary]) -> str:
    """Aggregate SDR shift vs mean recovery with the usage-zone bands.

    Horizontal bands mark |shift| thresholds 0.2 and 0.5; vertical bands mark
    recovery thresholds 0.50 and 0.70. Points for the same respondent model
    are connected by a grey segment.
    """
    if not summaries:
        raise ReportError("no effect summaries to plot")
    width, height = 560, 420
    left, right, top, bottom = 70, 20, 20, 50
    pw, ph = width - left - right, height - top - bottom
    ymax = max(1.0, max(abs(s.aggregate_d_tilde) for s in summaries) * 1.2)

    def sx(r: float) -> float:
        return left + (max(0.0, min(1.0, r))) * pw

    def sy(d: float) -> float:
        return top + (1 - max(0.0, min(1.0, abs(d) / ymax))) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # recovery zone bands (vertical) and faking zone bands (horizontal)
    for x0, x1, color in (
        (0.0, 0.50, "#fde8e8"),
        (0.50, 0.70, "#fdf6e3"),
        (0.70, 1.0, "#e8f5e9"),
    ):
        parts.append(
            f'<rect x="{sx(x0)}" y="{top}" width="{sx(x1) - sx(x0)}" height="{ph}" '
            f'fill="{color}" opacity="0.6"/>'
        )
    for d in (0.2, 0.5):
        if d <= ymax:
            parts.append(
                f'<line x1="{left}" y1="{sy(d)}" x2="{left + pw}" y2="{sy(d)}" '
                f'stroke="#888" stroke-dasharray="5,4"/>'
            )
            parts.append(
                f'<text x="{left + pw - 4}" y="{sy(d) - 4}" text-anchor="end" '
                f'fill="#666">|shift| = {d}</text>'
            )
    # axes
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" stroke="black"/>'
    )
    for r in (0.0, 0.25, 0.50, 0.70, 1.0):
        parts.append(
            f'<text x="{sx(r)}" y="{top + ph + 18}" text-anchor="middle">{r:.2f}</text>'
        )
    parts.append(
        f'<text x="{left + pw / 2}" y="{height - 10}" text-anchor="middle">'
        "mean recovery r (honest)</text>"
    )
    parts.append(
        f'<text x="18" y="{top + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {top + ph / 2})">|aggregate directed shift|</text>'
    )
    # connect formats of the same respondent, then draw points
    pts = [(s, sx(s.aggregate_recovery), sy(s.aggregate_d_tilde)) for s in summaries]
    if len(pts) > 1:
        for (_, x0, y0), (_, x1, y1) in zip(pts, pts[1:]):
            parts.append(
                f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#999"/>'
            )
    for s, x, y in pts:
        parts.append(f'<circle cx="{x}" cy="{y}" r="6" fill="#1f4e9c"/>')
        parts.append(f'<text x="{x + 10}" y="{y + 4}">{s.format}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_plots(summaries: Sequence[EffectSummary], out_dir: str | Path) -> list[Path]:
    if not summaries:
        raise ReportError("no effect summaries to plot")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    heat = out / "shift_heatmap.svg"
    scatter = out / "tradeoff_scatter.svg"
    heat.write_text(render_heatmap_svg(summaries), encoding="utf-8")
    scatter.write_text(render_tradeoff_svg(summaries), encoding="utf-8")
    return [heat, scatter]
