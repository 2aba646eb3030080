"""Flat-file report emission: RFC-4180 CSV, JSONL paths, SVG overlays,
Markdown pass/fail summaries.  All writers are deterministic: floats go
out via repr (shortest round-trip), rows arrive pre-ordered."""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .errors import IoFailure
from .sampler import total_length


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "nan" if math.isnan(value) else repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str, header, rows) -> None:
    """RFC-4180 CSV (CRLF, minimal quoting), UTF-8."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def convergence_csv(path: str, rows) -> None:
    write_csv(path, ["n1", "statistic", "empirical", "theoretical", "ratio", "stderr"],
              [(r.n1, r.statistic, r.empirical, r.theoretical, r.ratio, r.stderr)
               for r in rows])


def write_lines_jsonl(path: str, records) -> None:
    """One JSON object per line; keys sorted for byte determinism."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def line_record(line, n1: int, replicate: int) -> dict:
    return {
        "replicate": replicate,
        "n1": n1,
        "vertices": line.vertices.tolist(),
        "endpoint": line.endpoint.tolist(),
        "length": total_length(line),
    }


def write_svg(path: str, polylines, size: int = 640, margin: int = 24) -> None:
    """SVG 1.1 overlay; one <path> per polyline, first one emphasized."""
    try:
        pts = [np.asarray(p, dtype=float) for p in polylines if len(p)]
        if not pts:
            raise IoFailure("no polylines to draw")
        allp = np.vstack(pts)
        lo = allp.min(axis=0)
        hi = allp.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        scale = (size - 2 * margin) / span.max()

        def path_d(p):
            cmds = []
            for i, (x, y) in enumerate(p):
                sx = margin + (x - lo[0]) * scale
                sy = size - margin - (y - lo[1]) * scale
                cmds.append(f"{'M' if i == 0 else 'L'} {sx:.3f} {sy:.3f}")
            return " ".join(cmds)

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                     f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">\n')
            for i, p in enumerate(pts):
                stroke = "#d62728" if i == 0 else "#1f77b4"
                width = 2.0 if i == 0 else 0.8
                fh.write(f'  <path d="{path_d(p)}" fill="none" stroke="{stroke}" '
                         f'stroke-width="{width}" opacity="{1.0 if i == 0 else 0.7}"/>\n')
            fh.write("</svg>\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def write_markdown_summary(path: str, title: str, checks) -> bool:
    """Pass/fail table; checks are (name, passed, detail) triples.
    Returns overall pass."""
    ok = all(passed for _, passed, _ in checks) if checks else True
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {title}\n\n")
            fh.write(f"Overall: {'PASS' if ok else 'FAIL'}\n\n")
            fh.write("| check | status | detail |\n|---|---|---|\n")
            for name, passed, detail in checks:
                fh.write(f"| {name} | {'PASS' if passed else 'FAIL'} | {detail} |\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return ok
