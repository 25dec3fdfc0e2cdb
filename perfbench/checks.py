"""Independent checks of CLI outputs, written without the package's code.

JSON output: the dominance order on the vertices' ``grid`` coordinates
must equal the input order, and every segment must go up. SVG output:
one text label per input element. Both also count the drawn junctions.
``--verify`` reports on stderr are read into PASS / FAIL / SKIP per
check.
"""

from __future__ import annotations

import html
import json
import re

import numpy as np

from workloads import Item, order_matrix

_TEXT = re.compile(r"<text [^>]*>([^<]*)</text>")


def check_output(item: Item, data: bytes) -> tuple[str | None, int]:
    """(problem or None, junctions drawn) for one output file."""
    if item.emit == "json":
        return _check_json(item, data)
    return _check_svg(item, data.decode("utf-8"))


def _check_json(item: Item, data: bytes) -> tuple[str | None, int]:
    doc = json.loads(data)
    nodes = doc["nodes"]
    by_id = {node["id"]: node for node in nodes}
    junctions = sum(1 for node in nodes if node["kind"] == "junction")
    verts = {node["label"]: node["grid"] for node in nodes if node["kind"] == "vertex"}
    l1, l2 = item.realizer
    if sorted(verts) != sorted(l1):
        return "vertex labels differ from the input elements", junctions
    xy = np.array([verts[lab] for lab in l1], dtype=np.int64)
    drawn = (xy[:, None, 0] <= xy[None, :, 0]) & (xy[:, None, 1] <= xy[None, :, 1])
    if not np.array_equal(drawn, order_matrix(l1, l2)):
        return "vertex dominance order differs from the input order", junctions
    for seg in doc["segments"]:
        lo, hi = by_id[seg["from"]], by_id[seg["to"]]
        (x0, y0), (x1, y1) = lo["grid"], hi["grid"]
        if not (x0 <= x1 and y0 <= y1 and (x0, y0) != (x1, y1)):
            return f"segment {seg['from']}->{seg['to']} does not go up", junctions
    return None, junctions


def _check_svg(item: Item, text: str) -> tuple[str | None, int]:
    labels = [html.unescape(m) for m in _TEXT.findall(text)]
    junctions = sum(
        1
        for line in text.splitlines()
        if line.lstrip().startswith("<circle ") and line.rstrip().endswith('fill="#222222"/>')
    )
    if len(labels) != item.elements:
        return f"{len(labels)} labelled vertices for {item.elements} elements", junctions
    if sorted(labels) != sorted(item.labels):
        return "vertex labels differ from the input elements", junctions
    return None, junctions


def verify_lines(stderr: str) -> list[tuple[str, str]]:
    """(status, check name) for each check line of a --verify report.
    A check that says it was skipped counts as SKIP whatever status word
    it is printed with."""
    out = []
    for line in stderr.splitlines():
        head, _, rest = line.partition(" ")
        if head not in ("PASS", "FAIL", "SKIP", "WARN"):
            continue
        name = rest.split(":", 1)[0].split()[0] if rest.strip() else ""
        if head == "SKIP" or "skipped" in rest:
            out.append(("SKIP", name))
        elif head in ("PASS", "FAIL"):
            out.append((head, name))
    return out
