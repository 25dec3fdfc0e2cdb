#!/usr/bin/env python3
"""Render a small gallery of example diagrams to SVG files.

    python scripts/render_gallery.py --out-dir gallery
"""

from __future__ import annotations

import argparse
from pathlib import Path

from confluent_hasse import (
    Realizer,
    RenderOptions,
    build_diagram,
    gen_random,
    gen_worstcase,
    parse_sp,
    sp_layout,
    to_svg,
)

EXAMPLES = {
    "k22": lambda: build_diagram(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c"))),
    "chain5": lambda: build_diagram(Realizer(tuple("abcde"), tuple("abcde"))),
    "random30": lambda: build_diagram(gen_random(30, 11)),
    "worstcase3": lambda: build_diagram(gen_worstcase(3)),
    "sp_nested": lambda: sp_layout(parse_sp("((a|b);(c|d));((e|f);g)")),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="gallery")
    parser.add_argument("--show-invisible", action="store_true")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    opts = RenderOptions(show_invisible=args.show_invisible)
    for name, make in EXAMPLES.items():
        path = out_dir / f"{name}.svg"
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(to_svg(make(), opts))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
