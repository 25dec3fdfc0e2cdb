"""Command-line front end.

Exit codes: 0 success, 1 input, output or format problem (an
unreadable or non-UTF-8 input, an unwritable --out, a run that needs
more memory than there is, from reading to writing), 2 when the input
order has dimension greater than two (no upward confluent diagram
exists in that case), 3 when --verify finds a failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import stat
import sys
import time
from typing import Sequence

from . import bench, oracle, render
from .diagram import Diagram, validate_diagram
from .poset import Poset, parse_edge_list
from .realizer import DimensionExceedsTwo, parse_realizer, poset_from_realizer, realizer_of
from .sp import parse_sp, sp_layout, sp_to_poset

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIMENSION = 2
EXIT_VERIFY = 3


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep exit codes ours
        raise _ArgumentError(message)

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        # argparse gives "--flag=--" the value [] without calling the
        # flag's type or checking its choices; no flag here takes a list
        for name, value in vars(ns).items():
            if value == []:
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return ns


def _sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}"
        ) from None
    if any(size < 1 for size in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be at least 1, got {text!r}")
    return sizes


def _bezier_offset(text: str) -> float:
    try:
        return render.RenderOptions(bezier_offset=float(text)).bezier_offset
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="confluent-hasse",
        description=(
            "Draw a partial order of dimension at most two as an upward "
            "confluent Hasse diagram with the fewest possible junctions."
        ),
    )
    parser.add_argument("input", nargs="?", default="-", help="input file, or '-' for stdin")
    parser.add_argument(
        "--input-format",
        choices=("edges", "realizer", "sp"),
        default="edges",
        help="edge list 'u v' lines, a two-line realizer, or a series-parallel expression",
    )
    parser.add_argument(
        "--emit",
        choices=("svg", "json", "csv-stats"),
        default="svg",
        help="output kind (default svg)",
    )
    parser.add_argument("--out", default="-", help="output file, or '-' for stdout")
    parser.add_argument(
        "--bezier-offset",
        type=_bezier_offset,
        default=0.5,
        metavar="DELTA",
        help="vertical control-point offset at junctions, in rotated grid units (0 < DELTA < 1)",
    )
    parser.add_argument(
        "--show-invisible",
        action="store_true",
        help="also draw the invisible bound points and their tracks",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="validate the diagram (and, within oracle limits, completion equivalence)",
    )
    parser.add_argument(
        "--bench",
        type=_sizes,
        metavar="SIZES",
        help="comma-separated sizes: run the scaling benchmark instead of drawing",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized inputs")
    return parser


# built once: parsing keeps no state in the parser between calls
_PARSER = _build_parser()


def _read_input(path: str) -> str:
    if path == "-":
        # strict UTF-8 like a file; a stdin with no byte buffer gives its text
        buffer = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read() if buffer is None else str(buffer.read(), "utf-8")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cannot_write(path: str, exc: OSError) -> int:
    sys.stderr.write(f"error: cannot write {path!r}: {exc}\n")
    return EXIT_INPUT


def _check_writable(path: str) -> None:
    """Raise the OSError that opening path for writing would raise,
    where it shows before any write, without creating or truncating
    the file."""
    if path == "-":
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise
        if not os.access(parent, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path) from None
        return
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _out_of_memory(exc: MemoryError) -> int:
    detail = f": {exc}" if str(exc) else ""
    sys.stderr.write(f"error: out of memory{detail}\n")
    return EXIT_INPUT


def _write_output(path: str, chunks: list[str]) -> int:
    """Write the document, given as chunks, and return the exit code:
    1, with one error line, when the path cannot be written. The chunks
    are written in turn, so the document is never joined or encoded as
    one piece. A write or close that fails part-way removes the file it
    began, when that is a regular file; a FIFO or a device stays. A
    MemoryError goes on to the caller."""
    try:
        if path == "-":
            # UTF-8 bytes, as a file gets, whatever stdout's text encoding
            # is; a replaced stdout with no byte buffer takes the text
            buffer = getattr(sys.stdout, "buffer", None)
            if buffer is None:
                for chunk in chunks:
                    sys.stdout.write(chunk)
            else:
                sys.stdout.flush()
                for chunk in chunks:
                    buffer.write(chunk.encode("utf-8"))
                buffer.flush()
        else:
            regular = os.path.isfile(path) or not os.path.exists(path)
            fh = open(path, "w", encoding="utf-8")
            try:
                with fh:
                    fh.writelines(chunks)
            except BaseException:
                if regular:
                    with contextlib.suppress(OSError):
                        os.unlink(path)
                raise
    except OSError as exc:
        return _cannot_write(path, exc)
    return EXIT_OK


def _pipeline(
    text: str, fmt: str, verify: bool
) -> tuple[Diagram, Poset | None, dict[str, float]]:
    """The diagram, the input order when --verify reads it, and stage
    milliseconds. Only edge-list input needs the order to draw."""
    if fmt == "sp":
        tree = parse_sp(text)
        t0 = time.perf_counter()
        diagram = sp_layout(tree)
        ms = (time.perf_counter() - t0) * 1000.0
        return diagram, sp_to_poset(tree) if verify else None, {"phase1": ms, "total": ms}
    if fmt == "realizer":
        r = parse_realizer(text)
        p = poset_from_realizer(r) if verify else None
    else:
        p = parse_edge_list(text)
        r = realizer_of(p)
    diagram, times = bench.timed_pipeline(r)
    return diagram, p, times


def _run_verify(diagram: Diagram, p: Poset) -> bool:
    report = validate_diagram(diagram, p)
    try:
        report.add("completion", oracle.scene_matches_completion(diagram.scene, p))
    except oracle.TooLargeForOracle:
        report.skip("completion", "instance exceeds oracle size limit")
    sys.stderr.write(report.summary() + "\n")
    return report.ok


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _ArgumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT

    # an unwritable --out fails before the work. The file is opened only
    # once the whole document is in hand, so a run that fails before
    # that creates or truncates none, and a write that fails part-way
    # removes the regular file it began
    try:
        _check_writable(args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)

    # running out of memory anywhere, from reading to writing, ends like
    # any other input problem: one error line, exit 1 and no output file
    try:
        if args.bench is not None:
            return _write_output(args.out, [bench.scaling_report(list(args.bench), seed=args.seed)])

        try:
            text = _read_input(args.input)
        except (OSError, UnicodeDecodeError) as exc:
            sys.stderr.write(f"error: cannot read {args.input!r}: {exc}\n")
            return EXIT_INPUT

        try:
            diagram, p, times = _pipeline(text, args.input_format, args.verify)
        except DimensionExceedsTwo:
            sys.stderr.write(
                "error: this order has dimension greater than two; an upward "
                "confluent diagram exists if and only if the dimension is at most two\n"
            )
            return EXIT_DIMENSION
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_INPUT

        if args.verify and not _run_verify(diagram, p):
            return EXIT_VERIFY

        if args.emit == "svg":
            opts = render.RenderOptions(
                bezier_offset=args.bezier_offset, show_invisible=args.show_invisible
            )
            chunks = render.to_svg(diagram, opts)
        elif args.emit == "json":
            chunks = render.to_json(diagram)
        else:
            chunks = [bench.CSV_HEADER + "\n" + bench.csv_row(diagram, times) + "\n"]
        return _write_output(args.out, chunks)
    except MemoryError as exc:
        return _out_of_memory(exc)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
