import json

import pytest

from confluent_hasse.cli import EXIT_DIMENSION, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, run

K22_EDGES = "a c\na d\nb c\nb d\n"
S3_EDGES = "".join(
    f"a{i} b{j}\n" for i in (1, 2, 3) for j in (1, 2, 3) if i != j
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_k22_json_stats(tmp_path, capsys):
    src = write(tmp_path, "k22.edges", K22_EDGES)
    assert run([src, "--emit", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["junctions"] == 1
    assert doc["stats"]["gridSide"] == 9


def test_dimension_three_input_exits_2(tmp_path, capsys):
    src = write(tmp_path, "s3.edges", S3_EDGES)
    assert run([src]) == EXIT_DIMENSION
    err = capsys.readouterr().err
    assert "dimension" in err and "at most two" in err


def test_cyclic_edge_list_exits_1_with_one_error_line(tmp_path, capsys):
    src = write(tmp_path, "cycle.edges", "x y\nnode z\ny w\nw v\nv u\nu w\n")
    assert run([src]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: antisymmetry violated: 'w' and 'v'\n")


def test_sp_chain_svg(tmp_path, capsys):
    src = write(tmp_path, "chain.sp", "a;b;c\n")
    assert run([src, "--input-format", "sp"]) == EXIT_OK
    svg = capsys.readouterr().out
    assert svg.count("<text") == 3
    assert "junction" not in svg  # junction dots carry no marker anyway
    assert svg.count("<path") == 2


def test_realizer_input(tmp_path, capsys):
    src = write(tmp_path, "r.txt", "a b c d\nb a d c\n")
    assert run([src, "--input-format", "realizer", "--emit", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["junctions"] == 1


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(K22_EDGES))
    assert run(["-", "--emit", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["n"] == 4


def test_output_file(tmp_path):
    src = write(tmp_path, "k22.edges", K22_EDGES)
    out = tmp_path / "out.svg"
    assert run([src, "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith("<?xml")


def test_byte_identical_outputs(tmp_path):
    src = write(tmp_path, "k22.edges", K22_EDGES)
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run([src, "--out", str(out1)]) == EXIT_OK
    assert run([src, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    j1 = tmp_path / "a.json"
    j2 = tmp_path / "b.json"
    assert run([src, "--emit", "json", "--out", str(j1)]) == EXIT_OK
    assert run([src, "--emit", "json", "--out", str(j2)]) == EXIT_OK
    assert j1.read_bytes() == j2.read_bytes()


def test_malformed_edges_exit_1(tmp_path, capsys):
    src = write(tmp_path, "bad.edges", "a b c\n")
    assert run([src]) == EXIT_INPUT
    assert "error" in capsys.readouterr().err


def test_node_as_a_label_exits_1_with_its_line(tmp_path, capsys):
    # "node" is a keyword: this line must not read as a declaration of b
    src = write(tmp_path, "node.edges", "a node\nnode b\n")
    for flags in ([], ["--verify", "--emit", "json"]):
        assert run([src, *flags]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "",
            "error: line 1: 'node' is a keyword, not a label: 'a node'\n",
        )


def test_cycle_exit_1(tmp_path, capsys):
    src = write(tmp_path, "cyc.edges", "a b\nb a\n")
    assert run([src]) == EXIT_INPUT


def test_missing_file_exit_1(capsys):
    assert run(["/no/such/file.edges"]) == EXIT_INPUT


@pytest.mark.parametrize("bench", [False, True])
def test_unwritable_out_exit_1(tmp_path, capsys, bench):
    src = write(tmp_path, "k22.edges", K22_EDGES)
    # a missing directory, then a directory
    for out in (str(tmp_path / "no" / "such" / "dir" / "x.out"), str(tmp_path)):
        argv = ["--bench", "1", "--out", out] if bench else [src, "--out", out]
        assert run(argv) == EXIT_INPUT
        printed, err = capsys.readouterr()
        assert printed == ""
        assert err.startswith(f"error: cannot write {out!r}: ")
        assert err.count("\n") == 1


def test_unwritable_out_fails_before_the_benchmark(tmp_path, capsys, monkeypatch):
    from confluent_hasse import bench

    def never(*args, **kwargs):
        raise AssertionError("scaling_report ran for an unwritable --out")

    monkeypatch.setattr(bench, "scaling_report", never)
    out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    assert run(["--bench", "256", "--out", out]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: cannot write {out!r}: [Errno 2] No such file or directory: {out!r}\n"
    )


def test_unwritable_out_fails_before_the_input_is_read(tmp_path, capsys, monkeypatch):
    from confluent_hasse import cli

    def never(path):
        raise AssertionError("the input was read for an unwritable --out")

    monkeypatch.setattr(cli, "_read_input", never)
    out = str(tmp_path / "missing" / "x.svg")
    assert run(["in.edges", "--out", out]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: cannot write {out!r}: ")


def test_failed_run_creates_and_truncates_no_out_file(tmp_path, capsys):
    cases = [
        (S3_EDGES, [], EXIT_DIMENSION),
        ("a b c\n", [], EXIT_INPUT),
        ("a b\na b2\na2 b\na2 b2\na c\nc b\n", ["--verify", "--emit", "json"], EXIT_VERIFY),
    ]
    for i, (edges, flags, code) in enumerate(cases):
        src = write(tmp_path, f"in{i}.edges", edges)
        fresh = tmp_path / f"fresh{i}.svg"
        assert run([src, "--out", str(fresh), *flags]) == code
        assert not fresh.exists()
        kept = tmp_path / f"kept{i}.svg"
        kept.write_text("earlier output\n")
        assert run([src, "--out", str(kept), *flags]) == code
        assert kept.read_text() == "earlier output\n"
    capsys.readouterr()


@pytest.mark.parametrize("module", ["confluent_hasse", "confluent_hasse.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = write(tmp_path, "k22.edges", K22_EDGES)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", module, src, "--emit", "json"], env=env, capture_output=True
    )
    assert done.returncode == EXIT_OK, done.stderr.decode()
    assert json.loads(done.stdout)["stats"]["junctions"] == 1
    bad = subprocess.run([sys.executable, "-m", module, "--no-such-flag"], env=env, capture_output=True)
    assert bad.returncode == EXIT_INPUT
    assert bad.stderr.startswith(b"error: ")


def test_non_utf8_input_exit_1(tmp_path, capsys, monkeypatch):
    import io

    path = tmp_path / "utf16.edges"
    path.write_bytes(b"\xff\xfea\x00 \x00b\x00\n\x00")
    bad_stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", bad_stdin)
    for src in (str(path), "-"):
        assert run([src]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {src!r}: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("flags", [[], ["--emit", "json"], ["--out", "FILE"]])
def test_invalid_utf8_on_stdin_exit_1(tmp_path, capsys, monkeypatch, flags):
    # under the C locale Python reads stdin with surrogateescape, which
    # turns the byte 0xff into a lone surrogate instead of an error
    import io

    out = tmp_path / "out.svg"
    flags = [str(out) if flag == "FILE" else flag for flag in flags]
    stdin = io.TextIOWrapper(io.BytesIO(b"a \xff\n"), "utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(["-", *flags]) == EXIT_INPUT
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.startswith("error: cannot read '-': ") and err.count("\n") == 1
    assert not out.exists()


def test_invalid_utf8_on_stdin_under_the_c_locale(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, LC_ALL="C")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")) if p
    )
    for flags in ([], ["--emit", "json"], ["--out", str(tmp_path / "out.svg")]):
        done = subprocess.run(
            [sys.executable, "-m", "confluent_hasse", *flags],
            input=b"a \xff\n",
            env=env,
            capture_output=True,
        )
        assert done.returncode == EXIT_INPUT, flags
        assert done.stdout == b""
        lines = done.stderr.decode("utf-8", "replace").splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read '-': "), lines
        assert b"Traceback" not in done.stderr
    assert not (tmp_path / "out.svg").exists()


def test_bad_flag_exit_1(capsys):
    assert run(["--no-such-flag"]) == EXIT_INPUT


def test_bad_bezier_offset_exit_1(tmp_path, capsys):
    src = write(tmp_path, "k22.edges", K22_EDGES)
    assert run([src, "--bezier-offset", "1.5"]) == EXIT_INPUT


@pytest.mark.parametrize(
    "flags",
    [
        ["--bezier-offset=--"],
        ["--out=--"],
        ["--seed=--", "--bench", "1"],
        ["--emit=--"],
        ["--input-format=--"],
        ["--bench=--"],
    ],
    ids=lambda flags: flags[0],
)
def test_double_dash_as_a_flag_value_is_a_flag_error(tmp_path, capsys, flags):
    # argparse gives "--flag=--" an empty list without calling type= or
    # checking choices; each such flag must still fail like a bad value
    src = write(tmp_path, "k22.edges", K22_EDGES)
    assert run([src, *flags]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: argument " + flags[0].split("=")[0])
    assert err.count("\n") == 1


def test_bad_bezier_offset_is_a_flag_error(capsys):
    # rejected with the flags, before any input is read, for every output kind
    for emit in ("svg", "json"):
        assert run(["/no/such/file.edges", "--bezier-offset", "2", "--emit", emit]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "argument --bezier-offset" in err and "cannot read" not in err


def test_verify_passes_on_k22(tmp_path, capsys):
    src = write(tmp_path, "k22.edges", K22_EDGES)
    assert run([src, "--verify", "--emit", "json"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "PASS completion" in err


def test_sp_verify_passes_without_least_or_greatest(tmp_path, capsys):
    # the layout caps the diagonal with invisible bounds, so the points
    # match the completion's cuts
    for expr in ("(a|b);(c|d)", "a;(b|c)", "(a;b)|c"):
        src = write(tmp_path, "order.sp", expr + "\n")
        assert run([src, "--input-format", "sp", "--verify", "--emit", "json"]) == EXIT_OK, expr
        err = capsys.readouterr().err
        assert "PASS completion" in err and "FAIL" not in err, expr


def test_verify_flags_junction_chain_semantics(tmp_path, capsys):
    # the five-element order whose junction track also carries the
    # implied relation (a, b): the validator reports the smooth
    # mismatch and --verify exits 3
    edges = "a b\na b2\na2 b\na2 b2\na c\nc b\n"
    src = write(tmp_path, "p5.edges", edges)
    assert run([src, "--verify", "--emit", "json"]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "FAIL smooth" in err


def test_bench_mode(capsys):
    assert run(["--bench", "1,2", "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,junctions,segments")
    assert len(lines) == 5  # two sizes x two families


def test_bench_bad_sizes(capsys):
    assert run(["--bench", "1,x"]) == EXIT_INPUT


@pytest.mark.parametrize("flags", [["--bench", "0"], ["--bench", "1,0"], ["--bench=-3"]])
def test_bench_sizes_below_one_are_a_flag_error(capsys, flags):
    assert run(flags) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: argument --bench: ")
    assert err.count("\n") == 1


def test_empty_input_is_fine(tmp_path, capsys):
    src = write(tmp_path, "empty.edges", "# nothing here\n")
    assert run([src, "--emit", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 0
    assert doc["stats"]["gridSide"] == 1


def test_csv_stats_emission(tmp_path, capsys):
    src = write(tmp_path, "k22.edges", K22_EDGES)
    assert run([src, "--emit", "csv-stats"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "4" and row[1] == "1" and row[2] == "8"


def test_order_is_built_only_under_verify(tmp_path, capsys, monkeypatch):
    from confluent_hasse import cli

    def refuse(_):
        raise ValueError("the order was built")

    monkeypatch.setattr(cli, "sp_to_poset", refuse)
    monkeypatch.setattr(cli, "poset_from_realizer", refuse)
    sp = write(tmp_path, "k22.sp", "(a|b);(c|d)\n")
    rz = write(tmp_path, "k22.txt", "a b c d\nb a d c\n")
    assert run([sp, "--input-format", "sp"]) == EXIT_OK
    assert run([rz, "--input-format", "realizer", "--emit", "json"]) == EXIT_OK
    assert "error" not in capsys.readouterr().err
    assert run([sp, "--input-format", "sp", "--verify"]) == EXIT_INPUT
    assert run([rz, "--input-format", "realizer", "--verify"]) == EXIT_INPUT
    assert capsys.readouterr().err.count("error: the order was built") == 2


def test_running_out_of_memory_exits_1_and_writes_no_file(tmp_path, capsys, monkeypatch):
    from confluent_hasse import bench, cli, render

    def too_large(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 9.31 GiB for an array")

    def exhausted(*_args):
        raise MemoryError

    sp = write(tmp_path, "k22.sp", "(a|b);(c|d)\n")
    out = tmp_path / "out.svg"
    with monkeypatch.context() as m:
        m.setattr(cli, "sp_to_poset", too_large)
        assert run([sp, "--input-format", "sp", "--verify", "--out", str(out)]) == EXIT_INPUT
    with monkeypatch.context() as m:
        m.setattr(render, "to_svg", exhausted)
        assert run([sp, "--input-format", "sp", "--out", str(out)]) == EXIT_INPUT
    # reading the input, and the benchmark in place of a drawing
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_input", exhausted)
        assert run([sp, "--input-format", "sp", "--out", str(out)]) == EXIT_INPUT
    with monkeypatch.context() as m:
        m.setattr(bench, "scaling_report", too_large)
        assert run(["--bench", "8", "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 9.31 GiB for an array\n"
        "error: out of memory\n"
        "error: out of memory\n"
        "error: out of memory: Unable to allocate 9.31 GiB for an array\n"
    )
    assert run([sp, "--input-format", "sp", "--out", str(out)]) == EXIT_OK
    assert out.exists()


def test_running_out_of_memory_while_writing_exits_1(tmp_path, capsys, monkeypatch):
    import io

    from confluent_hasse import cli

    class Full(io.StringIO):
        def write(self, text):
            raise MemoryError

    def open_full(path, mode="r", **kwargs):
        return Full() if "w" in mode else open(path, mode, **kwargs)

    sp = write(tmp_path, "k22.sp", "(a|b);(c|d)\n")
    with monkeypatch.context() as m:
        m.setattr(cli, "open", open_full, raising=False)
        assert run([sp, "--input-format", "sp", "--out", str(tmp_path / "out.svg")]) == EXIT_INPUT
    with monkeypatch.context() as m:
        m.setattr("sys.stdout", Full())
        assert run([sp, "--input-format", "sp", "--emit", "json"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: out of memory\n" * 2


def test_a_write_that_fails_part_way_leaves_no_file(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    # a file size limit of 4,096 bytes, set in the child alone, stops
    # the SVG of 60 elements part-way with EFBIG
    labels = [f"v{i}" for i in range(60)]
    src = write(tmp_path, "r60.txt", f"{' '.join(labels)}\n{' '.join(reversed(labels))}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")) if p
    )
    main = (
        "import resource; resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)); "
        "from confluent_hasse.cli import main; main()"
    )
    fresh, kept = tmp_path / "fresh.svg", tmp_path / "kept.svg"
    kept.write_text("earlier output\n")
    for out in (fresh, kept):
        cmd = [sys.executable, "-c", main, src, "--input-format", "realizer", "--out", str(out)]
        done = subprocess.run(cmd, env=env, capture_output=True)
        assert done.returncode == EXIT_INPUT, done.stderr.decode()
        assert done.stderr.decode().startswith(f"error: cannot write {str(out)!r}: [Errno 27] ")
        assert done.stderr.count(b"\n") == 1
        assert not out.exists()


def test_a_write_that_fails_part_way_leaves_a_fifo(tmp_path, capsys):
    import os
    import stat
    import threading

    # the reader takes one buffer and goes: the rest of the SVG of 400
    # elements meets a closed pipe
    labels = [f"v{i}" for i in range(400)]
    src = write(tmp_path, "r400.txt", f"{' '.join(labels)}\n{' '.join(reversed(labels))}\n")
    fifo = tmp_path / "out.svg"
    os.mkfifo(fifo)

    def read_a_little():
        with open(fifo, "rb") as fh:
            fh.read(1)

    reader = threading.Thread(target=read_a_little)
    reader.start()
    try:
        assert run([src, "--input-format", "realizer", "--out", str(fifo)]) == EXIT_INPUT
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert capsys.readouterr().err.startswith(f"error: cannot write {str(fifo)!r}: [Errno 32] ")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_deeply_nested_sp_input(tmp_path, capsys):
    deep = "(" * 400 + "a" + ")" * 400
    assert run([write(tmp_path, "deep.sp", deep), "--input-format", "sp"]) == EXIT_OK
    assert capsys.readouterr().out.count("<text") == 1
    unclosed = "(" * 400 + "a" + ")" * 399
    assert run([write(tmp_path, "bad.sp", unclosed), "--input-format", "sp"]) == EXIT_INPUT
    assert "expected ')'" in capsys.readouterr().err


def test_verify_reports_skip_beyond_the_completion_oracle(tmp_path, capsys):
    chain = " ".join(f"e{i}" for i in range(21))
    src = write(tmp_path, "chain.txt", f"{chain}\n{chain}\n")
    assert run([src, "--input-format", "realizer", "--verify", "--emit", "json"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "SKIP completion: instance exceeds oracle size limit" in err
    assert "PASS" in err and "FAIL" not in err and "WARN" not in err


def test_stdout_gets_utf8_bytes_whatever_its_encoding(tmp_path):
    import os
    import random
    import subprocess
    import sys
    from pathlib import Path

    from confluent_hasse.render import CHUNK

    # a realizer of 400 elements, one with a non-ASCII label: its SVG
    # and JSON take several chunks
    labels = [f"v{i}" for i in range(399)] + ["é"]
    src = tmp_path / "accent.txt"
    src.write_bytes(f"{' '.join(labels)}\n{' '.join(random.Random(3).sample(labels, 400))}\n".encode())
    out = tmp_path / "accent.out"
    env = dict(os.environ, PYTHONIOENCODING="ascii")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")) if p
    )
    # a stopped clock, so the csv-stats milliseconds read the same in both runs
    main = "import time; time.perf_counter = lambda: 0.0; from confluent_hasse.cli import main; main()"
    for emit, accent in (("svg", "é"), ("json", "\\u00e9"), ("csv-stats", None)):
        cmd = [sys.executable, "-c", main, str(src), "--input-format", "realizer", "--emit", emit]
        to_stdout = subprocess.run(cmd + ["--out", "-"], env=env, capture_output=True)
        assert to_stdout.returncode == EXIT_OK, to_stdout.stderr.decode()
        assert to_stdout.stderr == b""
        assert subprocess.run(cmd + ["--out", str(out)], env=env).returncode == EXIT_OK
        assert to_stdout.stdout == out.read_bytes(), emit
        if accent is None:
            assert to_stdout.stdout.startswith(b"n,junctions,")
        else:
            assert to_stdout.stdout.count(b"\n") > 3 * CHUNK
            assert accent.encode("utf-8") in to_stdout.stdout


def test_stdout_without_a_byte_buffer_gets_the_text(tmp_path, monkeypatch):
    import io

    src = write(tmp_path, "k22.edges", K22_EDGES)
    out = tmp_path / "k22.svg"
    assert run([src, "--out", str(out)]) == EXIT_OK
    text_only = io.StringIO()
    monkeypatch.setattr("sys.stdout", text_only)
    assert run([src]) == EXIT_OK
    assert text_only.getvalue() == out.read_text(encoding="utf-8")


def test_sp_input_goes_through_parse_sp_and_sp_layout_once_each(tmp_path, capsys, monkeypatch):
    # the per-layer trace wraps cli.parse_sp and cli.sp_layout and counts
    # the leaves of parse_sp's result with sp_leaves
    from confluent_hasse import cli
    from confluent_hasse.sp import sp_leaves

    calls = []

    def recorded(name, fn):
        def wrapper(*args):
            result = fn(*args)
            calls.append((name, result))
            return result

        return wrapper

    monkeypatch.setattr(cli, "parse_sp", recorded("parse_sp", cli.parse_sp))
    monkeypatch.setattr(cli, "sp_layout", recorded("sp_layout", cli.sp_layout))
    src = write(tmp_path, "k22.sp", "(a|b);(c|d)\n")
    assert run([src, "--input-format", "sp"]) == EXIT_OK
    assert [name for name, _ in calls] == ["parse_sp", "sp_layout"]
    assert sp_leaves(calls[0][1]) == ["a", "b", "c", "d"]
    assert capsys.readouterr().out.count("<text") == 4


def test_readme_verify_example(tmp_path, capsys, monkeypatch):
    # README's --verify block: the command, its stderr lines, then the
    # exit code after "$ echo $?", run on gen_random(30, 0) as realizer text
    from pathlib import Path

    from confluent_hasse import gen_random

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### `--verify`", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0].splitlines()
    command, *stderr, echo, code = block
    assert command.startswith("$ confluent-hasse ") and echo == "$ echo $?"
    r = gen_random(30, 0)
    write(tmp_path, "random30.txt", " ".join(r.l1) + "\n" + " ".join(r.l2) + "\n")
    monkeypatch.chdir(tmp_path)
    assert run(command.split()[2:]) == int(code) == EXIT_VERIFY
    assert capsys.readouterr() == ("", "\n".join(stderr) + "\n")
    assert not (tmp_path / "out.json").exists()  # a failed check writes nothing
