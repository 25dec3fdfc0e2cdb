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
