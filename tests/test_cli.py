"""End-to-end command line runs, in process, checking files and exit codes."""

import io
import json

import pytest

from planar_oracle import cli
from planar_oracle.baseline import distance_avoiding
from planar_oracle.generate import generate_grid
from planar_oracle.graph import load_graph
from planar_oracle.oraclefile import load_oracle, save_oracle
from planar_oracle.tradeoff_oracle import TradeoffOracle


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.pgr"
    rc = cli.main(
        [
            "gen", "--kind", "grid", "--rows", "6", "--cols", "6",
            "--max-weight", "9", "--seed", "3", "--out", str(path),
        ]
    )
    assert rc == cli.EXIT_OK
    return path


def test_gen_writes_loadable_graph(graph_file):
    g = load_graph(graph_file)
    assert g.n == 36
    assert g == generate_grid(6, 6, max_weight=9, seed=3)


def test_gen_tri(tmp_path):
    path = tmp_path / "t.pgr"
    rc = cli.main(["gen", "--kind", "tri", "--n", "30", "--out", str(path)])
    assert rc == cli.EXIT_OK
    assert load_graph(path).n == 30


def test_gen_needs_sizes(tmp_path):
    rc = cli.main(["gen", "--kind", "tri", "--out", str(tmp_path / "x.pgr")])
    assert rc == cli.EXIT_INVALID


def test_gen_grid_rejects_n_below_four(tmp_path, capsys):
    # --n below 4 used to write a 2x2 grid and exit 0 (or fail inside isqrt)
    path = tmp_path / "g.pgr"
    for n in (-5, 0, 3):
        rc = cli.main(["gen", "--kind", "grid", "--n", str(n), "--out", str(path)])
        assert rc == cli.EXIT_INVALID
        assert f"n={n}" in capsys.readouterr().err
        assert not path.exists()
    assert cli.main(["gen", "--kind", "grid", "--n", "4", "--out", str(path)]) == cli.EXIT_OK
    assert load_graph(path).n == 4


def test_build_query_verify(tmp_path, graph_file, capsys):
    oracle_path = tmp_path / "o.bin"
    rc = cli.main(
        [
            "build", str(graph_file), "--mode", "failure",
            "--leaf-size", "8", "--out", str(oracle_path),
        ]
    )
    assert rc == cli.EXIT_OK

    queries = tmp_path / "q.txt"
    queries.write_text("0 35\n0 35 14\n5 11 0 30\n# comment\n\n")
    out = tmp_path / "answers.txt"
    rc = cli.main(["query", str(oracle_path), "--queries", str(queries), "--out", str(out)])
    assert rc == cli.EXIT_OK
    g = load_graph(graph_file)
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert int(lines[0]) == distance_avoiding(g, 0, 35)
    assert int(lines[1]) == distance_avoiding(g, 0, 35, {14})
    assert int(lines[2]) == distance_avoiding(g, 5, 11, {0, 30})

    rc = cli.main(["verify", str(oracle_path), "--random", "40", "--seed", "1"])
    capsys.readouterr()
    assert rc == cli.EXIT_OK


def test_query_to_stdout_and_stdin(tmp_path, graph_file, capsys, monkeypatch):
    oracle_path = tmp_path / "o.bin"
    assert (
        cli.main(
            [
                "build", str(graph_file), "--mode", "failure",
                "--leaf-size", "8", "--out", str(oracle_path),
            ]
        )
        == cli.EXIT_OK
    )
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("1 34\n"))
    rc = cli.main(["query", str(oracle_path)])
    assert rc == cli.EXIT_OK
    got = capsys.readouterr().out.strip()
    g = load_graph(graph_file)
    assert int(got) == distance_avoiding(g, 1, 34)


def test_query_unreachable_word(tmp_path, capsys):
    gpath = tmp_path / "p.pgr"
    assert cli.main(["gen", "--rows", "1", "--cols", "4", "--out", str(gpath)]) == 0
    opath = tmp_path / "p.bin"
    assert (
        cli.main(["build", str(gpath), "--leaf-size", "3", "--out", str(opath)]) == 0
    )
    capsys.readouterr()
    import sys

    old = sys.stdin
    sys.stdin = io.StringIO("0 3 2\n")
    try:
        rc = cli.main(["query", str(opath)])
    finally:
        sys.stdin = old
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "UNREACHABLE"


def test_build_tradeoff_and_verify(tmp_path, graph_file):
    oracle_path = tmp_path / "to.bin"
    rc = cli.main(
        [
            "build", str(graph_file), "--mode", "tradeoff", "--r", "32",
            "--k", "1", "--leaf-size", "8", "--out", str(oracle_path),
        ]
    )
    assert rc == cli.EXIT_OK
    rc = cli.main(["verify", str(oracle_path), "--random", "30", "--seed", "2"])
    assert rc == cli.EXIT_OK


def test_build_tradeoff_defaults_and_verify(tmp_path):
    # the default r is the smallest marked one, 128 here; a fixed default
    # of 64 is never marked under leaf size 32 and r-base 4
    gpath, opath = tmp_path / "g.pgr", tmp_path / "g.oracle"
    args = ["gen", "--kind", "grid", "--n", "256", "--max-weight", "9", "--out", str(gpath)]
    assert cli.main(args) == cli.EXIT_OK
    assert cli.main(["build", str(gpath), "--mode", "tradeoff", "--out", str(opath)]) == 0
    assert load_oracle(str(opath)).r == 128
    assert cli.main(["verify", str(opath), "--random", "40"]) == cli.EXIT_OK


def test_verify_reports_mismatch(tmp_path, graph_file, capsys, monkeypatch):
    # a load rebuilds every table, so no file can make the oracle drift;
    # a baseline that answers one more than the truth must be reported
    opath = tmp_path / "o.bin"
    save_oracle(TradeoffOracle(load_graph(graph_file), r=16, k=1, leaf_size=4), opath)
    monkeypatch.setattr(cli, "distance_avoiding", lambda *a: distance_avoiding(*a) + 1)
    rc = cli.main(["verify", str(opath), "--random", "60", "--seed", "0"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_MISMATCH
    assert "MISMATCH" in err


def test_verify_with_query_file(tmp_path, graph_file, capsys):
    opath = tmp_path / "o.bin"
    assert (
        cli.main(
            ["build", str(graph_file), "--leaf-size", "8", "--out", str(opath)]
        )
        == cli.EXIT_OK
    )
    qfile = tmp_path / "q.txt"
    qfile.write_text("0 20\n3 33 17\n")
    rc = cli.main(["verify", str(opath), "--queries", str(qfile)])
    capsys.readouterr()
    assert rc == cli.EXIT_OK


def test_bench_csv(tmp_path, capsys):
    rc = cli.main(
        [
            "bench", "--kind", "grid", "--n", "36", "--mode", "failure,tradeoff",
            "--r", "32", "--k", "1", "--leaf-size", "8", "--queries", "5",
            "--max-weight", "9",
        ]
    )
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    header, *rows = [ln for ln in out.splitlines() if ln.strip()]
    assert header.startswith("mode,n,r,k,")
    assert len(rows) == 2


@pytest.mark.parametrize("r", ["0", "5"])
def test_bench_tradeoff_r_not_marked_is_invalid(r):
    # the marked sequence is (64, 256); r = 0 used to run as r = 64, the
    # failure mode's placeholder, and exit 0
    rc = cli.main(
        [
            "bench", "--kind", "grid", "--n", "256", "--mode", "tradeoff",
            "--r", r, "--leaf-size", "16", "--queries", "2",
        ]
    )
    assert rc == cli.EXIT_INVALID


@pytest.mark.parametrize("command", ["build", "bench"])
def test_k_beyond_u32_is_invalid(tmp_path, graph_file, capsys, command):
    # the file stores k as a u32; a larger k used to escape as struct.error
    # and exit 1, the code for a verification mismatch
    out = tmp_path / "o.bin"
    if command == "build":
        argv = ["build", str(graph_file), "--mode", "tradeoff", "--leaf-size", "8"]
    else:
        argv = ["bench", "--n", "36", "--mode", "tradeoff", "--leaf-size", "8"]
    rc = cli.main([*argv, "--k", str(1 << 32), "--out", str(out)])
    assert rc == cli.EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "64", "--mode", "failure,tradeoff"],
        ["--n", "3"],
        ["--n", "0", "--kind", "tri"],
        ["--n", "-5"],
    ],
)
def test_bench_point_that_measures_nothing_is_a_usage_error(capsys, argv):
    # a trade-off point with no tuple used to print a row that read as a
    # trade-off result, and an n below 4 to run a 2x2 grid (or fail in isqrt)
    rc = cli.main(["bench", *argv, "--queries", "2"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.err.startswith("error: ") and captured.out == ""


def test_bench_small_tradeoff_point_with_tuples(capsys):
    rc = cli.main(
        [
            "bench", "--n", "64", "--queries", "5", "--mode", "failure,tradeoff",
            "--leaf-size", "8",
        ]
    )
    header, *rows = capsys.readouterr().out.splitlines()
    assert rc == cli.EXIT_OK
    assert [row.split(",")[:3] for row in rows] == [["failure", "64", "0"], ["tradeoff", "64", "32"]]


def test_bench_tradeoff_defaults(capsys):
    rc = cli.main(["bench", "--mode", "tradeoff", "--n", "256", "--queries", "4"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["r"] == "128"


def test_bench_failure_rows_per_k(capsys):
    # failure rows used to ignore --k and print one row labelled k = 4
    rc = cli.main(["bench", "--mode", "failure", "--k", "0,2", "--n", "36", "--queries", "3"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert rc == cli.EXIT_OK
    assert [dict(zip(header.split(","), row.split(",")))["k"] for row in rows] == ["0", "2"]


def test_bench_threads_is_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--n", "36", "--threads", "1"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


def test_bench_json_to_file(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(
        [
            "bench", "--kind", "grid", "--n", "36", "--mode", "failure",
            "--leaf-size", "8", "--queries", "4", "--format", "json", "--out", str(out),
        ]
    )
    assert rc == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["records"][0]["verified"] is True


def test_dyn_script(tmp_path, graph_file):
    script = tmp_path / "ops.txt"
    script.write_text(
        "q 0 35\n"
        "w 0 500        # reprice the first arc\n"
        "q 0 35\n"
        "iv\n"
        "ie 0 36 5 0 0\n"
        "ie 36 0 7 0 0\n"
        "q 0 36\n"
        "de 1\n"
        "dv 14\n"
        "q 0 35\n"
    )
    out = tmp_path / "answers.csv"
    rc = cli.main(["dyn", str(graph_file), str(script), "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "op_index,u,v,distance"
    assert len(lines) == 5
    # the final row reflects all surviving mutations
    from planar_oracle.dynamic_oracle import DynamicOracle

    g = load_graph(graph_file)
    dyn = DynamicOracle(g, r=32)
    dyn.set_weight(0, 500)
    dyn.insert_vertex()
    dyn.insert_edge(0, 36, 5, 0, 0)
    dyn.insert_edge(36, 0, 7, 0, 0)
    dyn.delete_edge(1)
    dyn.delete_vertex(14)
    want = dyn.distance(0, 35)
    assert lines[4] == f"10,0,35,{want}"


def test_dyn_script_error_is_invalid(tmp_path, graph_file):
    script = tmp_path / "bad.txt"
    script.write_text("frobnicate 1 2\n")
    rc = cli.main(["dyn", str(graph_file), str(script)])
    assert rc == cli.EXIT_INVALID


@pytest.mark.parametrize("line", ["1_0 2", "\u0663 5", "+1 34", "1 34 -0"])
def test_query_tokens_are_ascii_decimal_ids(tmp_path, graph_file, capsys, monkeypatch, line):
    # int() reads each of these lines as numbers: "1_0 2" used to answer
    # as "10 2" and "\u0663 5" as "3 5"
    opath = tmp_path / "o.bin"
    assert cli.main(["build", str(graph_file), "--leaf-size", "8", "--out", str(opath)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(f"1 34\n{line}\n"))
    rc = cli.main(["query", str(opath)])
    assert rc == cli.EXIT_INVALID
    assert "query line 2" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["q 0 3_5", "w 0 5_00", "de +1", "dv 1_4", "ie 0 36 5 0 -0"])
def test_dyn_tokens_are_ascii_decimal(tmp_path, graph_file, capsys, op):
    # each of these ops used to run, int() reading its tokens as numbers
    script = tmp_path / "ops.txt"
    script.write_text(f"iv\n{op}\n")
    rc = cli.main(["dyn", str(graph_file), str(script)])
    assert rc == cli.EXIT_INVALID
    assert "script line 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--n", "3_6"], ["--k", "\u0661"], ["--r", "+64"]])
def test_bench_lists_are_ascii_decimal(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--leaf-size", "8", "--queries", "2", *argv])
    assert exc.value.code == cli.EXIT_USAGE
    assert argv[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--rows", "1_2", "--cols", "3", "--out", "g.pgr"],
        ["gen", "--n", "\u0663\u0666", "--out", "g.pgr"],
        ["dyn", "g.pgr", "ops.txt", "--r", "+32"],
    ],
)
def test_integer_options_are_ascii_decimal(tmp_path, monkeypatch, capsys, argv):
    # "gen --rows 1_2 --cols 3" used to write a 12x3 grid
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert "expected an integer" in capsys.readouterr().err
    assert not (tmp_path / "g.pgr").exists()


def test_missing_file_is_io_error(tmp_path):
    rc = cli.main(["query", str(tmp_path / "nope.bin")])
    assert rc == cli.EXIT_IO


def test_corrupt_oracle_is_invalid(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"JUNKJUNKJUNK")
    rc = cli.main(["verify", str(p)])
    assert rc == cli.EXIT_INVALID


def test_verify_random_on_one_vertex_is_invalid(tmp_path, capsys):
    # drawing v != u from one vertex used to loop forever
    gpath = tmp_path / "one.pgr"
    gpath.write_text("1 0\n-\n")
    opath = tmp_path / "one.bin"
    assert cli.main(["build", str(gpath), "--out", str(opath)]) == cli.EXIT_OK
    capsys.readouterr()
    rc = cli.main(["verify", str(opath), "--random", "5"])
    assert rc == cli.EXIT_INVALID
    assert "the graph has 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("count", ["-1", "-5", "0"])
def test_query_count_must_not_be_negative(tmp_path, graph_file, capsys, command, count):
    # a negative count used to run zero queries, report them verified and
    # exit 0; a count of 0 stays allowed
    if command == "verify":
        opath = tmp_path / "o.bin"
        assert cli.main(["build", str(graph_file), "--out", str(opath)]) == cli.EXIT_OK
        argv = ["verify", str(opath), "--random", count]
    else:
        argv = ["bench", "--n", "36", "--leaf-size", "8", "--queries", count]
    capsys.readouterr()
    rc = cli.main(argv)
    captured = capsys.readouterr()
    if count == "0":
        assert rc == cli.EXIT_OK
        return
    assert rc == cli.EXIT_INVALID
    assert captured.err.startswith("error: ") and count in captured.err
    assert "verified" not in captured.out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_query_line_is_invalid(tmp_path, graph_file, capsys):
    opath = tmp_path / "o.bin"
    assert (
        cli.main(
            ["build", str(graph_file), "--leaf-size", "8", "--out", str(opath)]
        )
        == cli.EXIT_OK
    )
    qfile = tmp_path / "q.txt"
    qfile.write_text("0\n")
    rc = cli.main(["query", str(opath), "--queries", str(qfile)])
    capsys.readouterr()
    assert rc == cli.EXIT_INVALID
