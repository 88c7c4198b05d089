import json
import os
import stat
import threading

import numpy as np
import pytest

import hamrecon as hr
from hamrecon import spectral
from hamrecon.cli import main

from oracles import vertex_json_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_exit_codes_and_report(capsys):
    code, out, _ = run(capsys, "check", "--q", "3", "--n", "4", "--h", "2", "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["origin_value"] == "-3" and report["failures"] == []

    code, out, _ = run(capsys, "check", "--q", "3", "--n", "4", "--h", "3", "--d", "2")
    assert code == 2
    report = json.loads(out)
    assert report["pass"] is False and report["failures"] == [{"k": 1, "l": 1, "sum": "0"}]

    code, _, err = run(capsys, "check", "--q", "3", "--n", "4", "--h", "2", "--d", "3")
    assert code == 64 and "error" in err
    code, _, err = run(capsys, "check", "--q", "2", "--n", "4", "--h", "2", "--d", "2")
    assert code == 64
    code, _, err = run(capsys, "check", "--q", "3", "--n", "40", "--h", "2", "--d", "2")
    assert code == 64  # q^n cap


def test_check_deterministic(capsys):
    args = ("check", "--q", "4", "--n", "4", "--h", "3", "--d", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sweep_rows_and_origin_marking(capsys):
    code, out, _ = run(capsys, "sweep", "--q", "3", "--n", "3,4")
    assert code == 0
    lines = out.strip().splitlines()
    # sum over n of sum_h (h+1): n=3 gives 10, n=4 gives 15
    assert len(lines) == 1 + 25
    assert lines[0] == "q,n,h,d,pass,fail_kind,first_fail_k,first_fail_l,origin_value"
    rows = {}
    for line in lines[1:]:
        q, n, h, d, ok, kind, fk, fl, origin = line.split(",")
        rows[(int(q), int(n), int(h), int(d))] = (ok, kind, fk, fl, origin)
    # deterministic lexicographic ordering
    assert list(rows) == sorted(rows)
    assert rows[(3, 3, 2, 1)] == ("false", "origin", "", "", "0")
    assert rows[(3, 4, 3, 2)] == ("false", "layer", "1", "1", "-3")
    assert rows[(3, 4, 2, 2)][0] == "true"

    code, out2, _ = run(capsys, "sweep", "--q", "3", "--n", "3,4")
    assert out2 == out

    code, _, _ = run(capsys, "sweep", "--q", "3", "--n", "")
    assert code == 64


def test_krawtchouk_dump(capsys):
    code, out, _ = run(capsys, "krawtchouk-dump", "--q", "3", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i," + ",".join(str(t) for t in range(7))
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i
        for t, cell in enumerate(cells[1:]):
            assert int(cell) == hr.krawtchouk_value(3, i, t, 6)
    # q = 2 is allowed here (the sub-scheme tables need it)
    code, _, _ = run(capsys, "krawtchouk-dump", "--q", "2", "--n", "4")
    assert code == 0


def test_krawtchouk_dump_is_bounded_by_the_state_cap(monkeypatch, capsys):
    # (N+1)^2 table values against the cap: N = 9 fills a cap of 100 exactly
    monkeypatch.setenv("HAMRECON_MAX_STATES", "100")
    code, out, _ = run(capsys, "krawtchouk-dump", "--q", "3", "--n", "9")
    assert code == 0 and len(out.strip().splitlines()) == 11
    code, out, err = run(capsys, "krawtchouk-dump", "--q", "3", "--n", "10")
    assert code == 64 and out == "" and "enumeration cap 100" in err


def test_generate_reconstruct_round_trip(tmp_path, capsys):
    sphere_path = tmp_path / "sphere.json"
    out_path = tmp_path / "recovered.json"
    code, _, _ = run(
        capsys,
        "generate",
        "--q", "3", "--n", "4", "--h", "2", "--seed", "7", "--d", "2",
        "--output", str(sphere_path),
    )
    assert code == 0
    data = json.loads(sphere_path.read_text())
    assert data["d"] == 2 and data["eigenindex"] == 2

    code, out, _ = run(
        capsys,
        "reconstruct", "--mode", "full", "--input", str(sphere_path), "--output", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["mode"] == "full"

    recovered = hr.function_from_dict(json.loads(out_path.read_text()))
    truth = hr.random_eigenfunction(hr.SchemeParams(3, 4), 2, seed=7)
    assert np.max(np.abs(recovered.values - truth.values)) <= 1e-8

    # ball mode output restricted to the ball domain
    ball_path = tmp_path / "ball.json"
    code, out, _ = run(
        capsys,
        "reconstruct", "--mode", "ball", "--input", str(sphere_path), "--output", str(ball_path),
    )
    assert code == 0
    ball = hr.function_from_dict(json.loads(ball_path.read_text()))
    mask = hr.scheme.weight_table(3, 4) <= 2
    assert np.max(np.abs(ball.values[mask] - truth.values[mask])) <= 1e-8


def test_reconstruct_error_paths(tmp_path, capsys):
    # conditions fail: exit 2 with a JSON report on stderr
    sphere_path = tmp_path / "bad.json"
    code, _, _ = run(
        capsys,
        "generate", "--q", "3", "--n", "4", "--h", "3", "--seed", "1", "--d", "2",
        "--output", str(sphere_path),
    )
    assert code == 0
    out_path = tmp_path / "out.json"
    code, _, err = run(
        capsys, "reconstruct", "--mode", "ball", "--input", str(sphere_path), "--output", str(out_path)
    )
    assert code == 2
    report = json.loads(err)
    assert report["pass"] is False and report["failures"] == [{"k": 1, "l": 1, "sum": "0"}]

    # full mode demands d = h
    code, _, err = run(
        capsys, "reconstruct", "--mode", "full", "--input", str(sphere_path), "--output", str(out_path)
    )
    assert code == 64

    # malformed input file
    bad = tmp_path / "malformed.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "reconstruct", "--mode", "ball", "--input", str(bad), "--output", str(out_path))
    assert code == 64
    code, _, err = run(
        capsys, "reconstruct", "--mode", "ball", "--input", str(tmp_path / "absent.json"), "--output", str(out_path)
    )
    assert code == 64

    # missing eigenindex
    anon = tmp_path / "anon.json"
    anon.write_text(json.dumps({"q": 3, "n": 4, "d": 1, "values": []}))
    code, _, err = run(capsys, "reconstruct", "--mode", "ball", "--input", str(anon), "--output", str(out_path))
    assert code == 64 and "eigenvalue index" in err


def test_non_integer_header_numbers_exit_64(tmp_path, capsys):
    sphere = tmp_path / "sphere.json"
    assert run(capsys, "generate", "--q", "3", "--n", "4", "--h", "2", "--d", "2",
               "--output", str(sphere))[0] == 0
    good = json.loads(sphere.read_text())
    out = tmp_path / "out.json"
    for edit in ({"eigenindex": 2.9, "q": 3.5}, {"d": 2.0}, {"n": 4.0}, {"eigenindex": True}):
        sphere.write_text(json.dumps({**good, **edit}))
        for mode in ("ball", "full"):
            code, _, err = run(
                capsys, "reconstruct", "--mode", mode, "--input", str(sphere), "--output", str(out)
            )
            assert code == 64 and "must be an integer" in err, (edit, mode, err)
            assert not out.exists()


def test_verify_command(capsys):
    code, out, err = run(
        capsys, "verify", "--mode", "full", "--q", "3", "--n", "4", "--h", "2", "--seed", "7"
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["max_rel_error"] <= 1e-8
    assert report["d"] == 2  # defaults to h
    assert "elapsed_sec=" in err  # timing goes to stderr, not into the report

    # deterministic report for a fixed seed
    _, out2, _ = run(
        capsys, "verify", "--mode", "full", "--q", "3", "--n", "4", "--h", "2", "--seed", "7"
    )
    assert out2 == out

    # ball mode with a smaller radius
    code, out, _ = run(
        capsys,
        "verify", "--mode", "ball", "--q", "3", "--n", "4", "--h", "2", "--d", "1", "--seed", "3",
    )
    assert code == 0
    assert json.loads(out)["d"] == 1

    # condition failure: exit 2
    code, _, err = run(
        capsys, "verify", "--mode", "ball", "--q", "3", "--n", "4", "--h", "3", "--d", "2", "--seed", "0"
    )
    assert code == 2
    assert json.loads(err)["pass"] is False

    # round-trip error above the tolerance: exit 1, report still printed
    code, out, _ = run(
        capsys, "verify", "--mode", "full", "--q", "3", "--n", "4", "--h", "2", "--tolerance", "1e-300"
    )
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["max_rel_error"] > 1e-300

    # full mode with mismatched d
    code, _, _ = run(
        capsys, "verify", "--mode", "full", "--q", "3", "--n", "4", "--h", "2", "--d", "1", "--seed", "0"
    )
    assert code == 64
    # bad tolerance
    code, _, _ = run(
        capsys,
        "verify", "--mode", "full", "--q", "3", "--n", "4", "--h", "2", "--seed", "0",
        "--tolerance", "-1",
    )
    assert code == 64


def test_generate_full_function_and_determinism(tmp_path, capsys):
    path1 = tmp_path / "f1.json"
    path2 = tmp_path / "f2.json"
    for path in (path1, path2):
        code, _, _ = run(
            capsys,
            "generate", "--q", "4", "--n", "3", "--h", "1", "--seed", "5", "--output", str(path),
        )
        assert code == 0
    assert path1.read_bytes() == path2.read_bytes()
    f = hr.function_from_dict(json.loads(path1.read_text()))
    assert f.eigenindex == 1
    assert hr.eigen_residual(f, 1) <= 1e-9 * (1 + f.max_abs())


def test_local_dist_debug_command(tmp_path, capsys):
    path = tmp_path / "fn.json"
    code, _, _ = run(
        capsys, "generate", "--q", "3", "--n", "4", "--h", "2", "--seed", "2", "--output", str(path)
    )
    assert code == 0
    code, out, _ = run(
        capsys, "local-dist", "--input", str(path), "--positions", "2,4", "--anchor", "0120"
    )
    assert code == 0
    data = json.loads(out)
    assert data["face"] == [2, 4] and data["anchor"] == "0120"
    f = hr.random_eigenfunction(hr.SchemeParams(3, 4), 2, seed=2)
    expect = hr.local_distribution(f, (2, 4), (0, 1, 2, 0)).components
    got = np.array([c["re"] + 1j * c["im"] for c in data["components"]])
    assert np.max(np.abs(got - expect)) <= 1e-12

    code, _, _ = run(capsys, "local-dist", "--input", str(path), "--positions", "9", "--anchor", "0120")
    assert code == 64
    # Arabic-Indic digits are digits to int(), but not words
    code, _, err = run(
        capsys, "local-dist", "--input", str(path), "--positions", "2,4", "--anchor", "\u0660\u0661\u0662\u0660"
    )
    assert code == 64 and "outside the digits" in err


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64
    code, _, _ = run(capsys, "check", "--q", "3", "--n", "4", "--h", "5", "--d", "1")
    assert code == 64
    code, _, _ = run(capsys, "verify", "--mode", "sideways", "--q", "3", "--n", "4", "--h", "2")
    assert code == 64


def test_written_files_match_json_dumps(tmp_path, capsys):
    full, sphere, ball, recovered = (tmp_path / f"{name}.json" for name in ("f", "s", "b", "r"))
    gen = ("generate", "--q", "4", "--n", "4", "--h", "3", "--seed", "9")
    assert run(capsys, *gen, "--output", str(full))[0] == 0
    code, printed, _ = run(capsys, *gen)
    assert code == 0 and printed == full.read_text()
    assert run(capsys, *gen, "--d", "3", "--output", str(sphere))[0] == 0
    for mode, path in (("ball", ball), ("full", recovered)):
        code, _, _ = run(
            capsys, "reconstruct", "--mode", mode, "--input", str(sphere), "--output", str(path)
        )
        assert code == 0
    # the stdlib encoder applied to the payload of what each command writes
    truth = hr.random_eigenfunction(hr.SchemeParams(4, 4), 3, seed=9)
    data = hr.SphereData.from_function(truth, 3)
    rec = hr.reconstruct_full(data, 3)
    expect = {
        full: vertex_json_text(truth.params, truth.values, 3),
        sphere: vertex_json_text(data.params, data.values, 3, 3),
        ball: vertex_json_text(data.params, hr.reconstruct_ball(data, 3).values, 3, 3),
        recovered: vertex_json_text(rec.params, rec.values, 3),
    }
    for path, text in expect.items():
        assert path.read_text() == text


def test_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    sphere, out = tmp_path / "sphere.json", tmp_path / "full.json"
    gen = ("generate", "--q", "4", "--n", "8", "--h", "2", "--d", "2", "--output", str(sphere))
    assert run(capsys, *gen)[0] == 0
    format_entries, calls = spectral.values_to_entries, []

    def fail_on_second_chunk(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("write interrupted")
        return format_entries(*args)

    monkeypatch.setattr(spectral, "values_to_entries", fail_on_second_chunk)
    with pytest.raises(RuntimeError, match="write interrupted"):
        main(["reconstruct", "--mode", "full", "--input", str(sphere), "--output", str(out)])
    assert len(calls) == 2 and not out.exists()


def test_non_finite_and_malformed_input_exit_64(tmp_path, capsys):
    sphere = tmp_path / "sphere.json"
    assert run(capsys, "generate", "--q", "3", "--n", "4", "--h", "2", "--d", "2",
               "--output", str(sphere))[0] == 0
    data = json.loads(sphere.read_text())
    data["values"][0]["re"] = float("nan")
    sphere.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    code, _, err = run(
        capsys, "reconstruct", "--mode", "full", "--input", str(sphere), "--output", str(out)
    )
    assert code == 64 and "non-finite" in err and not out.exists()

    fn = tmp_path / "fn.json"
    assert run(capsys, "generate", "--q", "3", "--n", "4", "--h", "2", "--output", str(fn))[0] == 0
    good = json.loads(fn.read_text())
    local = ("--positions", "2,4", "--anchor", "0120")
    bad = json.loads(fn.read_text())
    bad["values"][3]["im"] = float("inf")
    fn.write_text(json.dumps(bad))
    code, _, err = run(capsys, "local-dist", "--input", str(fn), *local)
    assert code == 64 and "non-finite" in err

    first = good["values"][0]
    for broken in (
        {**first, "w": first["w"] + "0"},  # wrong length
        {**first, "w": "3" + first["w"][1:]},  # digit >= q
        {**first, "w": "x" + first["w"][1:]},  # not a digit
        {"re": 1.0, "im": 0.0},  # no word
        {**first, "w": 7},  # word not a string
        good["values"][1],  # duplicate word
    ):
        fn.write_text(json.dumps({**good, "values": good["values"][1:] + [broken]}))
        code, _, err = run(capsys, "local-dist", "--input", str(fn), *local)
        assert code == 64 and "cannot read function data" in err


# Parameter errors: each row exits 64, prints nothing on stdout, writes no file
# and names the cause on stderr.  {sphere} is a valid (3, 4, 2, 2) sphere file,
# {fn} a valid (3, 4) function file with h = 2, {out} a path that must stay absent.
GEN = ("generate", "--q", "3", "--n", "4", "--h", "2")
FULL = ("reconstruct", "--mode", "full", "--input", "{sphere}", "--output", "{out}")
VERIFY = ("verify", "--mode", "full", "--q", "3", "--n", "4", "--h", "2")
PARAMETER_ERRORS = [
    pytest.param((*GEN, "--seed", "-1", "--output", "{out}"), "seed", id="seed-negative"),
    pytest.param(
        ("generate", "--q", "3", "--n", "0", "--h", "0", "--output", "{out}"), "at least 1", id="n-zero"
    ),
    pytest.param(
        ("krawtchouk-dump", "--q", "1", "--n", "4", "--output", "{out}"), "at least 2", id="dump-q-1"
    ),
    pytest.param(
        ("krawtchouk-dump", "--q", "3", "--n", "256", "--output", "{out}"), "enumeration cap",
        id="dump-over-cap",
    ),
    pytest.param(("sweep", "--q", "2,3", "--n", "3", "--output", "{out}"), "at least 3", id="sweep-q-2"),
    pytest.param(
        ("sweep", "--q", "3,4", "--n", "3,9", "--output", "{out}"), "enumeration cap", id="sweep-over-cap"
    ),
    pytest.param((*FULL, "--oracle-eta"), "unrecognized arguments: --oracle-eta", id="oracle-eta-gone"),
    pytest.param(
        (*FULL, "--tolerance", "1e-8"), "unrecognized arguments: --tolerance 1e-8",
        id="reconstruct-tolerance-gone",
    ),
    pytest.param((*VERIFY, "--tolerance", "0"), "tolerance", id="tolerance-zero"),
    pytest.param((*VERIFY, "--tolerance", "nan"), "tolerance", id="verify-tolerance-nan"),
    pytest.param((*VERIFY, "--tolerance", "inf"), "tolerance", id="verify-tolerance-inf"),
    pytest.param(
        ("verify", "--mode", "ball", "--q", "3", "--n", "4", "--h", "5"), "5 outside [0, ",
        id="verify-h-above-n",
    ),
    pytest.param((*GEN, "--d", "5", "--output", "{out}"), "5 outside [0, 4]", id="generate-d-above-n"),
    pytest.param(("check", "--q", "3", "--n", "4", "--h", "2"), "--d", id="check-without-d"),
    pytest.param(
        ("local-dist", "--input", "{fn}", "--positions", "2,2", "--anchor", "0120"), "duplicates",
        id="positions-repeated",
    ),
]


@pytest.mark.parametrize("argv, cause", PARAMETER_ERRORS)
def test_parameter_errors_exit_64_without_output(argv, cause, tmp_path, capsys):
    sphere, fn, out = tmp_path / "sphere.json", tmp_path / "fn.json", tmp_path / "out.json"
    assert run(capsys, *GEN, "--seed", "7", "--d", "2", "--output", str(sphere))[0] == 0
    assert run(capsys, *GEN, "--seed", "7", "--output", str(fn))[0] == 0
    paths = {"{sphere}": str(sphere), "{fn}": str(fn), "{out}": str(out)}
    code, stdout, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 64 and stdout == "" and cause in err, (code, stdout, err)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        GEN,
        ("sweep", "--q", "3", "--n", "3"),
        ("reconstruct", "--mode", "ball", "--input", "{sphere}"),
        ("krawtchouk-dump", "--q", "3", "--n", "4"),
    ],
    ids=["generate", "sweep", "reconstruct", "krawtchouk-dump"],
)
def test_unwritable_output_exits_64_naming_the_path(argv, tmp_path, capsys):
    # a missing directory and a directory in place of the file: one error line, no traceback
    sphere = tmp_path / "sphere.json"
    assert run(capsys, *GEN, "--d", "2", "--output", str(sphere))[0] == 0
    argv = [str(sphere) if arg == "{sphere}" else arg for arg in argv]
    for out in (tmp_path / "missing" / "out.json", tmp_path):
        code, stdout, err = run(capsys, *argv, "--output", str(out))
        assert code == 64 and stdout == "", (code, stdout, err)
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err, err
    assert not (tmp_path / "missing").exists()


def test_unwritable_output_is_refused_before_the_work(tmp_path, capsys, monkeypatch):
    # every command with --output exits 64 on one that cannot be opened
    # before it generates, solves, checks or tabulates anything
    sphere = tmp_path / "sphere.json"
    assert run(capsys, *GEN, "--d", "2", "--output", str(sphere))[0] == 0
    called = []
    work = ("random_eigenfunction", "reconstruct_ball", "reconstruct_full", "check_conditions")
    for name in (*work, "krawtchouk_table"):

        def recorded(*args, name=name):
            called.append(name)
            raise AssertionError(f"{name} ran before the output was opened")

        monkeypatch.setattr(f"hamrecon.cli.{name}", recorded)
    commands = (
        GEN,
        (*GEN, "--d", "2"),
        ("reconstruct", "--mode", "ball", "--input", str(sphere)),
        ("reconstruct", "--mode", "full", "--input", str(sphere)),
        ("sweep", "--q", "3", "--n", "3"),
        ("krawtchouk-dump", "--q", "3", "--n", "4"),
    )
    for argv in commands:
        for out in (tmp_path / "missing" / "out.json", tmp_path):
            code, stdout, err = run(capsys, *argv, "--output", str(out))
            assert code == 64 and stdout == "" and str(out) in err, (argv, code, err)
    assert not called and not (tmp_path / "missing").exists()


def test_failed_run_leaves_the_output_path_as_it_was(tmp_path, capsys):
    # exit 2 (conditions fail in ball mode) and exit 64 (full mode refuses
    # d != h once the input is read) create no file and leave a file that
    # was there untouched; a run that succeeds replaces a longer file's
    # whole text
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    assert run(capsys, *GEN, "--seed", "7", "--d", "2", "--output", str(good))[0] == 0
    bad_gen = ("generate", "--q", "3", "--n", "4", "--h", "3", "--seed", "1", "--d", "2")
    assert run(capsys, *bad_gen, "--output", str(bad))[0] == 0
    refused = (
        (2, ("reconstruct", "--mode", "ball", "--input", str(bad))),
        (64, ("reconstruct", "--mode", "full", "--input", str(bad))),
    )
    old_text = "old text\n" * 10_000
    for code, argv in refused:
        absent, present = tmp_path / "absent.json", tmp_path / "present.json"
        present.write_text(old_text)
        assert run(capsys, *argv, "--output", str(absent))[:2] == (code, "")
        assert run(capsys, *argv, "--output", str(present))[:2] == (code, "")
        assert not absent.exists() and present.read_text() == old_text
    argv = ("reconstruct", "--mode", "full", "--input", str(good), "--output", str(present))
    assert run(capsys, *argv)[0] == 0
    out = hr.reconstruct_full(hr.SphereData.from_dict(json.loads(good.read_text())), 2)
    assert present.read_text() == vertex_json_text(out.params, out.values, 2)


def test_output_to_devices_fifos_and_dangling_symlinks(tmp_path, capsys, monkeypatch):
    # a device or FIFO is written as it is and never truncated or removed,
    # even when the write fails part way, which removes a regular file; a
    # dangling symlink gets its target created, and only by a run that succeeds
    expected = vertex_json_text(*_generated(capsys, tmp_path))
    assert run(capsys, *GEN, "--output", os.devnull)[0] == 0
    assert os.path.exists(os.devnull)
    fifo, regular = tmp_path / "fifo", tmp_path / "regular.json"
    os.mkfifo(fifo)
    for code, text in ((0, expected), (64, "{")):
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
        reader.start()
        assert run(capsys, *GEN, "--output", str(fifo))[0] == code
        reader.join()
        assert received == [text] and stat.S_ISFIFO(os.lstat(fifo).st_mode)
        regular.write_text("old text\n")
        assert run(capsys, *GEN, "--output", str(regular))[0] == code
        assert regular.exists() == (code == 0)

        def fails_part_way(*args, **kwargs):
            yield "{"
            raise ValueError("write failed part way")

        monkeypatch.setattr("hamrecon.cli.vertex_json_chunks", fails_part_way)
    monkeypatch.undo()
    link, target = tmp_path / "link.json", tmp_path / "target.json"
    link.symlink_to(target)
    absent = ("reconstruct", "--mode", "ball", "--input", str(tmp_path / "absent.json"))
    assert run(capsys, *absent, "--output", str(link))[0] == 64
    assert link.is_symlink() and not target.exists()
    assert run(capsys, *GEN, "--output", str(link))[0] == 0
    assert link.is_symlink() and target.read_text() == expected


def _generated(capsys, tmp_path):
    path = tmp_path / "generated.json"
    assert run(capsys, *GEN, "--output", str(path))[0] == 0
    f = spectral.function_from_dict(json.loads(path.read_text()))
    return f.params, f.values, f.eigenindex
