import hashlib
import json
import math
import sys
import time

import numpy as np
import pytest

from gammasym.cli import MAX_N, main

SO5 = ["--n", "5", "--partition", "2,2,1,0"]


def run_ok(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def run_err(capsys, argv):
    assert main(argv) == 2
    return capsys.readouterr().err


def test_grade_json(capsys):
    doc = json.loads(run_ok(capsys, ["grade", *SO5]))
    assert doc["n"] == 5
    assert doc["partition"] == [2, 2, 1, 0]
    assert doc["verified"] is True
    comps = {c["label"]: c for c in doc["components"]}
    assert [comps[l]["dim"] for l in "abc"] == [4, 2, 2]
    assert comps["a"]["basis"] == ["E13", "E14", "E23", "E24"]


def test_grade_text_and_csv(capsys):
    text = run_ok(capsys, ["grade", *SO5, "--format", "text"])
    assert "so(5)" in text and "verified: yes" in text
    err = run_err(capsys, ["grade", *SO5, "--format", "csv"])
    assert "csv" in err


def test_bad_partition(capsys):
    err = run_err(capsys, ["grade", "--n", "5", "--partition", "2,2,2,0"])
    assert "partition" in err
    for text, message in (
        ("1,x,1,1", "partition must be four integers, got '1,x,1,1'"),
        ("1,1,1", "partition must have four parts, got 3"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["grade", "--n", "5", "--partition", text])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_metrics_json(capsys):
    doc = json.loads(run_ok(capsys, ["metrics", *SO5]))
    assert doc["family_dim"] == 4
    assert [p["name"] for p in doc["parameters"]] == ["t_A1", "u_A1", "t_B1", "t_C2"]
    assert [p["support"] for p in doc["parameters"]] == [
        "a:diag:A1",
        "a:offdiag:A1",
        "b:diag:B1",
        "c:diag:C2",
    ]
    assert doc["nat_reductive_dim"] == 1
    assert "evaluation" not in doc


def test_metrics_params_evaluation(capsys):
    doc = json.loads(run_ok(capsys, ["metrics", *SO5, "--params", "1,0,1,1"]))
    assert doc["evaluation"]["inertia"] == [8, 0, 0]
    assert doc["evaluation"]["values"] == [[1, 1], [0, 1], [1, 1], [1, 1]]
    # leading minus needs the = form, or argparse reads it as an option
    doc2 = json.loads(run_ok(capsys, ["metrics", *SO5, "--params=-1,0,1,1"]))
    assert doc2["evaluation"]["inertia"] == [4, 4, 0]


def test_metrics_params_wrong_count(capsys):
    err = run_err(capsys, ["metrics", *SO5, "--params", "1,2"])
    assert "expects 4" in err


def test_params_beyond_the_digit_limit_exit_2_at_once(capsys):
    limit = sys.get_int_max_str_digits()
    long_mantissas = ("1" * (limit + 1), "0." + "0" * limit + "1")
    for tok in ("1e999999", "1e9999999", f"1e{limit}", f"1e-{limit}", *long_mantissas):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["metrics", *SO5, "--params", f"1,0,1,{tok}"])
        assert exc.value.code == 2 and time.perf_counter() - start < 0.5, tok
        err = capsys.readouterr().err
        assert repr(tok) in err and "out of range" in err, tok
    doc = json.loads(run_ok(capsys, ["metrics", *SO5, "--params", f"1,0,1,5e-{limit}"]))
    assert doc["evaluation"]["values"][3] == [1, 2 * 10 ** (limit - 1)]
    doc = json.loads(run_ok(capsys, ["metrics", *SO5, "--params", "1,0,1," + "7" * limit]))
    assert doc["evaluation"]["values"][3] == [int("7" * limit), 1]


def test_params_are_bounded_by_significant_digits(capsys):
    # a zero mantissa is 0 whatever its exponent, and zeros that only pad a
    # literal count for nothing, however many the digit limit would refuse
    limit = sys.get_int_max_str_digits()
    for tok, want in (
        ("0e9000", [0, 1]),
        ("0" * (limit + 1) + "5", [5, 1]),
        ("-0.000e-99999999", [0, 1]),
        ("0." + "0" * limit + "5e" + str(limit + 1), [5, 1]),
        ("1." + "0" * (limit + 1), [1, 1]),
        ("0" * (limit + 1) + "3/0" + "0" * limit + "6", [1, 2]),
    ):
        doc = json.loads(run_ok(capsys, ["metrics", *SO5, f"--params=1,0,1,{tok}"]))
        assert doc["evaluation"]["values"][3] == want, tok[:20]
    with pytest.raises(SystemExit) as exc:
        main(["metrics", *SO5, "--params", "1,0,1,1e9000"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'1e9000'" in err and "out of range" in err
    for tok in ("1/0", "0/0_0"):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", *SO5, "--params", f"1,0,1,{tok}"])
        assert exc.value.code == 2 and "cannot parse" in capsys.readouterr().err


def test_internal_value_error_is_not_a_user_error(monkeypatch):
    # exit 2 is for bad input; a fault inside the library must surface
    def broken(grading):
        raise ValueError("internal fault")

    monkeypatch.setattr("gammasym.cli.invariant_family", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["metrics", *SO5])


def test_csv_is_rejected_before_any_work(monkeypatch, capsys):
    def broken(grading):
        raise AssertionError("the family was solved before the format was checked")

    monkeypatch.setattr("gammasym.cli.invariant_family", broken)
    for cmd in ("metrics", "reductive", "lorentz"):
        assert f"csv format is not supported for '{cmd}'" in run_err(capsys, [cmd, *SO5, "--format", "csv"])
    # report writes the same documents whatever the format, so it takes none
    with pytest.raises(SystemExit):
        main(["report", *SO5, "--format", "json", "--out", "unused"])


def test_reductive_json(capsys):
    doc = json.loads(run_ok(capsys, ["reductive", *SO5]))
    assert doc["dim"] == 1
    assert doc["parent_parameters"] == ["t_A1", "u_A1", "t_B1", "t_C2"]
    assert doc["directions"] == [[[1, 1], [0, 1], [1, 1], [1, 1]]]


def test_curvature_formats(capsys):
    doc = json.loads(run_ok(capsys, ["curvature", *SO5]))
    assert doc["all_nonnegative"] is True
    assert doc["basis"][0] == "E13"
    assert doc["entries"][0] == {"i": 1, "j": 2, "value": [1, 1]}
    csv = run_ok(capsys, ["curvature", *SO5, "--format", "csv"])
    lines = csv.splitlines()
    assert lines[0] == "i,j,numerator,denominator"
    assert lines[1] == "1,2,1,1"
    assert len(lines) == 29
    text = run_ok(capsys, ["curvature", *SO5, "--format", "text"])
    assert text.splitlines()[0].startswith("R_1221")


def test_curvature_empty_table(capsys):
    # m = 0: the table has no entries, which is a result in every format
    empty = ["curvature", "--n", "3", "--partition", "0,0,0,3"]
    doc = json.loads(run_ok(capsys, empty))
    assert doc["basis"] == [] and doc["entries"] == []
    assert run_ok(capsys, [*empty, "--format", "csv"]) == "i,j,numerator,denominator\n"
    assert run_ok(capsys, [*empty, "--format", "text"]) == ""


def test_lorentz_not_found_still_succeeds(capsys):
    doc = json.loads(run_ok(capsys, ["lorentz", *SO5]))
    assert doc["found"] is False
    assert doc["message"] == "none found"
    text = run_ok(capsys, ["lorentz", *SO5, "--format", "text"])
    assert text == "none found\n"


def test_lorentz_found(capsys):
    doc = json.loads(run_ok(capsys, ["lorentz", "--n", "5", "--partition", "1,1,3,0"]))
    assert doc["found"] is True
    assert doc["values"] == [[-1, 1], [1, 1], [1, 1]]
    assert doc["inertia"] == [6, 1, 0]
    assert doc["assignment"]["t_A1"] == [-1, 1]


def test_geodesic_default_generator(capsys):
    doc = json.loads(run_ok(capsys, ["geodesic", *SO5]))
    assert doc["generator"] == "E13"
    assert doc["closed"] is True
    assert math.isclose(doc["period"], 2 * math.pi)
    assert set(doc["samples"]) == {"0.1", "1", "3.141592653589793", "5"}
    m = np.array(doc["samples"]["1"])
    assert math.isclose(m[0, 0], math.cos(1.0), abs_tol=1e-12)
    assert math.isclose(m[0, 2], math.sin(1.0), abs_tol=1e-12)


def test_geodesic_generator_selection(capsys):
    doc = json.loads(
        run_ok(capsys, ["geodesic", *SO5, "--generator", "E35", "--t-samples", "0.5,2"])
    )
    assert doc["generator"] == "E35"
    assert set(doc["samples"]) == {"0.5", "2"}


def test_geodesic_generator_errors(capsys):
    assert "fixed part" in run_err(capsys, ["geodesic", *SO5, "--generator", "E12"])
    assert "not a basis" in run_err(capsys, ["geodesic", *SO5, "--generator", "E19"])
    assert "generator" in run_err(capsys, ["geodesic", *SO5, "--generator", "banana"])
    assert "t-samples" in run_err(capsys, ["geodesic", *SO5, "--t-samples", "abc"])
    err = run_err(capsys, ["geodesic", "--n", "5", "--partition", "5,0,0,0"])
    assert err == "gammasym: the complement m is zero; no geodesic generators\n"


def test_geodesic_generator_is_a_printed_basis_label(capsys):
    doc = json.loads(run_ok(capsys, ["geodesic", *SO5, "--generator", " E13 "]))
    assert doc["generator"] == "E13"
    for other in ("e13", "E1_3", "13", "1_3", "E1,3", "E31"):
        err = run_err(capsys, ["geodesic", *SO5, "--generator", other])
        assert "not a basis vector" in err and repr(other) in err
    big = ["geodesic", "--n", "10", "--partition", "3,3,3,1"]
    assert json.loads(run_ok(capsys, [*big, "--generator", "E1_10"]))["generator"] == "E1_10"
    assert "not a basis vector" in run_err(capsys, [*big, "--generator", "E110"])


def test_geodesic_rejects_empty_sample_lists(capsys):
    for text in ("", ",", " ", " , "):
        err = run_err(capsys, ["geodesic", *SO5, "--t-samples", text])
        assert "--t-samples" in err and repr(text) in err


def test_geodesic_rejects_empty_and_repeated_samples(capsys):
    for text, tok in (("1,,2", ""), ("1, ,2", ""), ("0.5,", ""), ("1,1", "1"), ("1,2, 1", "1")):
        err = run_err(capsys, ["geodesic", *SO5, "--t-samples", text])
        assert f"--t-samples entry {tok!r} is empty or repeated in {text!r}" in err
    doc = json.loads(run_ok(capsys, ["geodesic", *SO5, "--t-samples", "1,1.0"]))
    assert len(doc["samples"]) == 2


def test_geodesic_rejects_non_finite_samples(capsys):
    for tok in ("inf", "1e400", "nan"):
        err = run_err(capsys, ["geodesic", *SO5, "--t-samples", f"0.5,{tok}"])
        assert "--t-samples" in err and repr(tok) in err


# exact stdout of every text renderer that the JSON tests leave unread: the
# family with and without an inertia line, a refinement, a found Lorentzian
# member and geodesic samples
TEXT_OUTPUTS = {
    ("metrics", *SO5): (
        "invariant family dimension: 4\n"
        "  t_A1       a:diag:A1\n"
        "  u_A1       a:offdiag:A1\n"
        "  t_B1       b:diag:B1\n"
        "  t_C2       c:diag:C2\n"
        "naturally reductive subfamily dimension: 1\n"
    ),
    ("metrics", *SO5, "--params=-1,1/2,1,1"): (
        "invariant family dimension: 4\n"
        "  t_A1       a:diag:A1\n"
        "  u_A1       a:offdiag:A1\n"
        "  t_B1       b:diag:B1\n"
        "  t_C2       c:diag:C2\n"
        "naturally reductive subfamily dimension: 1\n"
        "inertia at given values: (4, 4, 0)\n"
    ),
    ("reductive", "--n", "4", "--partition", "1,1,1,1"): (
        "naturally reductive subfamily dimension: 2\n"
        "  s1: t_A1=0, u_A1=1, t_A2=0, t_B1=0, u_B1=-1, t_B2=0, t_C1=0, u_C1=1, t_C2=0\n"
        "  s2: t_A1=1, u_A1=0, t_A2=1, t_B1=1, u_B1=0, t_B2=1, t_C1=1, u_C1=0, t_C2=1\n"
    ),
    ("lorentz", "--n", "5", "--partition", "1,1,3,0"): (
        "lorentzian member: t_A1=-1, t_B1=1, t_C2=1\n"
        "inertia: (6, 1, 0)\n"
    ),
    ("geodesic", *SO5, "--generator", "E13", "--t-samples", "0.1,1"): (
        "generator E13: closed curve, period 2*pi\n"
        "t = 0.1:\n"
        "   0.995004165278   0.000000000000   0.099833416647   0.000000000000   0.000000000000\n"
        "   0.000000000000   1.000000000000   0.000000000000   0.000000000000   0.000000000000\n"
        "  -0.099833416647   0.000000000000   0.995004165278   0.000000000000   0.000000000000\n"
        "   0.000000000000   0.000000000000   0.000000000000   1.000000000000   0.000000000000\n"
        "   0.000000000000   0.000000000000   0.000000000000   0.000000000000   1.000000000000\n"
        "t = 1:\n"
        "   0.540302305868   0.000000000000   0.841470984808   0.000000000000   0.000000000000\n"
        "   0.000000000000   1.000000000000   0.000000000000   0.000000000000   0.000000000000\n"
        "  -0.841470984808   0.000000000000   0.540302305868   0.000000000000   0.000000000000\n"
        "   0.000000000000   0.000000000000   0.000000000000   1.000000000000   0.000000000000\n"
        "   0.000000000000   0.000000000000   0.000000000000   0.000000000000   1.000000000000\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(TEXT_OUTPUTS))
def test_text_outputs_pinned(capsys, argv):
    assert run_ok(capsys, [*argv, "--format", "text"]) == TEXT_OUTPUTS[argv]


def test_output_deterministic(capsys):
    first = run_ok(capsys, ["metrics", *SO5])
    second = run_ok(capsys, ["metrics", *SO5])
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "fam.json"
    out = run_ok(capsys, ["metrics", *SO5, "--out", str(target)])
    assert out == ""
    assert json.loads(target.read_text())["family_dim"] == 4


def test_report_writes_manifest(tmp_path, capsys):
    outdir = tmp_path / "rep"
    run_ok(capsys, ["report", *SO5, "--out", str(outdir)])
    names = {
        "grade.json",
        "family.json",
        "reductive.json",
        "curvature.json",
        "curvature.csv",
        "connection.json",
        "lorentz.json",
        "manifest.json",
    }
    assert {p.name for p in outdir.iterdir()} == names
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest["files"]) == names - {"manifest.json"}
    for name, meta in manifest["files"].items():
        payload = (outdir / name).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == meta["sha256"]
        assert len(payload) == meta["bytes"]
    conn = json.loads((outdir / "connection.json").read_text())
    assert conn["contraction_vanishes"] is True and conn["totally_skew"] is True


def test_report_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_ok(capsys, ["report", *SO5, "--out", str(a)])
    run_ok(capsys, ["report", *SO5, "--out", str(b)])
    for p in sorted(a.iterdir()):
        assert p.read_bytes() == (b / p.name).read_bytes()


def test_report_checks_additivity_once(tmp_path, capsys, monkeypatch):
    """``grade.json`` carries the one additivity check; the split of a block
    grading holds it by proof and runs none."""
    import gammasym.cli
    import gammasym.grading

    calls = []
    verify = gammasym.grading.verify_grading

    def counted(g):
        calls.append(g)
        return verify(g)

    monkeypatch.setattr(gammasym.grading, "verify_grading", counted)
    monkeypatch.setattr(gammasym.cli, "verify_grading", counted)
    run_ok(capsys, ["report", *SO5, "--out", str(tmp_path / "rep")])
    assert len(calls) == 1


def test_report_requires_out(capsys):
    assert "--out" in run_err(capsys, ["report", *SO5])


def test_n_and_partition_are_checked_first(capsys):
    bad = ["--n", "5", "--partition", "2,2,2,0"]
    assert "partition" in run_err(capsys, ["report", *bad])
    assert "partition" in run_err(capsys, ["geodesic", *bad, "--t-samples", ""])


# each report file but connection.json, with the subcommand and format
# whose stdout it is
REPORT_SOURCES = {
    "grade.json": ["grade"],
    "family.json": ["metrics"],
    "reductive.json": ["reductive"],
    "curvature.json": ["curvature"],
    "curvature.csv": ["curvature", "--format", "csv"],
    "lorentz.json": ["lorentz"],
}


@pytest.mark.parametrize("part", ["3,0,0,0", "1,1,1,1", "2,2,1,0", "1,1,3,0"])
def test_report_files_are_what_the_subcommands_print(tmp_path, capsys, part):
    args = ["--n", str(sum(map(int, part.split(",")))), "--partition", part]
    outdir = tmp_path / "rep"
    run_ok(capsys, ["report", *args, "--out", str(outdir)])
    for name, (cmd, *fmt) in REPORT_SOURCES.items():
        printed = run_ok(capsys, [cmd, *args, *fmt]).encode("utf-8")
        assert (outdir / name).read_bytes() == printed, name


def test_unwritable_out_is_a_user_error(tmp_path, capsys):
    existing = tmp_path / "taken"
    existing.write_text("")
    err = run_err(capsys, ["report", *SO5, "--out", str(existing)])
    assert str(existing) in err
    missing = tmp_path / "missing" / "dir" / "x.json"
    err = run_err(capsys, ["metrics", *SO5, "--out", str(missing)])
    assert str(missing) in err
    assert not missing.parent.exists()


def test_report_validates_before_creating_out(tmp_path, capsys):
    outdir = tmp_path / "d"
    err = run_err(capsys, ["report", "--n", "2", "--partition", "1,1,0,0", "--out", str(outdir)])
    assert "n >= 3" in err
    assert not outdir.exists()


def test_n_above_size_bound_is_rejected(tmp_path, capsys):
    big = MAX_N + 1
    outdir = tmp_path / "d"
    for cmd in ("grade", "report"):
        err = run_err(capsys, [cmd, "--n", str(big), "--partition", f"{big},0,0,0", "--out", str(outdir)])
        assert f"--n {big} is above the size bound {MAX_N}" in err
    assert not outdir.exists()
    with pytest.raises(SystemExit):
        main(["report", "--help"])
    assert f"at most {MAX_N}" in capsys.readouterr().out


# sha256 of manifest.json, frozen from the dense form loops; the m = 0,
# so(4) and two-block entries, which meet every branch of the closed-form
# refinement, were frozen from the row-reduced one; the n = 29 and n = 37
# entries from the curvature JSON built as one dict per entry and encoded
# whole by ``json.dumps``.  The manifest holds the
# sha256 of every report document, so this pins all their bytes.
MANIFEST_SHA256 = {
    ("3", "3,0,0,0"): "a68978be07424e02f3a179f631e99dcda9e95ef2859cd2dd513f6d4c1aeaf483",
    ("4", "1,1,1,1"): "1e9b7782f3791566f71680d89403e635b99cabb30bcecbe06b9dd85cb3d6f632",
    ("5", "2,3,0,0"): "c25fc112b7deba4b3477278624b5cf73c1c83da4a1cf2ef0aa42f69cd759a464",
    ("5", "2,2,1,0"): "7726916cef1ced473082d34d480259485650942018025b63b46340e2d68fa81f",
    ("5", "1,1,3,0"): "864b9dd54f56ecd5b7ac1ee7d5f9c72bc06a20a36d8cd01c5e6454b78b6b52b7",
    ("7", "2,2,2,1"): "1c78fc5d8507c84a6ea02865c250bd06fc6fd331e3ea52f263063f3a8f044d90",
    ("8", "2,2,2,2"): "8e93250f0e709e9553b54350400b11778bead7499dfacdd06949c1a21e7c32d9",
    ("13", "3,3,3,4"): "2b110e5aca58ac87548e0079ab265f5158234bc232a92e73fa99e16b64d55337",
    ("17", "4,4,4,5"): "fd7552c968bdb5a36dcfa078309db883c366f8a90d17de3fd598bcdbdd2b5aaa",
    ("21", "5,5,5,6"): "62555e968ce031dce0c8b0ccd6771acb545f36ad58bfbbd2628a54724bf21f78",
    ("29", "7,7,7,8"): "2d2562eb63658a26f1a5e2631457e0fcbde233f464dfc12313646170cac4c139",
    ("37", "9,9,9,10"): "f99a07a421ca632424f9bd4ae4b96b1a76d96d38f5a4b4487e6f5fe9308126e1",
    ("55", "13,14,14,14"): "455f5c0d26e2cace3a589ec0ce5f4aed60becd9a01783b56e8a88f1fc92e4154",
}


@pytest.mark.parametrize("n, part", sorted(MANIFEST_SHA256))
def test_report_manifest_bytes_pinned(tmp_path, capsys, n, part):
    outdir = tmp_path / "rep"
    run_ok(capsys, ["report", "--n", n, "--partition", part, "--out", str(outdir)])
    digest = hashlib.sha256((outdir / "manifest.json").read_bytes()).hexdigest()
    assert digest == MANIFEST_SHA256[n, part]


def test_report_builds_no_dense_form(tmp_path, capsys, monkeypatch):
    """The exact pipeline reads forms through their nonzero entries only."""

    def dense(form):
        raise AssertionError("a dense Gram matrix was built")

    monkeypatch.setattr("gammasym.linalg.SymmetricForm.rows", dense)
    run_ok(capsys, ["report", "--n", "8", "--partition", "2,2,2,2", "--out", str(tmp_path / "rep")])
