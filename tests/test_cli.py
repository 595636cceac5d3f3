"""Command line round trips: JSON-lines reports, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wenzl
from wenzl.cli import main


def run(args, tmp_path, name="out.jsonl"):
    out = tmp_path / name
    rc = main([*args, "--out", str(out)])
    lines = out.read_text().splitlines()
    return rc, [json.loads(line) for line in lines]


def summary_of(records):
    tail = [rec for rec in records if rec["kind"] == "summary"]
    assert len(tail) == 1
    return tail[0]


def test_counts_2_2(tmp_path):
    rc, records = run(["counts", "--r", "2", "--n", "2"], tmp_path)
    assert rc == 0
    s = summary_of(records)
    assert s["sum_of_squares"] == 12 and s["target"] == 12 and s["pass"]
    shapes = [rec["shape"] for rec in records if rec["kind"] == "count"]
    assert [[], []] in shapes and len(shapes) == 6
    for rec in records:
        assert rec["ps"]["u"] == ["6", "-2"]
        assert rec["ps"]["precision_bits"] == 256


def test_counts_other_sizes(tmp_path):
    rc, records = run(["counts", "--r", "1", "--n", "4"], tmp_path)
    assert rc == 0 and summary_of(records)["target"] == 105
    rc, records = run(["counts", "--r", "3", "--n", "1"], tmp_path)
    assert rc == 0 and summary_of(records)["target"] == 3


def test_counts_stdout(capsys):
    assert main(["counts", "--r", "1", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1])["sum_of_squares"] == 3


def test_verify_passes(tmp_path):
    rc, records = run(["verify", "--r", "1", "--n", "3"], tmp_path)
    assert rc == 0
    rel = [rec for rec in records if rec["kind"] == "relations"]
    assert rel and all(rec["pass"] for rec in rel)
    for rec in rel:
        assert set(rec["residuals"]) >= {"braid", "skein", "cyclotomic",
                                         "unwrapping", "tower-scalars"}
        assert rec["tolerance"] == 0
        assert all(v == 0 for v in rec["residuals"].values())
    ident = [rec for rec in records if rec["kind"] == "identities"]
    assert len(ident) == 1 and ident[0]["pass"] and not ident[0]["failures"]
    assert summary_of(records)["pass"]


def test_verify_default_parameters(tmp_path):
    # defaults resolve to r=2, n=3 and pass
    rc, records = run(["verify"], tmp_path)
    assert rc == 0
    s = summary_of(records)
    assert s["ps"]["r"] == 2 and s["ps"]["u"] == ["9", "-3"]


def test_verify_rejects_degenerate_u(tmp_path):
    # equal roots and u = 0 at r = 1 fail the build; the error names the
    # condition, k and the shape before step k
    for args, cause in ((["--u", "1,1", "--n", "2"],
                         "equal adjacent contents at k=1 from shape ((), ())"),
                        (["--r", "1", "--n", "2", "--u", "0"],
                         "opposite contents in one class at k=1 from shape ((),)")):
        rc, records = run(["verify", *args], tmp_path)
        assert rc == 1
        errors = [rec for rec in records if rec["kind"] == "error"]
        assert errors and not errors[0]["pass"]
        assert "ValueError" in errors[0]["error"]
        assert cause in errors[0]["error"]


# contents collide at a shape only W_n is taken at, which no generator on n
# strands acts from: the model is built and every check passes
COLLIDING_AT_LAST_STEP = (["--r", "1", "--n", "2", "--u", "1/2"],
                          ["--r", "1", "--n", "3", "--u", "3/2"],
                          ["--n", "2", "--u", "1,-1/2"],
                          ["--n", "2", "--u", "2,-1/2"])


def test_verify_and_cellrank_pass_with_collision_at_last_step(tmp_path):
    for args in COLLIDING_AT_LAST_STEP:
        rc, records = run(["verify", *args], tmp_path)
        assert rc == 0, args
        rel = [rec for rec in records if rec["kind"] == "relations"]
        assert rel and all(rec["pass"] for rec in rel), args
        assert all(v == 0 for rec in rel for v in rec["residuals"].values())
        ident = [rec for rec in records if rec["kind"] == "identities"]
        assert len(ident) == 1 and ident[0]["pass"] and not ident[0]["failures"]
        assert ident[0]["checked"]["w-recursion"] > 0
        rc, records = run(["cellrank", *args], tmp_path)
        assert rc == 0, args
        s = summary_of(records)
        assert s["rank"] == s["target"] and s["pass"], args


def verdicts(args, tmp_path):
    """(exit code, ends in an error record) of verify and of cellrank."""
    out = []
    for command in ("verify", "cellrank"):
        rc, records = run([command, *args], tmp_path, command + ".jsonl")
        out.append((rc, any(rec["kind"] == "error" for rec in records)))
    return out


def test_verify_and_cellrank_agree_on_random_small_roots(tmp_path):
    # roots drawn from the halves in [-3, 3], so collisions and opposite
    # contents are common; both commands must reach the same verdict
    rng = random.Random(20051)
    halves = [Fraction(k, 2) for k in range(-6, 7)]
    for _ in range(30):
        r, n = rng.choice(((1, 2), (1, 3), (2, 2)))
        u = ",".join(str(rng.choice(halves)) for _ in range(r))
        args = ["--n", str(n), "--u=" + u]
        v, c = verdicts(args, tmp_path)
        assert v == c, args
    # equal roots on one strand, where no generator position k decides the
    # regime: both commands end in an error record
    for args in (["--n", "1", "--u", "0,0"], ["--r", "3", "--n", "1", "--u", "1,2,1"]):
        assert verdicts(args, tmp_path) == [(1, True), (1, True)], args


def test_verify_empty_shape(tmp_path):
    rc, records = run(["verify", "--n", "0"], tmp_path)
    assert rc == 0
    rel = [rec for rec in records if rec["kind"] == "relations"]
    assert len(rel) == 1 and rel[0]["shape"] == [[], []] and rel[0]["dim"] == 1
    assert rel[0]["pass"] and all(v == 0 for v in rel[0]["residuals"].values())
    assert summary_of(records)["pass"]


def test_verify_exact_at_large_roots(tmp_path):
    # residuals scale with the roots; an exact model has none to scale
    for u in ("120,-72,24", "100000,-3"):
        rc, records = run(["verify", "--u", u, "--n", "3"], tmp_path)
        assert rc == 0
        rel = [rec for rec in records if rec["kind"] == "relations"]
        assert rel and all(rec["pass"] for rec in rel)
        assert all(v == 0 for rec in rel for v in rec["residuals"].values())


def test_verify_precision_independent_verdicts(tmp_path):
    # the model is exact, so there is no precision to choose: --precision is
    # a usage error and every record carries the fixed 256
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--r", "1", "--n", "2", "--precision", "64"])
    assert exc.value.code == 2
    rc, records = run(["verify", "--r", "1", "--n", "2"], tmp_path)
    assert rc == 0 and all(rec["pass"] for rec in records)
    assert all(rec["ps"]["precision_bits"] == 256 for rec in records)


def test_gram_single_row(tmp_path):
    rc, records = run(["gram", "--shape", "(2)", "--u", "5"], tmp_path)
    assert rc == 0
    s = summary_of(records)
    assert s["gram_det"] == "2" and s["pass"]
    g = [rec for rec in records if rec["kind"] == "gram"][0]
    assert g["matches_product"] and g["path_independent"]


def test_gram_degenerate_parameters(tmp_path):
    # a zero content gap leaves gamma undefined; the error names the
    # condition, k and the shape
    for shape, u, cause in (("(1|1)", "1,1", "k=1 in shape ((1,), (1,))"),
                            ("(2|1)", "0,1", "k=2 in shape ((2,), (1,))")):
        rc, records = run(["gram", "--shape", shape, "--u", u], tmp_path)
        assert rc == 1
        assert records[0]["kind"] == "error"
        assert "ValueError: equal adjacent contents at " + cause in records[0]["error"]


def test_cellrank_smallest(tmp_path):
    # the rank is exact, so roots of any size reach full rank
    for args, target in ((["--r", "1", "--n", "2"], 3),
                         (["--n", "2", "--u", "100000000000000000000,-3"], 12),
                         (["--n", "2", "--u", "1" + "0" * 30 + ",-3"], 12)):
        rc, records = run(["cellrank", *args], tmp_path)
        assert rc == 0
        s = summary_of(records)
        assert s["count"] == s["rank"] == s["target"] == target
        assert set(s) == {"kind", "command", "n", "count", "rank", "target",
                          "sum_of_squares", "pass", "ps"}
        cells = [rec for rec in records if rec["kind"] == "cell"]
        assert sum(rec["members"] ** 2 for rec in cells) == target


def test_omega_example(tmp_path):
    rc, records = run(["omega", "--r", "1", "--u", "3/2", "--order", "4"],
                      tmp_path)
    assert rc == 0
    s = summary_of(records)
    assert s["omega"] == ["4", "6", "9", "27/2", "81/4"]
    assert s["admissible"] and s["first_failure"] is None
    values = [rec["value"] for rec in records if rec["kind"] == "omega"]
    assert values == s["omega"]


def test_config_file_overrides_flags(tmp_path):
    # --config is gone: a valid config file is a usage error, and the flags
    # alone set (r, u, n)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u": ["3/2"], "N": 10}))
    with pytest.raises(SystemExit) as exc:
        main(["omega", "--u", "3/2", "--order", "3", "--config", str(cfg)])
    assert exc.value.code == 2
    rc, records = run(["omega", "--u", "3/2", "--order", "3"], tmp_path)
    assert rc == 0
    ps = summary_of(records)["ps"]
    assert ps["r"] == 1 and ps["u"] == ["3/2"]
    assert ps["precision_bits"] == 256


def test_byte_identical_reruns(tmp_path):
    for args in (["counts", "--r", "1", "--n", "2"],
                 ["verify", "--r", "1", "--n", "2"],
                 ["gram", "--shape", "(1|1)"],
                 ["cellrank", "--r", "1", "--n", "2"],
                 ["omega", "--r", "1", "--n", "2"]):
        a = tmp_path / f"{args[0]}-a.jsonl"
        b = tmp_path / f"{args[0]}-b.jsonl"
        for path in (a, b):
            assert main([*args, "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
    # roots whose first entry is negative: the space-separated form gives the
    # same report as the "=" form
    for args, u in ((["verify", "--n", "2"], "-3,9"),
                    (["omega", "--r", "1"], "-3/2"),
                    (["gram", "--shape", "(1|1)"], "-1,5")):
        a = tmp_path / f"{args[0]}-space.jsonl"
        b = tmp_path / f"{args[0]}-equals.jsonl"
        assert main([*args, "--u", u, "--out", str(a)]) == 0
        assert main([*args, "--u=" + u, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text().splitlines()[-1])["ps"]["u"][0] == u.split(",")[0]


def test_shape_with_empty_first_component(tmp_path):
    # a leading "-" is an empty first component: "--shape -|1" is "--shape=-|1"
    a, b = tmp_path / "space.jsonl", tmp_path / "equals.jsonl"
    for shape in ("-|1", "-", "-|-|2,1"):
        assert main(["gram", "--shape", shape, "--out", str(a)]) == 0
        assert main(["gram", "--shape=" + shape, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), shape


def test_edge_inputs_end_in_records(tmp_path):
    # empty, degenerate and out-of-regime inputs; gram takes its size from
    # the shape, so it gets the same cases as shapes
    cases = [["gram", "--shape", "(|)"], ["gram", "--shape", "(1|1)", "--u", "1,1"],
             ["gram", "--shape", "(1,1)", "--u", "1/2"]]
    cases += [[command, *args] for command in ("counts", "verify", "cellrank", "omega")
              for args in (["--n", "0"], ["--u", "1,1"],
                           ["--r", "1", "--n", "2", "--u", "1/2"])]
    for argv in cases:
        rc, records = run(argv, tmp_path)
        assert rc in (0, 1), argv
        assert records and all("ps" in rec for rec in records), argv
        assert records[-1]["kind"] in ("summary", "error"), argv
        # exit 0 exactly when no record fails
        assert (rc == 0) == all(rec.get("pass", True) for rec in records), argv


def test_cli_imports_no_mpmath():
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wenzl.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_usage_errors():
    for args in (["counts", "--r", "0"],
                 ["frobnicate"],
                 ["gram"],                      # missing --shape
                 ["gram", "--shape", "(1|1)", "--n", "5"],
                 ["counts", "--u", "not-a-number"],
                 ["verify", "--precision", "16"],
                 ["omega", "--order", "-1"],
                 # --trunc no longer exists: (r, u, n) fix every job
                 ["verify", "--n", "3", "--trunc", "0"],
                 # --u still needs a value, and a negative one must parse
                 ["verify", "--u"],
                 ["verify", "--u", "--n", "2"],
                 ["verify", "--u", "-x"],
                 ["verify", "--u", "-3,y"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2


def test_usage_errors_after_parsing_name_the_subcommand(capsys):
    for args, prog in ((["omega", "--order", "-1"], "wenzl omega"),
                       (["verify", "--r", "3", "--u", "1,2"], "wenzl verify"),
                       (["counts", "--u", "not-a-number"], "wenzl counts")):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} "), args
        assert f"{prog}: error:" in err, args


def test_out_into_a_missing_directory_is_a_usage_error(tmp_path):
    # so is a name the system refuses as too long, before the job runs
    missing = tmp_path / "missing" / "r.jsonl"
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for out in (missing, tmp_path / ("x" * 300)):
        proc = subprocess.run(
            [sys.executable, "-m", "wenzl.cli", "counts", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2, out
        assert proc.stderr.startswith("usage: wenzl counts ")
        assert "wenzl counts: error: --out" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not missing.parent.exists()
    assert list(tmp_path.iterdir()) == []


def test_out_naming_a_directory_or_nothing_is_a_usage_error(tmp_path):
    target = tmp_path / "dir"
    target.mkdir()
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for out in (str(target), str(target / "new") + os.sep, ""):
        proc = subprocess.run(
            [sys.executable, "-m", "wenzl.cli", "counts", "--out", out],
            env=env, cwd=target, capture_output=True, text=True)
        assert proc.returncode == 2, out
        assert proc.stderr.startswith("usage: wenzl counts ")
        assert f"wenzl counts: error: --out {out!r}: not a file name" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert list(target.iterdir()) == []


# sha256 of the exit code and report of each input, as the dense-matrix code
# wrote them; a change of matrix format or arithmetic must leave them alone
GOLDEN_REPORTS = {
    "verify --r 2 --n 3":
        "157a611833c7b8730c955ebf6ae2e0da063fe5fbd3bc38525978b53c664ed4f8",
    "verify --r 3 --n 3 --u 120,-72,24":
        "32279bc7ae00be894fcf9d62680af5b92f5088edd7d6906e5f09e01221a703f9",
    "gram --shape (3|-)":
        "9e1b703b0a22b0965db2206fe52d3efcaa84e5986c80c81125f8eaf379a174aa",
    "gram --shape (2,1|-)":
        "1b8c79c062b077b3070c4502888fb4ee46fafa6905be608d49945af831524cc8",
    "gram --shape (1,1,1|-)":
        "84e1aebca30499670f00bcbe007e9eb858cb58c7b242fbae029efc550c9db5e1",
    "gram --shape (2|1)":
        "a96161a3c02731765a61b73b0cd097be12a3db236a29ce538bd7340cb6e33321",
    "gram --shape (1,1|1)":
        "5c04d2fa0f9677522fd1b2898c5c2d13de625c0ab203d95ed40f1d4647512d30",
    "gram --shape (1|2)":
        "c828b52dd670cc2d6c4afe3798fbd38852f52deabc40429571bafeb8239bfc06",
    "gram --shape (1|1,1)":
        "739689b381c1a3dbcc5e1632d3efc3f08cab474ef425017df3bab00203d92fa9",
    "gram --shape (-|3)":
        "cbb23514be58f01cfdc14d7ae2eabc32c11a7f6ab1d3f303d97215ae91517c83",
    "gram --shape (-|2,1)":
        "1fcd7c5f0637bbf170344e54d51a7d56647d264b2c2c62b6d8889154be9a5283",
    "gram --shape (-|1,1,1)":
        "dba33ae556de7e0573265c6396c66760fb70ced93b7b23b7462e188c9346461e",
    # r = 3, n = 3: a Hecke quotient of dimension 162, which no other case reaches
    "gram --shape (2|1|-)":
        "0ddf134e9ff226fbb8da4e331f9da78f7602722a4fddbd108fc2263fda2ff503",
    "cellrank --r 3 --n 2":
        "7b9db443f3708fc1160a7a0d8f69433eb81e7b4b8b446ce48f30b12e9131414c",
    "cellrank --r 4 --n 2":
        "d3ff3d327bda47acdfbd656b1838fbb254cb7318a4727f124e3d82ab2c8dd9e7",
    "cellrank --r 2 --n 3":
        "19ad87d7258c87f486163bb6a35c565071f1ef97e347245f745a4acddeb2e54b",
    "cellrank --r 1 --n 4":
        "a01552d1c80d0a7394924f4382b277a65bc37e8e06fd1827e4b00eeb96022850",
    # fractional roots, whose denominators the int evaluation must carry,
    # as the Fraction-row evaluation wrote them
    "verify --u 128/7,-40/7 --n 3":
        "34b2ac206711b0fde17c417329ab9b157831b758c1c09d489e7d822e9eb7b966",
    "verify --u 239/4,-145/4,47/4 --n 3":
        "03fcb61c9c8ca2510d14a098cd6833ab071092b019052afb63efd5aa70caf10a",
    "cellrank --u 61/3,-35/3,13/3 --n 2":
        "5adbdc7481cae9646dcc9c40329c8e4ff6971256d94f64bb87767b6ed68bcb1c",
    # the closed count of updown tableaux, with its (2m-1)!! factor
    "counts --r 3 --n 4":
        "c8c89d5fca0e767fc748c32e8d83de4b1127e702ffba0ce07854ec57cbdc769f",
    "counts --r 2 --n 5":
        "b099443e2196ed06fc98b502f02b24aeb6d55a149a16b8469f972373b2ef0146",
}


def test_reports_match_golden_digests(tmp_path):
    out = tmp_path / "out.jsonl"
    for argv, digest in GOLDEN_REPORTS.items():
        rc = main([*argv.split(), "--out", str(out)])
        got = hashlib.sha256(f"{rc}\n".encode() + out.read_bytes()).hexdigest()
        assert got == digest, argv
