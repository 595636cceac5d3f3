"""Command line round trips: JSON-lines reports, exit codes, determinism."""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wenzl
from support import seeded_u
from wenzl import combinat
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



def _shape_arg(shape) -> str:
    return "--shape=(" + "|".join(",".join(map(str, p)) or "-" for p in shape) + ")"


def _u_arg(u) -> str:
    return "--u=" + ",".join(map(str, u))


def test_gram_reports_do_not_depend_on_job_order(tmp_path, murphy_builds):
    # every shape of one parameter set, forward, reversed, and interleaved
    # with another parameter set that evicts the held one, and its basis
    shapes = list(combinat.multipartitions(2, 3))
    roots = seeded_u("order", 2, 3)
    u = _u_arg(roots)
    evict = ["gram", "--shape=(2|-|-)", _u_arg(seeded_u("order", 3, 2))]
    out = tmp_path / "out.jsonl"

    def job(argv):
        rc = main([*argv, "--out", str(out)])
        return rc, out.read_bytes()

    forward = {s: job(["gram", _shape_arg(s), u]) for s in shapes}
    assert murphy_builds == [(roots, 3)]
    backward = {s: job(["gram", _shape_arg(s), u]) for s in reversed(shapes)}
    assert murphy_builds == [(roots, 3)]
    interleaved, evicting = {}, set()
    for s in shapes:
        evicting.add(job(evict))
        interleaved[s] = job(["gram", _shape_arg(s), u])
    assert len(murphy_builds) == 1 + 2 * len(shapes)
    assert forward == backward == interleaved
    assert all(rc == 0 for rc, _ in forward.values())
    assert len(evicting) == 1 and evicting.pop()[0] == 0


def test_gram_error_repeats(tmp_path):
    # the error comes after the basis is held; a second run gives it again
    got = [run(["gram", "--shape", "(1|1)", "--u", "1,1"], tmp_path) for _ in range(2)]
    assert got[0] == got[1]
    rc, records = got[0]
    assert rc == 1 and [rec["kind"] for rec in records] == ["error"]

def test_cellrank_reports_do_not_depend_on_job_order(tmp_path, drop_holds):
    # (3,2), (2,2) and (1,3) forward, backward, and interleaved with jobs
    # at other roots and sizes that fill the held shape and cell tables
    # first, each order run cold (every hold dropped before each job) and
    # warm (the holds of the jobs before kept)
    sizes = [(3, 2), (2, 2), (1, 3)]
    argvs = {(r, n): ["cellrank", "--n", str(n), _u_arg(seeded_u("cell-order", r, n))]
             for r, n in sizes}
    others = [["cellrank", "--n", "3", _u_arg(seeded_u("cell-other", 2, 2))],
              ["gram", "--shape=(1|1|-)", _u_arg(seeded_u("cell-other", 3, 2))]]
    out = tmp_path / "out.jsonl"

    def job(argv, cold):
        if cold:
            drop_holds()
        rc = main([*argv, "--out", str(out)])
        return rc, out.read_bytes()

    runs = []
    for cold in (True, False):
        drop_holds()
        runs.append({size: job(argvs[size], cold) for size in sizes})
        runs.append({size: job(argvs[size], cold) for size in reversed(sizes)})
        interleaved = {}
        for size, other in zip(sizes, [*others, others[0]]):
            assert job(other, cold)[0] == 0
            interleaved[size] = job(argvs[size], cold)
        runs.append(interleaved)
    assert all(run == runs[0] for run in runs)
    assert all(rc == 0 for rc, _ in runs[0].values())


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


def test_shape_takes_at_most_one_enclosing_pair_of_parentheses(tmp_path, capsys):
    # one pair around the whole shape reads as the bare shape
    a, b = tmp_path / "wrapped.jsonl", tmp_path / "bare.jsonl"
    for wrapped, bare in (("(|)", "|"), ("(-|1)", "-|1"), ("(2,1|1)", "2,1|1")):
        assert main(["gram", "--shape", wrapped, "--out", str(a)]) == 0
        assert main(["gram", "--shape", bare, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), wrapped
    # an unbalanced, doubled or inner parenthesis is a usage error
    for shape in ("(1|", "1|1)", "((1|1))", "(", ")", "(2,(1)|1)", "(1)|(1)"):
        with pytest.raises(SystemExit) as exc:
            main(["gram", "--shape", shape, "--out", str(a)])
        assert exc.value.code == 2, shape
        assert f"cannot parse shape {shape!r}" in capsys.readouterr().err, shape


def test_edge_inputs_end_in_records(tmp_path):
    # empty, degenerate and out-of-regime inputs; gram takes its size from
    # the shape, so it gets the same cases as shapes
    cases = [["gram", "--shape", "(|)"], ["gram", "--shape", "(1|1)", "--u", "1,1"],
             ["gram", "--shape", "(1,1)", "--u", "1/2"]]
    cases += [[command, *args] for command in ("counts", "verify", "cellrank", "omega")
              for args in (["--n", "0"], ["--u", "1,1"],
                           ["--r", "1", "--n", "2", "--u", "1/2"])]
    # roots whose exact values run to thousands of digits
    cases += [["omega", "--u", "1e400"], ["verify", "--u", "1e5000", "--n", "0"]]
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


def test_out_holding_a_longer_report_ends_as_a_fresh_run(tmp_path):
    # the report replaces what the file held: its bytes are a fresh run's,
    # and a file that cannot hold anything, /dev/null, takes the report too
    fresh, reused = tmp_path / "fresh.jsonl", tmp_path / "reused.jsonl"
    short = ["gram", "--shape=(1|-)"]
    assert main(["verify", "--r", "2", "--n", "3", "--out", str(reused)]) == 0
    held = reused.stat().st_size
    assert main([*short, "--out", str(fresh)]) == 0
    assert 0 < fresh.stat().st_size < held
    assert main([*short, "--out", str(reused)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()
    assert main([*short, "--out", os.devnull]) == 0


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


# sha256 of the exit code and report of each input; a change of matrix format
# or arithmetic must leave them alone.  The verify reports count one
# w-recursion record per lattice edge out of a shape of size <= n - 2.
GOLDEN_REPORTS = {
    "verify --r 2 --n 3":
        "cd0832c4b2b7e1dbd1bb377757cf92ca5e0a741102714a396581ccc6de13f310",
    "verify --r 3 --n 3 --u 120,-72,24":
        "a94badca0b0f50cb88b910feab1b9ec6d0ae1d58f212967d2bc61f07c63e1339",
    # n = 4: the contraction-inverse and matching windows out of nonempty shapes
    "verify --r 1 --n 4":
        "78c2ae22ba467019697d52c7d26264e3caa1b80b2b717aed150fe4e8ad471603",
    "verify --r 2 --n 4":
        "dbc868b7da5270c9aa9bba75c4a848641c115fc87abe5047228bf26ffac64470",
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
    # r = 3 at four strands, and fractional roots over q = 3, as the report
    # wrote them before its factors were shared and its row sums factored
    "cellrank --r 3 --n 4":
        "f0ac2b7aca5ab1a1bb34b8bbbfcf6be8ddd4d9521795a908a0e40072b80fa9fb",
    "cellrank --u 61/3,-35/3,13/3 --n 3":
        "2ca6e84b9e9fb028d77ea9e8e761be278f427991d73258aba9d6f30cf346118b",
    # the sizes where the block-triangular certificate does the most work,
    # as the elimination of the whole family wrote them
    "cellrank --r 2 --n 4":
        "58280d0c5a3b37c57d8bc9292f7edb8c3208eb4708fe3992458f720c8ec6ee66",
    "cellrank --r 1 --n 5":
        "412ace5e89fe7318c59d788b86857dfcef229bdb5a2262966b2ff613eebe891f",
    "cellrank --r 3 --n 3":
        "0f442d2863c75acbdfa3dd020fb7ead4a3ed8dc5508220e80c96036d4ba41a7c",
    # fractional roots, whose denominators the int evaluation must carry,
    # as the Fraction-row evaluation wrote them
    "verify --u 128/7,-40/7 --n 3":
        "cfa5e1d90bde84ad4ce648419d9120947addd3a811c4cba73d3c05e0d8cf0be5",
    "verify --u 239/4,-145/4,47/4 --n 3":
        "7ebe72af3cc8652e723463a61b585a9923ac8d9a8199edfc40c8c28783c74cb5",
    "cellrank --u 61/3,-35/3,13/3 --n 2":
        "5adbdc7481cae9646dcc9c40329c8e4ff6971256d94f64bb87767b6ed68bcb1c",
    # Murphy coordinate matrices with denominators, which the elimination
    # clears to int rows, one scale per row
    "gram --shape (2|1|-) --u 61/3,-35/3,13/3":
        "19f70538b02269b58c3d6a4afaf1ccd1873d2d10ff184326fba389e1a3ac5703",
    "gram --shape (1,1|1) --u 128/7,-40/7":
        "808a8f023f99f8bfb4c3f4650da31c3a3b1c90c9efd4dc832c145f012cc9feae",
    # roots whose cyclotomic coefficients clear over a larger denominator Q
    # than the roots' own: Q = 8 for three half-integral roots, Q = 4 at r = 1
    "gram --shape (1|1|-) --u 21/2,-11/2,5/2":
        "280d24517d79c79b556ef6d4b087979d6bab7d882decc9f100905a30abb6d466",
    "gram --shape (2|-|-) --u 21/2,-11/2,5/2":
        "7882e077f5305270a5e2f98bb664761fa146e7a89558b43682963e735fc19ff2",
    "gram --shape (3,1) --u 63/4":
        "66a2831c4bc35e3346f62f30d3128ff30f4534f62b02527aea30ca9aba8bf337",
    # the closed count of updown tableaux, with its (2m-1)!! factor
    "counts --r 3 --n 4":
        "c8c89d5fca0e767fc748c32e8d83de4b1127e702ffba0ce07854ec57cbdc769f",
    "counts --r 2 --n 5":
        "b099443e2196ed06fc98b502f02b24aeb6d55a149a16b8469f972373b2ef0146",
    # roots over unequal denominators: the contents clear over q = 6, the
    # lcm of 2 and 3, though the contents of one step may need only one
    "verify --u 37/2,-11/3 --n 3":
        "c93310577141d022189a1e0bea6b27094d533ee9de0ccb19620bbe30441cd73e",
    # the model's build errors, each the first check to fail in build order:
    # opposite contents in a class, a negative contraction coefficient,
    # equal adjacent contents in a swap
    "verify --u 0,2 --n 3":
        "83f0d432b1939a3fbb0aba360e388d1b757daafc2f4090b5f9cfb2688158c677",
    "verify --u 5,3 --n 3":
        "9f73557ebf010ee07c67d4c2c265468ca1f902dd2d7f06e47f59596c5eaf6495",
    "verify --u 0,1 --n 3":
        "9fa052905f85bf0d824b14cf14d95f38ee3608b5a591e4a7171184b18f5d2e2b",
    # and a squared off-diagonal below zero, -5/4 at k = 3 from shape ((1, 1),)
    "verify --u 1/3 --n 4":
        "c1ee1b0200b1d03629a65e1b42ad36de7a623604841e0ef252227154eb2a5372",
}


def test_reports_match_golden_digests(tmp_path):
    out = tmp_path / "out.jsonl"
    for argv, digest in GOLDEN_REPORTS.items():
        rc = main([*argv.split(), "--out", str(out)])
        got = hashlib.sha256(f"{rc}\n".encode() + out.read_bytes()).hexdigest()
        assert got == digest, argv


def _golden_digests_without_asserts(python, tmp_path):
    """Run a subset of the goldens under ``python -O``, with the package
    on PYTHONPATH, and compare their digests."""
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "out.jsonl"
    for argv in ("verify --r 2 --n 3", "verify --r 1 --n 4", "cellrank --r 2 --n 3",
                 "gram --shape (2|1|-)", "gram --shape (1|1|-) --u 21/2,-11/2,5/2",
                 "verify --u 37/2,-11/3 --n 3", "verify --u 1/3 --n 4"):
        proc = subprocess.run(
            [python, "-O", "-m", "wenzl.cli", *argv.split(), "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.stderr == "", (python, argv)
        got = hashlib.sha256(f"{proc.returncode}\n".encode() + out.read_bytes()).hexdigest()
        assert got == GOLDEN_REPORTS[argv], (python, argv)


def _other_pythons() -> list[str]:
    """Each CPython 3.10 or later on PATH by its versioned name
    (python3.10, python3.11, ...), other than the one running the tests,
    that starts and reports that version."""
    found = []
    for minor in range(10, 20):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or (3, minor) == sys.version_info[:2]:
            continue
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.implementation.name, *sys.version_info[:2])"],
            capture_output=True, text=True)
        if probe.returncode == 0 and probe.stdout.split() == ["cpython", "3", str(minor)]:
            found.append(exe)
    return found


def test_reports_match_golden_digests_without_asserts(tmp_path):
    # python -O strips assert statements: no verdict may rest on one
    _golden_digests_without_asserts(sys.executable, tmp_path)


def test_reports_match_golden_digests_without_asserts_on_other_pythons(tmp_path):
    # pyproject.toml promises Python 3.10 or later: the same bytes under
    # every other such CPython found
    pythons = _other_pythons()
    if not pythons:
        pytest.skip("no other CPython 3.10 or later on PATH")
    for python in pythons:
        _golden_digests_without_asserts(python, tmp_path)
