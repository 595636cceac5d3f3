"""Command line round trips: JSON-lines reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
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
    # equal roots fail the build; u = 1/2 at r = 1 fails the identities
    for args in (["--u", "1,1", "--n", "2"],
                 ["--r", "1", "--n", "2", "--u", "1/2"]):
        rc, records = run(["verify", *args], tmp_path)
        assert rc == 1
        errors = [rec for rec in records if rec["kind"] == "error"]
        assert errors and not errors[0]["pass"]
        assert "ValueError" in errors[0]["error"]


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
    rc, records = run(["gram", "--shape", "(1|1)", "--u", "1,1"], tmp_path)
    assert rc == 1
    assert records[0]["kind"] == "error"
    assert "ZeroDivisionError" in records[0]["error"]


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
                 ["verify", "--n", "3", "--trunc", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
