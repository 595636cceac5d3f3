"""Command line round trips: JSON-lines reports, exit codes, determinism."""

import concurrent.futures
import hashlib
import importlib
import itertools
import json
import os
import pkgutil
import random
import resource
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wenzl
from support import seeded_u, two_sided_residuals
from wenzl import cli, combinat, params, seminormal
from wenzl.cli import main
from wenzl.params import ParamSet


def run(args, tmp_path, name="out.jsonl"):
    out = tmp_path / name
    rc = main([*args, "--out", str(out)])
    lines = out.read_text().splitlines()
    return rc, [json.loads(line) for line in lines]


def summary_of(records):
    tail = [rec for rec in records if rec["kind"] == "summary"]
    assert len(tail) == 1
    return tail[0]


def _dim_squares(records) -> int:
    """The sum of the squared dims of verify's models: the updown counts
    of the reachable shapes, squared and summed."""
    return sum(rec["dim"] ** 2 for rec in records if rec["kind"] == "relations")


def test_counts_2_2(tmp_path):
    # verify reports each reachable shape's updown count as its model's dim
    rc, records = run(["verify", "--r", "2", "--n", "2"], tmp_path)
    assert rc == 0 and summary_of(records)["pass"]
    assert _dim_squares(records) == 12
    shapes = [rec["shape"] for rec in records if rec["kind"] == "relations"]
    assert [[], []] in shapes and len(shapes) == 6
    for rec in records:
        assert rec["ps"]["u"] == ["6", "-2"]
        assert rec["ps"]["precision_bits"] == 256


def test_counts_other_sizes(tmp_path):
    rc, records = run(["verify", "--r", "1", "--n", "4"], tmp_path)
    assert rc == 0 and _dim_squares(records) == 105
    rc, records = run(["verify", "--r", "3", "--n", "1"], tmp_path)
    assert rc == 0 and _dim_squares(records) == 3


def test_counts_stdout(capsys):
    assert main(["verify", "--r", "1", "--n", "2"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert _dim_squares(records) == 3


def test_verify_passes(tmp_path):
    rc, records = run(["verify", "--r", "1", "--n", "3"], tmp_path)
    assert rc == 0
    rel = [rec for rec in records if rec["kind"] == "relations"]
    assert rel and all(rec["pass"] for rec in rel)
    for rec in rel:
        assert set(rec["residuals"]) == set(seminormal.RELATION_FAMILIES)
        assert set(rec) == {"kind", "shape", "dim", "residuals", "pass", "ps"}
        assert all(v == 0 for v in rec["residuals"].values())
    ident = [rec for rec in records if rec["kind"] == "identities"]
    assert len(ident) == 1 and ident[0]["pass"] and not ident[0]["failures"]
    assert summary_of(records)["pass"]


def test_verify_reports_a_perturbed_entry(tmp_path, monkeypatch):
    # one diagonal entry of S_1 raised by 1 on the model of ((1,), ()): the
    # job exits 1, that block's record fails with the residuals the
    # two-sided reference gives, and every other block passes
    target = ((1,), ())
    build_rep = seminormal.build_rep

    def perturbed(ps, n, shape):
        rep = build_rep(ps, n, shape)
        if shape == target:
            num, den = rep.S[0].get((0, 0), (0, 1))
            rep.S[0] = {**rep.S[0], (0, 0): (num + den, den)}
        return rep

    monkeypatch.setattr(seminormal, "build_rep", perturbed)
    rc, records = run(["verify", "--r", "2", "--n", "3"], tmp_path)
    assert rc == 1 and not summary_of(records)["pass"]
    ps = ParamSet.default(2, 3)
    real = seminormal.Realization(seminormal.build_all(ps, 3))
    want = two_sided_residuals(real)
    rel = [rec for rec in records if rec["kind"] == "relations"]
    assert len(rel) == len(real.reps)
    for rec, rep, res in zip(rel, real.reps, want):
        assert rec["residuals"] == {k: float(v) for k, v in res.items()}, rep.shape
        assert rec["pass"] == (rep.shape != target) == (not any(res.values())), rep.shape


def test_the_report_is_json_dumps_per_record(tmp_path, capsys):
    # one held encoder writes the bytes json.dumps(rec, sort_keys=True) does
    records = [{"kind": "x", "b": {"z": [1, {"y": 0.0, "a": -2.5}], "a": None}, "a": 0.0},
               {"neg": -0.1, "pos": 1 / 3, "big": "7" * 5000, "name": "Ω ≤ ∞ — é",
                "pass": True}]
    want = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    cli._write_report(records, None)
    assert capsys.readouterr().out == want
    out = tmp_path / "r.jsonl"
    cli._write_report(records, open(out, "w"))
    assert out.read_text() == want


def test_verify_writes_a_nonzero_residual_as_its_float(tmp_path, monkeypatch):
    # a residual of 1/3 is written as its float, every zero as 0.0
    verify_relations, names = seminormal.verify_relations, []

    def perturbed(real, omega):
        res = verify_relations(real, omega)
        names.append(next(iter(res[0])))
        res[0] = {**res[0], names[0]: Fraction(1, 3)}
        return res

    monkeypatch.setattr(seminormal, "verify_relations", perturbed)
    rc, records = run(["verify", "--r", "2", "--n", "3"], tmp_path)
    assert rc == 1
    rel = [rec["residuals"] for rec in records if rec["kind"] == "relations"]
    assert rel[0].pop(names[0]) == 0.3333333333333333
    zeros = [v for res in rel for v in res.values()]
    assert zeros and all(type(v) is float and v == 0 for v in zeros)
    assert (tmp_path / "out.jsonl").read_text().count(": 0.3333333333333333") == 1


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


def test_verify_and_cellrank_name_a_coinciding_content(tmp_path):
    # at u = (5, 3) the node (3, 1) of the first component and the empty
    # second component's (1, 1) share the content 3, so the step factor of
    # adding the first out of ((1, 1), ()) is 0: both commands end in the
    # error that names it, after every model's entries are built.  At
    # u = (1/4, 5/4) the nodes (1, 2) and (1, 1) of the two components share
    # 5/4, so the factor of adding the first to ((1,), ()) is 0, and so is
    # the gamma of the one tableau of ((2,), ()), though no generator entry
    # reads it; likewise at (-1/4, 7/4) on three strands.  Each of these is
    # a step onto a standard tableau of the f = 0 cell ``gram`` is given,
    # whose Gram determinant is 0: the Hecke quotient, and with it W_n, is
    # not semisimple there.  On one strand, equal roots still end in the
    # repeated root
    for args, cause, cell in (
            (["--u", "5,3", "--n", "3"], "coinciding contents out of shape ((1, 1), ())",
             "(1,1,1|-)"),
            (["--u", "1/4,5/4", "--n", "2"], "coinciding contents out of shape ((1,), ())",
             "(2|-)"),
            (["--u", "-1/4,7/4", "--n", "3"], "coinciding contents out of shape ((2,), ())",
             "(3|-)"),
            (["--u", "0,0", "--n", "1"], "repeated root 0 in u", None)):
        for command in ("verify", "cellrank"):
            rc, records = run([command, *args], tmp_path)
            assert rc == 1 and [rec["kind"] for rec in records] == ["error"], (command, args)
            assert records[0]["error"] == f"ValueError: {cause}: parameters not generic", (
                command, args)
        if cell:
            rc, records = run(["gram", "--u", args[1], "--shape", cell], tmp_path)
            assert rc == 0 and summary_of(records)["gram_det"] == "0", args


def test_cellrank_reaches_its_target_beyond_the_positivity_regime(tmp_path):
    # roots where the orthonormal model needs a square root of a negative
    # number, -5/4 at u = 1/3 and -221/4 at u = (7/3, -11/5): the rational
    # model is built there, and the family has full rank
    for args, target in ((["--u", "1/3", "--n", "4"], 105),
                         (["--u", "7/3,-11/5", "--n", "3"], 120)):
        rc, records = run(["cellrank", *args], tmp_path)
        s = summary_of(records)
        assert rc == 0 and s["pass"], args
        assert s["rank"] == s["target"] == target, args


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
        r, n = rng.choice(((1, 2), (1, 3), (2, 2), (2, 3), (1, 4)))
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
    # condition, k and the shape.  The descents are read tableau by tableau
    # in shape_words order, so where several gaps vanish the first met in
    # that order is named: at (2,1|1) and u = (-2, -3) that is k=2, where a
    # walk down dominance from t^lambda met k=3 first
    for shape, u, cause in (("(1|1)", "1,1", "k=1 in shape ((1,), (1,))"),
                            ("(2|1)", "0,1", "k=2 in shape ((2,), (1,))"),
                            ("(2,1|1)", "-2,-3", "k=2 in shape ((2, 1), (1,))")):
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


def test_gram_reports_do_not_depend_on_batch_order(tmp_path):
    # every shape at (3,2), (1,4) and (2,3), at default and seeded roots, in
    # one process with the sizes interleaved and then grouped: each report
    # is byte for byte the same job's in a fresh process, so no table held
    # per size, shape or parameter set leaks from one job into another
    groups = [[["gram", _shape_arg(lam), _u_arg(u)]
               for u in (combinat.default_u(r, n), seeded_u("batch-order", r, n))
               for lam in combinat.multipartitions(r, n)]
              for r, n in ((3, 2), (1, 4), (2, 3))]
    grouped = [argv for group in groups for argv in group]
    interleaved = [argv for column in itertools.zip_longest(*groups)
                   for argv in column if argv is not None]
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def fresh(k):
        out = tmp_path / f"fresh-{k}.jsonl"
        proc = subprocess.run([sys.executable, "-m", "wenzl.cli", *grouped[k], "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.stderr == "", grouped[k]
        return proc.returncode, out.read_bytes()

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        want = dict(zip(map(tuple, grouped), pool.map(fresh, range(len(grouped)))))
    out = tmp_path / "out.jsonl"
    for order in (interleaved, grouped):
        for argv in order:
            rc = main([*argv, "--out", str(out)])
            assert (rc, out.read_bytes()) == want[tuple(argv)], argv
    assert len(want) == 48 and all(rc == 0 for rc, _ in want.values())


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
        assert set(s) == {"kind", "command", "n", "count", "rank", "target", "pass", "ps"}
        cells = [rec for rec in records if rec["kind"] == "cell"]
        assert sum(rec["members"] ** 2 for rec in cells) == target


def test_omega_example(tmp_path):
    # Omega at u = 3/2, read off W at the empty shape; verify's summary
    # names Omega_0 ... Omega_{r+2}, the scalars its unwrapping relations read
    ps = ParamSet.from_u((Fraction(3, 2),))
    assert params.omega_k_values(combinat.empty_mp(1), ps, 4) == [
        4, 6, 9, Fraction(27, 2), Fraction(81, 4)]
    rc, records = run(["verify", "--r", "1", "--u", "3/2", "--n", "2"], tmp_path)
    assert rc == 0
    s = summary_of(records)
    assert s["omega"] == ["4", "6", "9", "27/2"]
    assert set(s) == {"kind", "command", "n", "modules", "omega", "pass", "ps"} and s["pass"]


def test_verify_expands_omega_once_per_job(tmp_path, monkeypatch):
    # the unwrapping relations and the summary read one expansion of W at
    # the empty shape, to Omega_{r+2}, and no other shape's is taken
    omega_k_values, calls = params.omega_k_values, []

    def counted(mu, ps, A):
        calls.append((mu, A))
        return omega_k_values(mu, ps, A)

    monkeypatch.setattr(params, "omega_k_values", counted)
    for r, n in ((1, 2), (2, 3), (3, 3), (2, 4)):
        calls.clear()
        rc, records = run(["verify", "--r", str(r), "--n", str(n)], tmp_path)
        assert rc == 0 and calls == [(combinat.empty_mp(r), r + 2)], (r, n, calls)
        ps = ParamSet.default(r, n)
        want = omega_k_values(combinat.empty_mp(r), ps, r + 2)
        assert summary_of(records)["omega"] == [params.format_fraction(w) for w in want]


def test_config_file_overrides_flags(tmp_path):
    # --config is gone: a valid config file is a usage error, and the flags
    # alone set (r, u, n)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u": ["3/2"], "N": 10}))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--u", "3/2", "--n", "2", "--config", str(cfg)])
    assert exc.value.code == 2
    rc, records = run(["verify", "--u", "3/2", "--n", "2"], tmp_path)
    assert rc == 0
    ps = summary_of(records)["ps"]
    assert ps["r"] == 1 and ps["u"] == ["3/2"]
    assert ps["precision_bits"] == 256


def test_every_record_carries_the_roots_alone(tmp_path):
    # a parameter set is its roots: every record of every command, an error
    # record too, has ps = {precision_bits, r, u}
    for argv in (["verify"], ["verify", "--n", "2"], ["gram", "--shape", "(1|1)"],
                 ["cellrank", "--n", "2"], ["cellrank"],
                 ["verify", "--u", "1,1", "--n", "2"]):
        rc, records = run(argv, tmp_path)
        assert records[-1]["kind"] == ("error" if "1,1" in argv else "summary"), argv
        for rec in records:
            assert set(rec["ps"]) == {"precision_bits", "r", "u"}, (argv, rec["kind"])


def test_byte_identical_reruns(tmp_path):
    for args in (["verify", "--r", "1", "--n", "2"],
                 ["gram", "--shape", "(1|1)"],
                 ["cellrank", "--r", "1", "--n", "2"]):
        a = tmp_path / f"{args[0]}-a.jsonl"
        b = tmp_path / f"{args[0]}-b.jsonl"
        for path in (a, b):
            assert main([*args, "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
    # roots whose first entry is negative: the space-separated form gives the
    # same report as the "=" form
    for args, u in ((["verify", "--n", "2"], "-3,9"),
                    (["cellrank", "--r", "1", "--n", "2"], "-3/2"),
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
    cases += [[command, *args] for command in ("verify", "cellrank")
              for args in (["--n", "0"], ["--u", "1,1"],
                           ["--r", "1", "--n", "2", "--u", "1/2"])]
    # roots whose exact values run to thousands of digits
    cases += [["cellrank", "--u", "1e400", "--n", "1"], ["gram", "--shape", "(1)", "--u", "1e400"],
              ["verify", "--u", "1e5000", "--n", "0"]]
    for argv in cases:
        rc, records = run(argv, tmp_path)
        assert rc in (0, 1), argv
        assert records and all("ps" in rec for rec in records), argv
        assert records[-1]["kind"] in ("summary", "error"), argv
        # exit 0 exactly when no record fails
        assert (rc == 0) == all(rec.get("pass", True) for rec in records), argv


def _out_of_memory(argv, out):
    """``wenzl.cli`` run on argv with --out, in a child process under a
    200 MB address-space limit set on the child alone."""
    limit = 200 * 2 ** 20
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "wenzl.cli", *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


def test_out_of_memory_ends_in_a_record(tmp_path):
    # gram at (2, 6) under a 200 MB address-space limit set on the child
    # process alone: its Hecke tables run out of memory, and the job ends
    # in the named error record with exit 1, written to --out, not in a
    # traceback that leaves the file empty
    out = tmp_path / "out.jsonl"
    proc = _out_of_memory(["gram", "--r", "2", "--n", "6", "--shape", "3,2|1"], out)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")
    assert [json.loads(line) for line in out.read_text().splitlines()] == [
        {"kind": "error", "command": "gram",
         "error": "MemoryError: out of memory at r=2, n=6", "pass": False,
         "ps": {"precision_bits": 256, "r": 2, "u": ["18", "-6"]}}]


def test_verify_out_of_memory_ends_in_a_record(tmp_path):
    # verify at (3, 6) under the same limit: its models run out of memory,
    # and the job ends in the same record, written to --out
    out = tmp_path / "out.jsonl"
    proc = _out_of_memory(["verify", "--r", "3", "--n", "6"], out)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")
    assert [json.loads(line) for line in out.read_text().splitlines()] == [
        {"kind": "error", "command": "verify",
         "error": "MemoryError: out of memory at r=3, n=6", "pass": False,
         "ps": {"precision_bits": 256, "r": 3, "u": ["30", "-18", "6"]}}]


def _under_limit(argv, out, mb: int):
    """``wenzl.cli`` run on argv with --out, in a child process under an
    address-space limit of ``mb`` MiB set on the child alone."""
    limit = mb * 2 ** 20
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "wenzl.cli", *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


@pytest.mark.parametrize("mb", [165, 190, 220])
def test_verify_out_of_memory_ends_in_a_record_wherever_the_limit_falls(mb, tmp_path):
    # verify at (3, 6) under limits on both sides of the 200 MB one, each
    # on its own child: every one ends in the same record, with exit 1 and
    # nothing on stdout or stderr, not in a traceback
    out = tmp_path / "out.jsonl"
    proc = _under_limit(["verify", "--r", "3", "--n", "6"], out, mb)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", ""), mb
    assert [json.loads(line) for line in out.read_text().splitlines()] == [
        {"kind": "error", "command": "verify",
         "error": "MemoryError: out of memory at r=3, n=6", "pass": False,
         "ps": {"precision_bits": 256, "r": 3, "u": ["30", "-18", "6"]}}]


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the mapped size")
def test_verify_refuses_a_job_that_would_not_fit_before_it_builds(tmp_path, monkeypatch):
    # the address space left under RLIMIT_AS, read as the limit less the
    # size mapped, against the bound of a (2, 3) job, 32 rows: below it,
    # the job ends in the out-of-memory record before it builds a model;
    # with room for it, the same job runs and passes
    with open("/proc/self/statm") as f:
        mapped = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    bound = 2048 * (3 + 2) * 32 + 2 ** 22
    build_all = seminormal.build_all
    builds = []
    monkeypatch.setattr(seminormal, "build_all", lambda *a: builds.append(a) or build_all(*a))
    for room, rc, kinds in ((bound // 2, 1, ["error"]),
                            (4 * bound, 0, ["relations"] * 12 + ["identities", "summary"])):
        monkeypatch.setattr(resource, "getrlimit",
                            lambda kind: (mapped + room, resource.RLIM_INFINITY))
        got, records = run(["verify", "--r", "2", "--n", "3"], tmp_path)
        assert (got, [rec["kind"] for rec in records]) == (rc, kinds), room
        assert len(builds) == rc ^ 1
    assert records[0]["pass"]


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the mapped size")
def test_cellrank_refuses_a_job_that_would_not_fit_before_it_builds(tmp_path, monkeypatch):
    # cellrank builds the same realization under its own bound, 128 bytes
    # per row, cell, strand and root and 1,280 per member of the family:
    # with the room under RLIMIT_AS below that of a (2, 3) job, 32 rows, 12
    # cells and 120 members, the job ends in the out-of-memory record with
    # exit 1 before any model is built; with room for it, the same job runs
    # and passes
    with open("/proc/self/statm") as f:
        mapped = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    bound = 128 * (3 + 2) * 32 * 12 + 1280 * 120 + 2 ** 22
    build_all = seminormal.build_all
    builds = []
    monkeypatch.setattr(seminormal, "build_all", lambda *a: builds.append(a) or build_all(*a))
    monkeypatch.setattr(resource, "getrlimit",
                        lambda kind: (mapped + bound // 2, resource.RLIM_INFINITY))
    assert run(["cellrank", "--r", "2", "--n", "3"], tmp_path) == (1, [
        {"kind": "error", "command": "cellrank",
         "error": "MemoryError: out of memory at r=2, n=3", "pass": False,
         "ps": {"precision_bits": 256, "r": 2, "u": ["9", "-3"]}}])
    assert builds == []
    monkeypatch.setattr(resource, "getrlimit",
                        lambda kind: (mapped + 4 * bound, resource.RLIM_INFINITY))
    rc, records = run(["cellrank", "--r", "2", "--n", "3"], tmp_path)
    assert rc == 0 and summary_of(records)["pass"] and len(builds) == 1


def test_cellrank_runs_a_family_that_fits(tmp_path):
    # cellrank at (2, 5), 30,240 members on 832 rows, under a 100 MiB limit
    # on its own child: its bound admits it, and it runs and passes
    out = tmp_path / "out.jsonl"
    proc = _under_limit(["cellrank", "--r", "2", "--n", "5"], out, 100)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    s = summary_of([json.loads(line) for line in out.read_text().splitlines()])
    assert s["pass"] and s["rank"] == s["target"] == 30240


def test_out_of_memory_lets_go_of_the_held_tables(tmp_path, monkeypatch):
    # a job that runs out of memory after filling the tables: every table
    # held for the process is let go before the record is written
    def exhausted(ps, args):
        seminormal.build_all(ps, args.n)
        assert ps.steps and params._param_set.cache_info().currsize == 1
        held.append(ps)
        raise MemoryError

    held = []
    monkeypatch.setitem(cli.COMMANDS, "verify", exhausted)
    rc, records = run(["verify", "--r", "2", "--n", "3"], tmp_path)
    assert rc == 1 and [rec["kind"] for rec in records] == ["error"]
    assert records[0]["error"] == "MemoryError: out of memory at r=2, n=3"
    assert held[0].steps == {} and held[0].murphy == {}
    assert all(hold.cache_info().currsize == 0 for hold in cli.held(cli.HOLDS + cli.LATTICE))


def test_verify_jobs_share_the_model_patterns_of_their_size(tmp_path):
    # the pattern of a model reads no root: two verify jobs at (2, 3) with
    # other roots hold one pattern per reachable shape, the same objects,
    # and a job at a new size adds exactly the shapes of that size; cli
    # names the hold, so running out of memory lets go of it
    hold = seminormal.model_pattern
    assert ("seminormal", "model_pattern") in cli.HOLDS and hold.cache_info().currsize == 0
    assert run(["verify", "--r", "2", "--n", "3"], tmp_path)[0] == 0
    shapes = combinat.reachable_shapes(2, 3)
    assert hold.cache_info().currsize == len(shapes) == 12
    held = [hold(3, shape) for shape in shapes]
    assert run(["verify", "--n", "3", "--u", "7/2,-5/3"], tmp_path)[0] == 0
    assert hold.cache_info().currsize == 12
    assert all(hold(3, shape) is pattern for shape, pattern in zip(shapes, held))
    assert run(["verify", "--r", "2", "--n", "2"], tmp_path)[0] == 0
    assert hold.cache_info().currsize == 12 + len(combinat.reachable_shapes(2, 2)) == 18


def test_every_module_cache_is_a_hold_of_cli():
    # each functools cache at module level in the package, found as an
    # attribute with cache_clear, is named once in cli's two tuples, so an
    # out-of-memory job lets go of every table held for the process
    caches = set()
    for info in pkgutil.iter_modules(wenzl.__path__):
        module = importlib.import_module(f"wenzl.{info.name}")
        caches |= {x for x in vars(module).values() if hasattr(x, "cache_clear")}
    names = cli.HOLDS + cli.LATTICE
    held = cli.held(names)
    assert caches and len(set(names)) == len(names) == len(held) and caches == set(held)


def test_cli_imports_no_mpmath():
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wenzl.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_a_process_imports_only_what_its_command_runs():
    # import wenzl.cli, then one job of a command, in a fresh child: no
    # mpmath and no dataclasses, and exactly the wenzl modules of the
    # command; importing cli alone, or a usage error, loads only combinat
    # and params
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import contextlib, io, sys, wenzl.cli\n"
            "if sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "        wenzl.cli.main(sys.argv[1:])\n"
            "print(' '.join(sorted(m for m in sys.modules if m == 'wenzl'\n"
            "                      or m.startswith('wenzl.') or m in ('mpmath', 'dataclasses'))))")
    base = {"wenzl", "wenzl.cli", "wenzl.combinat", "wenzl.params"}
    for argv, modules in (([], ()), (["verify", "--r", "0"], ()), (["frobnicate"], ()),
                          (["verify", "--n", "2"], ("_linalg", "seminormal")),
                          (["gram", "--shape", "(1|1)"], ("_linalg", "hecke")),
                          (["cellrank", "--r", "1", "--n", "2"],
                           ("_linalg", "hecke", "seminormal", "wcell"))):
        out = subprocess.run([sys.executable, "-c", code, *argv],
                             env=env, capture_output=True, text=True, check=True)
        assert set(out.stdout.split()) == base | {f"wenzl.{m}" for m in modules}, argv


def test_usage_errors():
    for args in (["verify", "--r", "0"],
                 ["frobnicate"],
                 ["gram"],                      # missing --shape
                 ["gram", "--shape", "(1|1)", "--n", "5"],
                 ["cellrank", "--u", "not-a-number"],
                 ["verify", "--precision", "16"],
                 # --order went with the command that read it
                 ["cellrank", "--order", "8"],
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
    # unrecognized arguments after a command too: its parser reads the argv
    for args, prog in ((["cellrank", "--r", "0"], "wenzl cellrank"),
                       (["verify", "--r", "3", "--u", "1,2"], "wenzl verify"),
                       (["cellrank", "--u", "not-a-number"], "wenzl cellrank"),
                       (["verify", "--precision", "16"], "wenzl verify"),
                       (["gram", "--shape", "(1|1)", "extra"], "wenzl gram")):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} "), args
        assert f"{prog}: error:" in err, args
        if args[-1] in ("16", "extra"):
            assert f"{prog}: error: unrecognized arguments: " in err, args


def test_no_command_first_reaches_the_top_level_parser(capsys):
    # help, no argv, an unknown command and an option before the command;
    # counts and omega are unknown commands
    for args, code in (([], 2), (["-h"], 0), (["frobnicate"], 2), (["--n", "3", "verify"], 2),
                       (["counts", "--r", "2", "--n", "2"], 2),
                       (["omega", "--r", "1", "--u", "3/2", "--order", "4"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == code, args
        captured = capsys.readouterr()
        text = captured.out if code == 0 else captured.err
        assert text.startswith("usage: wenzl [-h] {verify,gram,cellrank} ..."), args


def test_three_commands_one_per_statement():
    # one command per statement of the paper; a command removed from one
    # table but not the other fails here
    assert cli.COMMANDS.keys() == cli._COMMAND_PARSERS.keys() == {"verify", "gram", "cellrank"}


def test_command_parsers_are_held_and_print_the_same_help(capsys):
    assert list(cli._COMMAND_PARSERS) == list(cli.COMMANDS)
    for cmd in cli.COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([cmd, "-h"])
        assert exc.value.code == 0
        direct = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli._PARSER.parse_args([cmd, "-h"])
        assert exc.value.code == 0
        assert direct == capsys.readouterr(), cmd
        assert direct.out.startswith(f"usage: wenzl {cmd} [-h] "), cmd


def test_out_into_a_missing_directory_is_a_usage_error(tmp_path):
    # so is a name the system refuses as too long, before the job runs
    missing = tmp_path / "missing" / "r.jsonl"
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for out in (missing, tmp_path / ("x" * 300)):
        proc = subprocess.run(
            [sys.executable, "-m", "wenzl.cli", "verify", "--out", str(out)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 2, out
        assert proc.stderr.startswith("usage: wenzl verify ")
        assert "wenzl verify: error: --out" in proc.stderr
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


def test_a_job_that_raises_leaves_its_out_file_empty(tmp_path, monkeypatch):
    # --out is emptied as the job starts, so a job that ends in an exception
    # that main does not catch leaves no earlier run's report behind
    out = tmp_path / "out.jsonl"
    assert main(["verify", "--out", str(out)]) == 0 and out.read_text()

    def broken(ps, args):
        raise RuntimeError("not caught")

    monkeypatch.setitem(cli.COMMANDS, "verify", broken)
    with pytest.raises(RuntimeError, match="not caught"):
        main(["verify", "--out", str(out)])
    assert out.read_text() == ""


def test_out_naming_a_directory_or_nothing_is_a_usage_error(tmp_path):
    target = tmp_path / "dir"
    target.mkdir()
    src = str(Path(wenzl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for out in (str(target), str(target / "new") + os.sep, ""):
        proc = subprocess.run(
            [sys.executable, "-m", "wenzl.cli", "verify", "--out", out],
            env=env, cwd=target, capture_output=True, text=True)
        assert proc.returncode == 2, out
        assert proc.stderr.startswith("usage: wenzl verify ")
        assert f"wenzl verify: error: --out {out!r}: not a file name" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert list(target.iterdir()) == []


# sha256 of the exit code and report of each input; a change of matrix format
# or arithmetic must leave them alone.  The verify reports count one
# w-recursion record per lattice edge out of a shape of size <= n - 2, and
# self-adjointness once per window as star-symmetry among the identities,
# not among each model's residuals, and no class sum, content-swap,
# swap-degenerate-unit, contraction-inverse or swap-contraction-matching:
# the partial fractions decide the first, the next two hold at any roots,
# and untwisting, tangle and involution decide the last two.  No residual
# is of a commutation of distant letters, which every built model satisfies,
# nor of the scalar tower, which the placement of E_k and the partial
# fractions decide.
# Each verify summary names Omega_0 ... Omega_{r+2}.
GOLDEN_REPORTS = {
    "verify --r 2 --n 3":
        "e57dab1b39a1d30476854dd14e2423a14d136c471a131e80b4705a2c093cd5fb",
    "verify --r 3 --n 3 --u 120,-72,24":
        "528b81b39a8d75ac96f06f1c79a5226a14b408f68b75d3d15a46bfe1f0e310f7",
    # n = 4: the windows out of nonempty shapes, and the relations at i = 2
    "verify --r 1 --n 4":
        "98e44ac80cc67e5501c6c8ca24c96b1440ae6b935805738e0e0029bea6599899",
    "verify --r 2 --n 4":
        "99cf9577356c71c3d5dd0d601dd3abbc06a189c7b8e2465d505498c3d76c1686",
    "gram --shape (3|-)":
        "b31db084f402dccfe972ec55b681087fd469d249cb997f9cb21d29079495c88a",
    "gram --shape (2,1|-)":
        "84982d339e393871d6c0f33501154be9e766c4338b131a8b534762598c490fc3",
    "gram --shape (1,1,1|-)":
        "b0f7193263dca36527afbb87c7c0e2c45e272ebf9b368d565204c216b45015b1",
    "gram --shape (2|1)":
        "53449e2a6b146f149899c185eb46730812009b020642c2fb49d6eb44205737c9",
    "gram --shape (1,1|1)":
        "9ffee80f7ab51a5f27ed5b7da34a9ccc3fc1b20b3626bd83012d1ee9b7e6dbe4",
    "gram --shape (1|2)":
        "2df14f47ca3a5d8656d484585833ec716b51306ca30429fe048e50a00907e0f9",
    "gram --shape (1|1,1)":
        "2cd41e41c03b44b79fadf42385f46290995dc1ec4e4c72662e5bb73837f8632d",
    "gram --shape (-|3)":
        "622bc5c3d1abe2b9e007d91c7b293824d378df0ade71b26352816791db54e878",
    "gram --shape (-|2,1)":
        "8e3f86daf8ad4018ee263324c3213292c9c289ec5366fe33d2435b88adeac13f",
    "gram --shape (-|1,1,1)":
        "48f9268a01e239012021a993fcf1b462a4b28f971cac5dc3baa9031075dee8e9",
    # r = 3, n = 3: a Hecke quotient of dimension 162, which no other case reaches
    "gram --shape (2|1|-)":
        "8407b9ece1353080307d06a5b339599280e9aeaec26266e8fa098271f500ec39",
    "cellrank --r 3 --n 2":
        "179ad1a8ea601ef90aa07654f0d9253ba38d5063263cc88aa312044c02cb8c0f",
    "cellrank --r 4 --n 2":
        "68d8b2f8057cef9dbc37a7187630a968501d823f4a5708d2b0a0726709c34c44",
    "cellrank --r 2 --n 3":
        "cd473d079072c9e8681bd3cdccf9fbf9f749f220ef57154454d1d451f543aef5",
    "cellrank --r 1 --n 4":
        "bf56e5557a077e3c2388e4cabf4ca7fae60dde531d8abcd53a177f5e289ffa41",
    # r = 3 at four strands, and fractional roots over q = 3, as the report
    # wrote them before its factors were shared and its row sums factored
    "cellrank --r 3 --n 4":
        "b89b220aa55f1961b30a082c27f2b71fa9a0d6e1c38e8abd0c4a666478e9a52a",
    "cellrank --u 61/3,-35/3,13/3 --n 3":
        "f70e7daf3c74ee5dea64d8b8ce23a9872c50aa641c240adaeec532b1c5af4aa0",
    # the sizes where the block-triangular certificate does the most work,
    # as the elimination of the whole family wrote them
    "cellrank --r 2 --n 4":
        "6271a78ea5b82782a70c319b0447e84d68cfbece4ed9f1cfd7b1ed9f55d469f0",
    "cellrank --r 1 --n 5":
        "1a67064281f0b7bb8771cb317c09d26af78ffe3490f26a9916ba378bf7b24738",
    "cellrank --r 3 --n 3":
        "0bf3092f67feef38d88c3d3f99d3331b261422213d7d849df43adc6eff50e1b7",
    # fractional roots, whose denominators the int evaluation must carry,
    # as the Fraction-row evaluation wrote them
    "verify --u 128/7,-40/7 --n 3":
        "7d3c7e18c8a0cf2a2bc3c78c2a89b103d1a5376dfc96c7cd97cd87da2581f1fa",
    "verify --u 239/4,-145/4,47/4 --n 3":
        "25b729ba9fd6460d3333ea51d9f7655960ac515b0d979c8dc7feef249c97e237",
    "cellrank --u 61/3,-35/3,13/3 --n 2":
        "5d7e09129fa07a1f7932d57146ab9599e697916d26c512fca33b34029a618b48",
    # Murphy coordinate matrices with denominators, which the elimination
    # clears to int rows, one scale per row
    "gram --shape (2|1|-) --u 61/3,-35/3,13/3":
        "7d4fae53649b18a53bd04418cc8a751a85ab6a8f32d8369a729ff0e8c6339586",
    "gram --shape (1,1|1) --u 128/7,-40/7":
        "69ad9d6698701e32cbd547f14c7d21d775112936c9bca6566b492d5936607888",
    # roots whose cyclotomic coefficients clear over a larger denominator Q
    # than the roots' own: Q = 8 for three half-integral roots, Q = 4 at r = 1
    "gram --shape (1|1|-) --u 21/2,-11/2,5/2":
        "f25b200d47854dc3b40c4ffb3fc5a9d23f3eb21ce1b2a96c83ca859cb2ba0767",
    "gram --shape (2|-|-) --u 21/2,-11/2,5/2":
        "8c53e0658544ea6bbec7cfa950d33b02021de74c09a65f526189f023f8295c29",
    "gram --shape (3,1) --u 63/4":
        "033927ecfae2b7c2cfae3d3da636e2e3fa48f25f8c71cfa4f63049b8a18590d0",
    # roots over unequal denominators: the contents clear over q = 6, the
    # lcm of 2 and 3, though the contents of one step may need only one
    "verify --u 37/2,-11/3 --n 3":
        "1b9b198fdf39b2b8a7ef9125ffc0154fca272af5f0ba704d0f06a77852c668f1",
    # the model's build errors, each the first check to fail in build order:
    # opposite contents in a class, a zero step factor out of ((1, 1), ()),
    # found after every model's entries, equal adjacent contents in a swap
    "verify --u 0,2 --n 3":
        "a420b66a0a987f3ccf615bdfe2f96fb5fc95f13849339a1ad10913a0ab673eb8",
    "verify --u 5,3 --n 3":
        "6852774362011ae15526dd1f09ba05a56728815937c60b3286a6d8e12b9ae869",
    "verify --u 0,1 --n 3":
        "0a2d18ef10b55eb99288ecf2fa8eb042edbdd418645b7a7b06f76591bd8cca21",
    # roots where the orthonormal model needs the square root of -5/4, at
    # k = 3 from shape ((1, 1),): the rational model passes
    "verify --u 1/3 --n 4":
        "f662f849a8ac22fa3aee82e5206111d4f9eb5e18bb541404a837eb741a0f40f9",
    # gram's regime error, equal adjacent contents, which must end the job
    # before any closed gamma product meets the zero factor they bring
    "gram --shape (1|1) --u 1,1":
        "8e5439774789c5ce53c2b39a4d8bf72f7ca89dd10486a7fc3d58b15e421f124c",
    "gram --shape (2|1) --u 0,1":
        "d636348f113387b55d0b86b26235e17e154c9212d7ce72b5ef2fd6a1098d9fb0",
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
                 "verify --u 37/2,-11/3 --n 3", "verify --u 1/3 --n 4",
                 "gram --shape (2|1) --u 0,1"):
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
