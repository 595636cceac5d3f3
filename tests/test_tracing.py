"""The benchmark's tracer patches ``wenzl`` functions by name; every name it
lists must exist, be called, and come back unpatched."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from wenzl import combinat
from wenzl.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module, cls):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls is not None else owner


def test_tracer_targets_resolve_and_restore(tmp_path):
    tracing = _load_tracing()
    originals = [inspect.getattr_static(_owner(module, cls), attr)
                 for _, module, cls, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    tracer.install()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for (_, module, cls, attr, _), raw in zip(tracing.TARGETS, originals):
            assert inspect.getattr_static(_owner(module, cls), attr) is not raw
        assert main(["verify", "--r", "1", "--n", "2",
                     "--out", str(tmp_path / "out.jsonl")]) == 0
        # one job of each other kind, under the root span the benchmark uses
        traced_main = tracer.wrap(tracing.ROOT, main)
        assert traced_main(["gram", "--shape", "(1|1)",
                            "--out", str(tmp_path / "gram.jsonl")]) == 0
        assert traced_main(["cellrank", "--r", "1", "--n", "2",
                            "--out", str(tmp_path / "cell.jsonl")]) == 0
    finally:
        sys.setprofile(previous)
        tracer.uninstall()
    for (_, module, cls, attr, _), raw in zip(tracing.TARGETS, originals):
        assert inspect.getattr_static(_owner(module, cls), attr) is raw
    # a verify job reaches every parameter layer through the patched names
    names = {span[0] for span in tracer.spans}
    assert {"params.paramset", "params.omega_k", "params.wk",
            "seminormal.build", "seminormal.relations",
            "seminormal.identities"} <= names
    # together the three jobs reach every traced name
    assert set(tracing.SPAN_NAMES) <= names
    # and each target on its own, not only one of those sharing its name
    for (name, module, cls, attr, _), raw in zip(tracing.TARGETS, originals):
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert fn.__code__ in entered, (name, module, cls, attr)


def test_traced_verify_counts_one_block_per_shape(tmp_path):
    # a traced verify --r 2 --n 3 enters build_rep once per reachable
    # shape, and each model it returns has that shape's dimension, so the
    # squares add up to r^n (2n - 1)!! = 120
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["verify", "--r", "2", "--n", "3",
                     "--out", str(tmp_path / "out.jsonl")]) == 0
    finally:
        tracer.uninstall()
    shapes = combinat.reachable_shapes(2, 3)
    dims = [combinat.count_updown(3, shape) for shape in shapes]
    assert tracer.counts["seminormal.blocks"] == len(shapes) == 12
    assert tracer.counts["seminormal.dim_sq_sum"] == sum(d * d for d in dims) == 120
