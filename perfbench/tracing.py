"""Spans around calls into each ``wenzl`` module, recorded from outside it.

For a traced run, :meth:`Tracer.install` replaces the public functions
listed in ``TARGETS`` by wrappers, by patching module and class
attributes; :meth:`Tracer.uninstall` puts the originals back.  Patching
works because the modules call each other through module attributes
(``seminormal.build_all``, ``_linalg.det``) or through class attributes
(``ParamSet.from_u``).  ``diagrams`` is reached only through names that
``hecke`` and ``wcell`` import directly, so its time shows in their self
time.  ``combinat.standard_tableaux`` calls ``enumerate_updown`` through the
module globals, so enumeration also shows on ``gram`` and ``cellrank``.

Each span is (name, start, end, parent index, job id), kept in memory and
written out by :meth:`Tracer.write`.  A span's self time is its duration
minus the durations of its direct children; with one thread, children are
disjoint and lie inside their parent, so the self times of all spans of a
job add up to the duration of its root span, ``cli``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter
from time import perf_counter


def _tableaux(tr, args, result):
    tr.counts["combinat.tableaux"] += len(result)


def _blocks(tr, args, result):
    tr.counts["seminormal.blocks"] += 1
    tr.counts["seminormal.dim_sq_sum"] += result.dim ** 2


def _basis(tr, args, result):
    mb = args[0]
    tr.counts["hecke.basis_builds"] += 1
    tr.counts["hecke.basis_size"] += len(mb.triples)
    tr.built.add((mb.H.n, mb.H.ps.u))


def _gram_entries(tr, args, result):
    tr.counts["hecke.gram_entries"] += len(result) ** 2


def _evaluated(tr, args, result):
    real, terms = args[0], args[1]
    tr.counts["wcell.words"] += len(terms)
    tr.counts["wcell.block_products"] += len(real.reps) * sum(len(w) for _, w in terms)


# (span name, module, class or None, attribute, counter or None)
TARGETS = (
    ("params.paramset", "wenzl.params", "ParamSet", "from_u", None),
    ("params.omega_k", "wenzl.params", None, "omega_k_values", None),
    ("params.wk", "wenzl.params", None, "wk_rational", None),
    ("params.wk", "wenzl.params", None, "wk_recursive_rational", None),
    ("combinat.enumerate", "wenzl.combinat", None, "enumerate_updown", _tableaux),
    ("seminormal.build", "wenzl.seminormal", None, "build_all", None),
    ("seminormal.build", "wenzl.seminormal", None, "build_rep", _blocks),
    ("seminormal.relations", "wenzl.seminormal", None, "verify_relations", None),
    ("seminormal.identities", "wenzl.seminormal", None, "check_identities", None),
    ("hecke.basis", "wenzl.hecke", "HeckeAlgebra", "__init__", None),
    ("hecke.basis", "wenzl.hecke", "MurphyBasis", "__init__", _basis),
    ("hecke.gram", "wenzl.hecke", None, "gram_matrix", _gram_entries),
    ("hecke.gamma", "wenzl.hecke", None, "gamma_coeffs", None),
    ("hecke.gamma", "wenzl.hecke", None, "gamma_path_independent", None),
    ("linalg.inverse", "wenzl._linalg", None, "inverse", None),
    ("linalg.det", "wenzl._linalg", None, "det", None),
    ("wcell.report", "wenzl.wcell", None, "cellular_rank_report", None),
    ("wcell.words", "wenzl.wcell", None, "cellular_element", None),
    ("wcell.evaluate", "wenzl.wcell", "Realization", "evaluate_sum", _evaluated),
    ("wcell.rank", "wenzl.wcell", None, "_rank_from_vecs", None),
)
ROOT = "cli"
SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(t[0] for t in TARGETS))
COUNT_NAMES = ("cli.report_bytes", "combinat.tableaux", "seminormal.blocks",
               "seminormal.dim_sq_sum", "hecke.basis_builds", "hecke.basis_size",
               "hecke.gram_entries", "wcell.words", "wcell.block_products")


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.built: set = set()      # distinct (n, u) a Murphy basis was built for
        self.job = None
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, module, cls, attr, counter in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, counter))
            else:
                new = self.wrap(name, raw, counter)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            out[name] += end - start - cov
        return out

    def root_time(self) -> float:
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if parent is None)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "job": job}) + "\n")
