"""Batch front end: parameter loading, command dispatch, JSON-lines reports.

Five subcommands: counts, verify, gram, cellrank, omega.  Output is one JSON
record per checked instance plus a summary record, each embedding the fully
resolved parameter set; identical inputs produce byte-identical output.
Exit status: 0 all checks pass, 1 any failure, 2 usage errors.

Every verdict is exact: ``verify`` passes a relation record only when every
residual is exactly 0 on the rational seminormal model (its ``tolerance`` is
0), ``gram`` compares Fractions, and ``cellrank`` takes the exact rank over Q
of the cellular family on that model.  ``--precision`` is only recorded in
the parameter set (``precision_bits``); no computation reads it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import combinat, diagrams, hecke, seminormal, wcell
from .params import ParamSet, check_admissible, format_fraction, parse_fraction


@dataclass
class RunConfig:
    command: str
    r: int
    n: int
    u: tuple[Fraction, ...] | None  # None = default generic roots
    precision_bits: int
    trunc: int | None
    out: str | None
    shape: tuple[tuple[int, ...], ...] | None = None
    order: int | None = None


# -- argument handling -----------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--r", type=int, default=None,
                    help="number of roots (default 2, or len(--u))")
    sp.add_argument("--n", type=int, default=None, help="strand count (default 3)")
    sp.add_argument("--u", type=str, default=None,
                    help="comma-separated roots, fractions like 6,-2 or 3/2")
    sp.add_argument("--precision", type=int, default=None,
                    help="precision_bits recorded in the report; no computation "
                         "reads it (default 256, min 64)")
    sp.add_argument("--trunc", type=int, default=None,
                    help="truncation order N for the scalar sequence")
    sp.add_argument("--out", type=str, default=None,
                    help="write the JSON-lines report here instead of stdout")
    sp.add_argument("--config", type=str, default=None,
                    help="JSON file with keys r, u, N, precision_bits; overrides flags")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wenzl",
        description="Exact checks for the cyclotomic Nazarov-Wenzl algebras")
    sub = p.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("counts", help="module dimensions and the sum-of-squares identity")
    _add_common(sp)
    sp = sub.add_parser("verify", help="seminormal relation suite and exact identities")
    _add_common(sp)
    sp = sub.add_parser("gram", help="Gram determinant of one cell module")
    _add_common(sp)
    sp.add_argument("--shape", type=str, required=True,
                    help="multipartition: components split by |, parts by comma, e.g. 2,1|1")
    sp = sub.add_parser("cellrank", help="cellular family count and exact rank over Q")
    _add_common(sp)
    sp = sub.add_parser("omega", help="contraction scalars from the roots, with admissibility")
    _add_common(sp)
    sp.add_argument("--order", type=int, default=8,
                    help="largest scalar index to report (default 8)")
    return p


def _parse_u(parser, text) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_fraction(x.strip()) for x in str(text).split(","))
    except (ValueError, ZeroDivisionError):
        parser.error(f"cannot parse roots {text!r}")


def _parse_shape(parser, text: str) -> tuple[tuple[int, ...], ...]:
    comps = text.strip().strip("()").split("|")
    out = []
    for comp in comps:
        comp = comp.strip()
        if not comp or comp == "-":
            out.append(())
            continue
        try:
            parts = tuple(int(x) for x in comp.split(","))
        except ValueError:
            parser.error(f"cannot parse shape component {comp!r}")
        if any(x <= 0 for x in parts) or list(parts) != sorted(parts, reverse=True):
            parser.error(f"shape component {comp!r} is not a partition")
        out.append(parts)
    return tuple(out)


def _resolve(parser: argparse.ArgumentParser, args) -> RunConfig:
    r, n, u = args.r, args.n, args.u
    precision, trunc = args.precision, args.trunc
    if args.config:
        try:
            with open(args.config) as fh:
                conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            parser.error(f"cannot read config {args.config!r}: {e}")
        r = conf.get("r", r)
        n = conf.get("n", n)
        if "u" in conf:
            u = conf["u"]
            if "r" not in conf:
                r = None          # the config's roots win over a flag-level r
        trunc = conf.get("N", trunc)
        precision = conf.get("precision_bits", precision)
    if u is not None:
        u = _parse_u(parser, u if isinstance(u, str) else ",".join(map(str, u)))
        if r is not None and r != len(u):
            parser.error(f"--r {r} does not match {len(u)} roots")
        r = len(u)
    shape = None
    if getattr(args, "shape", None) is not None:
        shape = _parse_shape(parser, args.shape)
        if r is not None and r != len(shape):
            parser.error(f"shape has {len(shape)} components but r={r}")
        r = len(shape)
        n = combinat.mp_size(shape)
    if r is None:
        r = 2
    if n is None:
        n = 3
    if precision is None:
        precision = 256
    if r < 1:
        parser.error("r must be at least 1")
    if n < 0:
        parser.error("n must be nonnegative")
    if precision < 64:
        parser.error("precision must be at least 64 bits")
    if trunc is not None and trunc < 0:
        parser.error("truncation order must be nonnegative")
    return RunConfig(args.command, r, n, u, precision, trunc, args.out,
                     shape=shape, order=getattr(args, "order", None))


def _paramset(cfg: RunConfig, min_trunc: int = 0) -> ParamSet:
    u = cfg.u if cfg.u is not None else combinat.default_u(cfg.r, cfg.n)
    trunc = cfg.trunc
    if trunc is None:
        trunc = max(2 * cfg.r + 4 * max(cfg.n, 1), min_trunc)
    else:
        trunc = max(trunc, min_trunc)
    return ParamSet.from_u(u, N=trunc, precision_bits=cfg.precision_bits,
                           n_hint=max(cfg.n, 1))


def _shape_json(shape) -> list[list[int]]:
    return [list(p) for p in shape]


def _write_report(records, out_path) -> None:
    text = "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands ----------------------------------------------------------------


def cmd_counts(cfg: RunConfig) -> tuple[list[dict], bool]:
    ps = _paramset(cfg)
    meta = ps.as_json()
    records = []
    total = 0
    for shape in combinat.reachable_shapes(cfg.r, cfg.n):
        c = combinat.count_updown(cfg.n, shape)
        total += c * c
        records.append({"kind": "count", "shape": _shape_json(shape),
                        "arcs": (cfg.n - combinat.mp_size(shape)) // 2,
                        "count": c, "ps": meta})
    target = cfg.r ** cfg.n * diagrams.double_factorial(2 * cfg.n - 1)
    ok = total == target
    records.append({"kind": "summary", "command": "counts", "n": cfg.n,
                    "sum_of_squares": total, "target": target, "equal": ok,
                    "pass": ok, "ps": meta})
    return records, ok


def cmd_verify(cfg: RunConfig) -> tuple[list[dict], bool]:
    ps = _paramset(cfg)
    meta = ps.as_json()
    try:
        reps = seminormal.build_all(ps, cfg.n)
        idr = seminormal.check_identities(ps, cfg.n)
    except ValueError as e:
        return [{"kind": "error", "command": "verify", "error": f"{type(e).__name__}: {e}",
                 "pass": False, "ps": meta}], False
    records = []
    ok = idr.ok
    for rep in reps:
        res = seminormal.verify_relations(rep)
        passed = all(v == 0 for v in res.values())
        ok = ok and passed
        records.append({"kind": "relations", "shape": _shape_json(rep.shape),
                        "dim": rep.dim,
                        "residuals": {k: float(v) for k, v in res.items()},
                        "tolerance": 0.0, "pass": passed, "ps": meta})
    records.append({"kind": "identities", "checked": idr.counts,
                    "failures": idr.failures, "pass": idr.ok, "ps": meta})
    records.append({"kind": "summary", "command": "verify", "n": cfg.n,
                    "modules": len(reps), "pass": ok, "ps": meta})
    return records, ok


def cmd_gram(cfg: RunConfig) -> tuple[list[dict], bool]:
    shape = cfg.shape
    ps = _paramset(cfg)
    meta = ps.as_json()
    n = combinat.mp_size(shape)
    try:
        H = hecke.HeckeAlgebra(ps, n)
        mb = hecke.MurphyBasis(H)
        det = hecke.gram_det(H, mb, shape)
        gammas = hecke.gamma_coeffs(shape, ps)
        path_ok = hecke.gamma_path_independent(shape, ps)
    except (ValueError, ZeroDivisionError) as e:
        return [{"kind": "error", "command": "gram", "error": f"{type(e).__name__}: {e}",
                 "pass": False, "ps": meta}], False
    prod = Fraction(1)
    for g in gammas.values():
        prod *= g
    ok = det == prod and path_ok
    records = [{"kind": "gram", "shape": _shape_json(shape), "n": n,
                "gram_det": format_fraction(det),
                "gamma_product": format_fraction(prod),
                "matches_product": det == prod,
                "path_independent": path_ok, "pass": ok, "ps": meta},
               {"kind": "summary", "command": "gram",
                "gram_det": format_fraction(det), "pass": ok, "ps": meta}]
    return records, ok


def cmd_cellrank(cfg: RunConfig) -> tuple[list[dict], bool]:
    ps = _paramset(cfg)
    meta = ps.as_json()
    try:
        report = wcell.cellular_rank_report(ps, cfg.n)
    except ValueError as e:
        return [{"kind": "error", "command": "cellrank", "error": f"{type(e).__name__}: {e}",
                 "pass": False, "ps": meta}], False
    records = [{"kind": "cell", **cell, "ps": meta} for cell in report["cells"]]
    ok = report["ok"]
    records.append({"kind": "summary", "command": "cellrank", "n": cfg.n,
                    "count": report["count"], "rank": report["rank"],
                    "target": report["target"],
                    "sum_of_squares": report["sum_of_squares"],
                    "pass": ok, "ps": meta})
    return records, ok


def cmd_omega(cfg: RunConfig) -> tuple[list[dict], bool]:
    order = cfg.order if cfg.order is not None else 8
    ps = _paramset(cfg, min_trunc=order)
    meta = ps.as_json()
    values = ps.omega[:order + 1]
    ok, bad = check_admissible(values)
    records = [{"kind": "omega", "a": a, "value": format_fraction(w), "ps": meta}
               for a, w in enumerate(values)]
    records.append({"kind": "summary", "command": "omega", "order": order,
                    "omega": [format_fraction(w) for w in values],
                    "admissible": ok, "first_failure": bad, "pass": ok,
                    "ps": meta})
    return records, ok


def main(argv=None) -> int:
    parser = _build_parser()
    cfg = _resolve(parser, parser.parse_args(argv))
    dispatch = {"counts": cmd_counts, "verify": cmd_verify, "gram": cmd_gram,
                "cellrank": cmd_cellrank, "omega": cmd_omega}
    records, ok = dispatch[cfg.command](cfg)
    _write_report(records, cfg.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
