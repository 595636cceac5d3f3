"""Batch front end: argument parsing, command dispatch, JSON-lines reports.

Three subcommands, one per statement of the paper: verify, gram, cellrank.
Each takes the strand count n and the roots u (r is their number);
everything a job checks follows from (r, u, n), and ``--out`` only
redirects the report.  Output is one JSON record per checked instance plus
a summary record, each embedding the parameter set as its roots (``ps``:
r, u and a fixed ``precision_bits``); identical inputs produce
byte-identical output.  Exit status: 0 all checks pass, 1 any failure, 2
usage errors.  Parameters outside the supported regime, and a job that
runs out of memory, end in one ``error`` record and exit 1.

Every verdict is exact: ``verify`` passes a relation record only when every
residual is exactly 0 on the rational seminormal model, ``gram`` compares
Fractions, and ``cellrank`` proves the rank of the cellular family on that
model cell by cell, from a block upper triangular order of its supports
(``wcell``), or ends in an ``error`` record.  ``verify``'s summary names the
algebra it certified by Omega_0 ... Omega_{r+2}, the scalars its unwrapping
relations read, expanded once per job; Omega is u-admissible by its
construction (``params.omega_k_values``), so it carries no verdict.

A process compiles only what its command runs: this module imports
``combinat`` and ``params``, and each command imports its own module when
it runs (``verify`` ``seminormal``, ``gram`` ``hecke``, ``cellrank``
``wcell``).  The tables held for the process are named by module and
attribute (``HOLDS``, ``LATTICE``), so naming them imports nothing; a job
that runs out of memory clears those of the modules imported.

Each command's parser and the report's encoder are built once per process;
an argv that names a command goes straight to that command's parser, which
reports every usage error after it, unrecognized arguments too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import combinat, params
from .params import ParamSet, format_fraction, parse_fraction


# -- argument handling -----------------------------------------------------


_COMMAND_PARSERS = {}  # each command's parser by name, filled by _build_parser


def _add_command(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """The subcommand ``name``, with the options every job takes."""
    sp = _COMMAND_PARSERS[name] = sub.add_parser(name, help=summary)
    sp.add_argument("--r", type=int, default=None,
                    help="number of roots (default 2, or len(--u))")
    sp.add_argument("--n", type=int, default=None, help="strand count (default 3)")
    sp.add_argument("--u", type=str, default=None,
                    help="comma-separated roots, fractions like 6,-2 or 3/2 "
                         "(default: generic roots for r and n)")
    sp.add_argument("--out", type=str, default=None,
                    help="write the JSON-lines report here instead of stdout")
    return sp


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wenzl",
        description="Exact checks for the cyclotomic Nazarov-Wenzl algebras")
    sub = p.add_subparsers(dest="command", required=True)
    _add_command(sub, "verify", "seminormal relation suite and exact identities")
    sp = _add_command(sub, "gram", "Gram determinant of one cell module")
    sp.add_argument("--shape", type=str, required=True,
                    help="multipartition: components split by |, parts by comma, e.g. 2,1|1")
    _add_command(sub, "cellrank",
                 "cellular family count and its rank over Q, proved cell by cell")
    return p


_PARSER = _build_parser()  # built once, for every job of a process

# values that start with "-": a negative first root, an empty first component
_DASH_VALUES = {"--u": r"-[0-9.]", "--shape": r"-(\||$)"}


def _join_dash_values(argv: list[str]) -> list[str]:
    """Write ``--u -3,9`` as ``--u=-3,9`` and ``--shape -|1`` as
    ``--shape=-|1``: argparse takes a value that starts with ``-`` for an
    option unless it is a plain negative number."""
    out = []
    for arg in argv:
        pattern = _DASH_VALUES.get(out[-1]) if out else None
        if pattern and re.match(pattern, arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_u(parser, text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_fraction(x.strip()) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        parser.error(f"cannot parse roots {text!r}")


def _parse_shape(parser, text: str) -> tuple[tuple[int, ...], ...]:
    """Components split by |, parts by comma, within at most one enclosing
    pair of parentheses; an empty component or "-" is the empty partition."""
    body = text.strip()
    if body[:1] == "(" and body[-1:] == ")":
        body = body[1:-1]
    if "(" in body or ")" in body:
        parser.error(f"cannot parse shape {text!r}: parentheses only around the whole shape")
    comps = body.split("|")
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


def _resolve(args) -> None:
    """Check the parsed arguments, and write the resolved n, roots u and
    shape back onto ``args``: r is the number of roots.  ``args.report`` is
    the ``--out`` file, opened and emptied, or None for stdout."""
    # errors found after parsing are reported with the command's usage
    parser, r, n, u = _COMMAND_PARSERS[args.command], args.r, args.n, args.u
    if u is not None:
        u = _parse_u(parser, u)
        if r is not None and r != len(u):
            parser.error(f"--r {r} does not match {len(u)} roots")
        r = len(u)
    if getattr(args, "shape", None) is not None:
        shape = args.shape = _parse_shape(parser, args.shape)
        if r is not None and r != len(shape):
            parser.error(f"shape has {len(shape)} components but r={r}")
        size = combinat.mp_size(shape)
        if n is not None and n != size:
            parser.error(f"shape has {size} boxes but n={n}")
        r, n = len(shape), size
    if r is None:
        r = 2
    if n is None:
        n = 3
    if r < 1:
        parser.error("r must be at least 1")
    if n < 0:
        parser.error("n must be nonnegative")
    if args.out is not None and (not os.path.basename(args.out) or os.path.isdir(args.out)):
        parser.error(f"--out {args.out!r}: not a file name")
    args.report = None
    if args.out is not None:
        # opened before the job: a name the system refuses is a usage error
        try:
            args.report = open(args.out, "w")
        except OSError as e:
            parser.error(f"--out {args.out}: {e.strerror}")
    if u is None:
        u = combinat.default_u(r, n)
    args.n, args.u = n, u


def _shape_json(shape) -> list[list[int]]:
    return [list(p) for p in shape]


# the encoder json.dumps(rec, sort_keys=True) builds anew for every record
_ENCODER = json.JSONEncoder(sort_keys=True)


def _write_report(records, report) -> None:
    """The records as JSON lines, to the open ``--out`` file ``report``,
    which is then closed, or to stdout where it is None."""
    text = "".join(_ENCODER.encode(rec) + "\n" for rec in records)
    if report is None:
        sys.stdout.write(text)
    else:
        with report:
            report.write(text)


# -- commands ----------------------------------------------------------------
#
# Each command takes the run's parameter set and the resolved arguments, and
# returns (records, summary, ok): its records, the fields of its summary
# record, and whether every check passed.  ``main`` adds the summary's kind,
# command and pass, and the parameter set to every record.  A ValueError or
# ZeroDivisionError marks parameters outside the supported regime; ``main``
# turns it into an error record.


def _refuse_unless_it_fits(ps: ParamSet, n: int, per_row: int = 0, per_row_cell: int = 0,
                           per_member: int = 0) -> None:
    """Raise MemoryError before any build where a job at n would not fit
    under RLIMIT_AS: per strand and root, ``per_row`` bytes per basis row
    and ``per_row_cell`` per basis row and cell (a reachable shape), then
    ``per_member`` per member of the cellular family, r^n (2n-1)!!, and
    4 MiB.  ``verify`` measured 1.7 KiB per row at most, on 500 to 30,000
    rows.  ``cellrank`` holds the prefix products of every cell's Murphy
    middle, each a list of every row, to the end of the job, and forms each
    cell's members in turn, so its peak grows with rows times cells where
    the cells are many (52 to 91 bytes per row, cell, strand and root from
    (5, 3) to (24, 2)) and with the family where they are few (1.2 KiB per
    member at (1, 7)); no one rate per member bounds it (19 KiB at (9, 3),
    277 KiB at (24, 2)).  Each of 21 sizes from (1, 2) to (20, 2), run in a
    child process under a limit equal to this bound, completed, using at
    most 0.78 of it beyond the size mapped.
    Running out mid-job, CPython 3.11 can lose it and end in a traceback."""
    import resource
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY and os.path.exists("/proc/self/statm"):
        with open("/proc/self/statm") as f:  # the pages mapped, first
            mapped = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        shapes = combinat.reachable_shapes(ps.r, n)
        rows = sum(combinat.count_updown(n, shape) for shape in shapes)
        family = ps.r ** n * combinat.double_factorial(2 * n - 1)
        size = (n + ps.r) * rows * (per_row + per_row_cell * len(shapes)) + per_member * family
        if mapped + size + 2 ** 22 > limit:
            raise MemoryError


def cmd_verify(ps: ParamSet, args) -> tuple[list[dict], dict, bool]:
    from . import seminormal
    _refuse_unless_it_fits(ps, args.n, per_row=2048)
    real = seminormal.Realization(seminormal.build_all(ps, args.n))
    idr = seminormal.check_identities(ps, args.n)
    # expanded once per job, for the unwrapping relations and the summary
    omega = params.omega_k_values(combinat.empty_mp(ps.r), ps, ps.r + 2)
    records = []
    ok = idr.ok
    for rep, res in zip(real.reps, seminormal.verify_relations(real, omega)):
        passed = all(v == 0 for v in res.values())
        ok = ok and passed
        records.append({"kind": "relations", "shape": _shape_json(rep.shape),
                        "dim": rep.dim,
                        "residuals": {k: float(v) if v else 0.0 for k, v in res.items()},
                        "pass": passed})
    records.append({"kind": "identities", "checked": idr.counts,
                    "failures": idr.failures, "pass": idr.ok})
    return records, {"n": args.n, "modules": len(real.reps),
                     "omega": [format_fraction(w) for w in omega]}, ok


def cmd_gram(ps: ParamSet, args) -> tuple[list[dict], dict, bool]:
    from . import hecke
    shape, n = args.shape, args.n
    mb = hecke.murphy_basis(ps, n)
    det = hecke.gram_det(mb, shape)
    gammas = hecke.gamma_coeffs(shape, ps)
    path_ok = hecke.gamma_path_independent(shape, ps, gammas)
    prod = math.prod(gammas.values(), start=Fraction(1))
    ok = det == prod and path_ok
    records = [{"kind": "gram", "shape": _shape_json(shape), "n": n,
                "gram_det": format_fraction(det),
                "gamma_product": format_fraction(prod),
                "matches_product": det == prod,
                "path_independent": path_ok, "pass": ok}]
    return records, {"gram_det": format_fraction(det)}, ok


def cmd_cellrank(ps: ParamSet, args) -> tuple[list[dict], dict, bool]:
    from . import wcell
    _refuse_unless_it_fits(ps, args.n, per_row_cell=128, per_member=1280)
    report = wcell.cellular_rank_report(ps, args.n)
    records = [{"kind": "cell", **cell, "shape": _shape_json(cell["shape"])}
               for cell in report["cells"]]
    return records, {"n": args.n, "count": report["count"], "rank": report["rank"],
                     "target": report["target"]}, report["ok"]


# the tables held for the process, each a functools cache named by (module,
# attribute), so that naming them imports nothing: the last parameter set
# built, with its step, swap and Murphy tables, and the root-free tables of
# seminormal, hecke and wcell per model, (r, n), shape and cell; then
# combinat's lattice below them, its walks, the steps out of each shape,
# the multipartitions and the updown counts
HOLDS = (("params", "_param_set"), ("seminormal", "model_pattern"), ("hecke", "key_tables"),
         ("hecke", "shape_words"), ("hecke", "_order"), ("wcell", "cell_words"))
LATTICE = (("combinat", "_walk"), ("combinat", "steps_from"), ("combinat", "multipartitions"),
           ("combinat", "reachable_shapes"), ("combinat", "count_updown"))


def held(names) -> list:
    """The caches named in ``names`` whose modules this process has
    imported; a module not imported holds nothing."""
    modules = [sys.modules.get(f"{__package__}.{module}") for module, _ in names]
    return [getattr(m, attr) for m, (_, attr) in zip(modules, names) if m is not None]


COMMANDS = {"verify": cmd_verify, "gram": cmd_gram, "cellrank": cmd_cellrank}


def main(argv=None) -> int:
    # an exact checker prints its exact values, however many digits they
    # have; Python before 3.10.7 has no limit to lift
    if getattr(sys, "set_int_max_str_digits", None):
        sys.set_int_max_str_digits(0)
    argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
    # help, an unknown command or an option first go through the top level
    sub = _COMMAND_PARSERS.get(argv[0]) if argv else None
    args = (_PARSER.parse_args(argv) if sub is None
            else sub.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
    _resolve(args)
    ps = ParamSet.from_u(args.u)
    meta = ps.as_json()
    try:
        records, summary, ok = COMMANDS[args.command](ps, args)
        records.append({"kind": "summary", "command": args.command, **summary, "pass": ok})
    except (ValueError, ZeroDivisionError) as e:
        records = [{"kind": "error", "command": args.command,
                    "error": f"{type(e).__name__}: {e}", "pass": False}]
        ok = False
    except MemoryError:
        records, ok = None, False
    except BaseException:
        # an exception past main leaves the report empty, and closed
        if args.report is not None:
            args.report.close()
        raise
    if records is None:
        # out of the handler, the job's frames are gone; the tables held
        # for the process go too, so the record can be written
        ps.steps.clear()
        ps.swaps.clear()
        ps.murphy.clear()
        for hold in held(HOLDS + LATTICE):
            hold.cache_clear()
        records = [{"kind": "error", "command": args.command,
                    "error": f"MemoryError: out of memory at r={ps.r}, n={args.n}",
                    "pass": False}]
    _write_report([{**rec, "ps": meta} for rec in records], args.report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
