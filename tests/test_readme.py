"""The README's examples run as written and show what their comments say,
its module table names each module of the package once, and its section
on identities names every check that ``verify`` reports."""

import json
import re
import shlex
from pathlib import Path

from wenzl.cli import main
from wenzl.params import ParamSet
from wenzl.seminormal import RELATION_FAMILIES, check_identities

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _code_blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def test_module_table_names_every_module():
    rows = re.findall(r"^\| `wenzl\.(\w+)` \|", README.read_text(), re.M)
    modules = {path.stem for path in (ROOT / "src" / "wenzl").glob("*.py")} - {"__init__"}
    assert sorted(rows) == sorted(modules)


def test_quick_tour(capsys):
    (tour,) = _code_blocks("python")
    exec(compile(tour, str(README), "exec"), {})
    *models, rank = capsys.readouterr().out.splitlines()
    # one line per model, ending in its largest residual, then the rank
    assert models and all(line.split()[-1] == "0" for line in models)
    assert rank == re.search(r"# (\d+) at two strands", tour).group(1) == "12"


def test_command_lines(capsys):
    lines = [line for block in _code_blocks("sh") for line in block.splitlines()
             if line.startswith("wenzl ")]
    assert len(lines) == 4
    for line in lines:
        command, _, comment = line.partition("#")
        rc = main(shlex.split(command)[1:])
        records = [json.loads(text) for text in capsys.readouterr().out.splitlines()]
        assert rc == 0 and records[-1]["kind"] == "summary" and records[-1]["pass"], line
        for rec in records:
            assert all(v == 0 for v in rec.get("residuals", {}).values()), line
        stated = re.search(r"sum of squares = (\d+)", comment)
        if stated:
            # the squared dims of verify's models, each a shape's updown count
            dims = [rec["dim"] for rec in records if rec["kind"] == "relations"]
            assert sum(d * d for d in dims) == int(stated.group(1)) == 120, line
    assert sum("sum of squares" in line for line in lines) == 1


def _identity_section() -> str:
    text = README.read_text()
    start = text.index("### Identities, and the checks they decide")
    return text[start:text.index("\n## ", start)]


def test_identity_section_names_every_check():
    # every identity that verify counts at (2, 4) and every relation family
    # are named there, so a renamed check cannot leave the section behind
    section = _identity_section()
    names = {*check_identities(ParamSet.default(2, 4), 4).counts, *RELATION_FAMILIES}
    assert len(names) == 12
    missing = sorted(name for name in names if f"`{name}`" not in section)
    assert missing == [], missing
