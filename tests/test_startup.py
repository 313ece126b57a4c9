"""What importing revlab costs: which types are dataclasses, and which
modules the CLI imports before it knows the command."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Every dataclass in src/, and why each is one.  A frozen dataclass costs
# several times what a NamedTuple costs to define at import, so any other
# record is a NamedTuple or a plain class.
DATACLASSES = {
    # Returned by depth queries and printed by the CLI; callers read them
    # with dataclasses.asdict and astuple.
    "depth.Budget", "depth.NoWitness", "depth.ComplexityRecord",
    "depth.IncompressibleSet", "depth.DepthRecord", "depth.GrowthRow",
    "depth.GrowthTable",
    # __post_init__ checks the blank, which a NamedTuple cannot run.
    "machines.Alphabet",
    # Caches its compiled forms and hash in an instance __dict__.
    "machines.Machine",
}


def dataclasses_in(path: Path) -> list[str]:
    """``module.Class`` for each class in ``path`` decorated with
    ``dataclass``, called or not, by bare or dotted name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "dataclass":
                found.append(f"{path.stem}.{node.name}")
    return found


def test_only_the_listed_types_are_dataclasses():
    files = sorted(ROOT.glob("src/revlab/*.py"))
    assert files
    assert sorted(d for f in files for d in dataclasses_in(f)) == sorted(DATACLASSES)


def test_cli_imports_the_corpus_only_for_corpus_commands():
    code = ("import sys\n"
            "from revlab import cli\n"
            "print('revlab.corpus' in sys.modules, flush=True)\n"
            "rc = cli.main(['corpus', 'list'])\n"
            "print(rc, 'revlab.corpus' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    first, *listed, last = done.stdout.splitlines()
    assert first == "False"
    assert last == "0 True"
    names = [json.loads(line)["payload"]["name"] for line in listed]
    assert "flipper" in names and len(names) == len(set(names))
