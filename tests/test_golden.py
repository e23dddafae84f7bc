"""Byte-for-byte pins of the CLI's stdout on a fixed command set.

Each file under tests/golden/ is the stdout of one command below.  A
refactor must leave every one of them unchanged; an intended change of
output rewrites them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from tcores.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "decompose-figure": "decompose 18,7,6 --t 3",
    "decompose-core": "decompose 5,3,1,1 --t 3",
    "decompose-empty": "decompose - --t 2",
    "decompose-t1": "decompose 6,3,2,2 --t 1",
    "decompose-t5": "decompose 10,10,5,1 --t 5",
    "average-t1-empty-tsv": "average --t 1 --n 0..6 --stat hook:j=0,pow=2 --stat content:j=0,pow=2,G",
    "average-t1-empty-json": "average --t 1 --n 0..6 --stat hook:j=0,pow=2 --stat content:j=0,pow=2,G --format json",
    "average-t2-empty-workers-tsv": "average --t 2 --n 0..4 --stat hook:j=0,pow=2 --stat content:j=1,pow=1",
    "average-t2-core-tsv": "average --core 1 --t 2 --n 0..5 --stat hook:j=1,pow=2,paired --stat content:j=0,pow=2 --weight-g",
    "average-t2-core-json": "average --core 1 --t 2 --n 0..5 --stat hook:j=1,pow=2,paired --stat content:j=0,pow=2 --weight-g --format json",
    "average-t3-empty-json": "average --t 3 --n 0..3 --stat content:j=1,pow=2,G --stat hook:j=1,pow=4,paired --format json",
    "average-t3-core-tsv": "average --core 3,1 --t 3 --n 0..3 --stat hook:j=0,pow=2,G --stat content:j=2,pow=1",
    "average-t3-core-json": "average --core 5,3,1,1 --t 3 --n 0..3 --stat hook:j=1,pow=2,paired,G --format json",
    "verify-bijection": "verify bijection --max-size 8 --t 1..4 --format tsv",
    "verify-fundamental": "verify fundamental --max-size 6 --format tsv",
    "verify-per-partition": "verify per-partition --max-size 8 --t 2,3 --samples 30 --seed 7 --format tsv",
    "verify-averages": "verify averages --t 2,3 --n 0..3 --format tsv",
    "verify-operators": "verify operators --t 1,2 --n 0..2 --format tsv",
    "verify-polynomiality": "verify polynomiality --t 2 --format tsv",
}


def run(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(name):
    code, out = run(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, command in COMMANDS.items():
        code, out = run(command)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.txt").write_text(out)
