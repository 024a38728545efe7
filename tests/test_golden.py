"""The golden corpus: seeded CLI runs diffed against recorded stdout,
stderr and exit code.  `tests/golden/regen.py` rewrites the recorded
files and says what the corpus covers."""

import json
from pathlib import Path

import pytest

from qentropy.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# the first line records the numpy version and machine; one case a line after it
CASES = [json.loads(line) for line in
         (GOLDEN / "manifest.jsonl").read_text(encoding="utf-8").splitlines()[1:]]


def _expected(name: str, suffix: str) -> str:
    path = GOLDEN / "out" / f"{name}.{suffix}"
    return path.read_text(encoding="utf-8") if path.exists() else ""


@pytest.mark.parametrize("case", CASES, ids=lambda case: case["name"])
def test_golden(case, capsys, monkeypatch):
    monkeypatch.delenv("QENT_SEED", raising=False)
    monkeypatch.chdir(GOLDEN)
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert captured.out == _expected(case["name"], "out")
    assert captured.err == _expected(case["name"], "err")
    assert code == case["exit"]


def test_corpus_is_small():
    files = [p for p in GOLDEN.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert sum(p.stat().st_size for p in files) < 50_000
