"""README's "Public API" list and the names `qentropy` exports match, both ways."""

import inspect
import re
from pathlib import Path

import qentropy

README = Path(__file__).resolve().parents[1] / "README.md"

# backticked words of the section that are prose, not exported names
PROSE = {"S", "numpy", "qentropy", "rho", "u"}


def documented() -> set[str]:
    """The leading identifier of every backticked span of the section, outside
    the bullet on `qentropy.experiments` (whose names are not exports)."""
    section = README.read_text(encoding="utf-8").split("### Public API", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
    chunks = [c for c in re.split(r"\n(?=- )", section) if "`qentropy.experiments`" not in c]
    return {re.match(r"\w+", span).group()
            for chunk in chunks for span in re.findall(r"`([^`]+)`", chunk)}


def exports() -> dict:
    return {name: value for name, value in vars(qentropy).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def test_every_export_is_listed():
    # the exception classes are covered by "`QentropyError` and its subclasses"
    unlisted = {name for name, value in exports().items()
                if name not in documented()
                and not (inspect.isclass(value) and issubclass(value, qentropy.QentropyError))}
    assert not unlisted, f"exported but not in README's Public API: {sorted(unlisted)}"


def test_every_listed_name_is_exported():
    stale = documented() - PROSE - exports().keys()
    assert not stale, f"in README's Public API but not exported: {sorted(stale)}"
