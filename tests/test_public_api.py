"""README's "Public API" list and the names `qentropy` exports match, both
ways, and every export has a use besides the tests."""

import ast
import inspect
import re
from pathlib import Path

from test_tracing_contract import _tracing_layers

import qentropy

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# backticked words of the section that are prose, not exported names
PROSE = {"S", "numpy", "qentropy", "rho", "u"}


def chunks() -> list[str]:
    """The section's opening paragraph and its bullets."""
    section = README.read_text(encoding="utf-8").split("### Public API", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
    return re.split(r"\n(?=- )", section)


def names(chunk: str) -> set[str]:
    """The leading identifier of every backticked span of the chunk."""
    return {re.match(r"\w+", span).group() for span in re.findall(r"`([^`]+)`", chunk)}


def documented() -> set[str]:
    """The names of the section, outside the bullet on `qentropy.experiments`
    (whose names are not exports)."""
    return set().union(*(names(c) for c in chunks() if "`qentropy.experiments`" not in c))


def bullet(opening: str) -> set[str]:
    """The names of the bullet that starts with `opening`."""
    [chunk] = [c for c in chunks() if c.startswith(f"- {opening}")]
    return names(chunk)


def used_in_src() -> set[str]:
    """Every name that the package's modules, __init__.py aside, read:
    a definition alone is not a use."""
    used = set()
    for path in (ROOT / "src" / "qentropy").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


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


def test_every_export_has_a_use():
    # an export that only tests call belongs in tests/
    kept = (used_in_src() | {attr for _, attr in _tracing_layers()}
            | bullet("The three routes") | bullet("The paper's named quantities"))
    unused = exports().keys() - kept
    assert not unused, f"exported but unused in src/, untraced and no paper quantity: " \
                       f"{sorted(unused)}"
