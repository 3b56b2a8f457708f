"""Every documented ``python -m repro...`` command names a runnable module.

A command counts as runnable when it names a package with a
``__main__.py`` or a module with an ``if __name__ == "__main__":`` block.
Anything else runs nothing and exits 0, which a CI step cannot tell
from success.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
]
COMMAND = re.compile(r"python3?\s+(?:-O\s+)?-m\s+(repro(?:\.\w+)*)")


def _sources():
    for name in DOCS:
        yield ROOT / name
    yield from sorted(SRC.rglob("*.py"))


def _commands():
    found = {}
    for path in _sources():
        for match in COMMAND.finditer(path.read_text()):
            found.setdefault(match.group(1), path.relative_to(ROOT).as_posix())
    return sorted(found.items())


def _runnable(module: str) -> bool:
    base = SRC.joinpath(*module.split("."))
    if (base / "__main__.py").is_file():
        return True
    source = base.with_suffix(".py")
    return source.is_file() and re.search(
        r"""^if __name__ == ["']__main__["']:""", source.read_text(), re.M
    ) is not None


def test_commands_are_found():
    modules = dict(_commands())
    assert "repro.cli" in modules
    assert "repro.gauntlet" in modules


@pytest.mark.parametrize("module,where", _commands())
def test_documented_command_is_runnable(module, where):
    assert _runnable(module), (
        f"{where} documents `python -m {module}`, which runs nothing"
    )


def test_rule_rejects_a_module_without_main():
    assert not _runnable("repro.resilience.chaos")
    assert _runnable("repro.gauntlet")
    assert _runnable("repro.cli")
