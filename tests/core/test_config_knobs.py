"""Guard: every ``SystemConfig`` field is a knob some caller turns.

A field no caller sets is not an option but a constant with extra steps:
it keeps a validation branch, a documentation row and, often, code that
only a non-default value reaches.  This test walks the syntax tree of the
library (except the config module itself), the figure benchmarks, the
host benchmark and the examples, and requires each field to appear as a
keyword argument or a dict-literal key somewhere.  Passing a field through
unchanged (``x=config.x`` or ``x=self.config.x``) sets nothing and does not
count.
"""

import ast
import dataclasses
import pathlib

import repro
from repro.core.config import SystemConfig

SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parent.parent
CONFIG_MODULE = SRC / "core" / "config.py"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "perfbench", ROOT / "examples")


def _passes_through(name: str, value) -> bool:
    """Whether ``value`` is ``config.<name>`` or ``self.config.<name>``."""
    if not (isinstance(value, ast.Attribute) and value.attr == name):
        return False
    base = value.value
    if isinstance(base, ast.Name):
        return base.id == "config"
    return (
        isinstance(base, ast.Attribute)
        and base.attr == "config"
        and isinstance(base.value, ast.Name)
        and base.value.id == "self"
    )


def set_names(source: str, filename: str = "<source>") -> set:
    """Names ``source`` sets as a keyword argument or a dict-literal key."""
    names = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.keyword) and node.arg is not None:
            if not _passes_through(node.arg, node.value):
                names.add(node.arg)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and not _passes_through(key.value, value)
                ):
                    names.add(key.value)
    return names


def test_every_config_field_is_set_by_some_caller():
    sources = [
        path
        for directory in CALLER_DIRS
        for path in sorted(directory.rglob("*.py"))
        if path != CONFIG_MODULE
    ]
    assert len(sources) >= 50
    names = set()
    for path in sources:
        names |= set_names(path.read_text(encoding="utf-8"), str(path))
    fields = {field.name for field in dataclasses.fields(SystemConfig)}
    unset = sorted(fields - names)
    assert not unset, f"SystemConfig fields no caller sets: {unset}"


def test_guard_ignores_pass_through_and_counts_real_settings():
    source = "\n".join(
        [
            "YCSBWorkload(theta=self.config.theta)",
            "AIMDWindow(decrease=config.decrease)",
            "x = {'jitter': config.jitter}",
            "SystemConfig(batch_size=8)",
            "settings = {'seed': seed}",
            "replace(config, warmup=other.warmup)",
            "f(**overrides)",
        ]
    )
    assert set_names(source) == {"batch_size", "seed", "warmup"}
