"""Guard: the replica host in ``repro.core`` never branches on protocol.

The host asks its engine (:class:`repro.consensus.base.Engine`) instead of
testing the engine's type or ``config.protocol``; the protocol table in
:mod:`repro.engines` is the one place a protocol name picks an engine
class.  This test walks the syntax tree of every ``repro.core`` module so
a new extension cannot quietly re-add such a branch.
"""

import ast
import pathlib

import repro.core

ENGINE_CLASSES = {"PbftReplica", "ZyzzyvaReplica", "PoeReplica", "InstanceCoordinator"}
ENGINE_MODULES = {
    "repro.consensus.pbft",
    "repro.consensus.zyzzyva",
    "repro.consensus.poe",
    "repro.multi.coordinator",
}


def _names(node) -> set:
    return {
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    }


def _is_protocol(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "protocol"


def protocol_branches(source: str, filename: str = "<source>") -> list:
    """Every protocol branch in ``source``, as 'file:line: what' strings."""
    problems = []
    for node in ast.walk(ast.parse(source, filename)):
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            subject, classes = node.args
            if _names(classes) & ENGINE_CLASSES or "engine" in _names(subject):
                problems.append(f"{where}: isinstance test on an engine")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if not any(_is_protocol(operand) for operand in operands):
                continue
            literal_membership = any(
                isinstance(op, (ast.In, ast.NotIn))
                and isinstance(right, (ast.Tuple, ast.List, ast.Set))
                for op, right in zip(node.ops, node.comparators)
            )
            if literal_membership or not all(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                problems.append(f"{where}: comparison on .protocol")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ENGINE_MODULES:
                    problems.append(f"{where}: imports {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            if node.module in ENGINE_MODULES:
                problems.append(f"{where}: imports {node.module}")
            for alias in node.names:
                if alias.name in ENGINE_CLASSES:
                    problems.append(f"{where}: imports {alias.name}")
    return problems


def test_core_never_branches_on_protocol():
    core = pathlib.Path(repro.core.__file__).parent
    sources = sorted(core.glob("*.py"))
    assert len(sources) >= 5
    problems = []
    for path in sources:
        problems += protocol_branches(path.read_text(encoding="utf-8"), path.name)
    assert problems == []


def test_guard_catches_each_kind_of_branch():
    source = "\n".join(
        [
            "from repro.consensus.pbft import PbftReplica",
            "import repro.multi.coordinator",
            "from repro.multi import InstanceCoordinator",
            "if isinstance(self.engine, object): pass",
            "if isinstance(x, PbftReplica): pass",
            "if config.protocol == 'rcc': pass",
            "if self.config.protocol != 'zyzzyva': pass",
            "if config.protocol in ('pbft', 'rcc'): pass",
            # validating against the protocol table is not a branch
            "if self.protocol not in ENGINES: pass",
        ]
    )
    lines = {int(problem.split(":")[1]) for problem in protocol_branches(source)}
    assert lines == set(range(1, 9))
