"""The bench workloads (`bench/workloads.py`) call the program by dotted
name, `gpforge.<module>.<name>`, or through a module alias such as
`inf = gpforge.inference`; a renamed or deleted name, or a changed
certificate constructor, would only show when the benchmark is run, so
every such name is resolved here from the workload source.  So would a
change of their outputs: one pass of a workload is checked here against
its committed digests (`bench/expected/`)."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS_PY = os.path.join(ROOT, "bench", "workloads.py")


def _dotted(node):
    """The dotted name of a Name/Attribute chain, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _workload_tree():
    with open(WORKLOADS_PY) as f:
        return ast.parse(f.read(), WORKLOADS_PY)


def _references(tree):
    """Every gpforge.<module>.<name> the workloads use, module aliases
    expanded, with the calls made to each."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            value = _dotted(node.value)
            if value and value.count(".") == 1 and value.startswith("gpforge."):
                aliases[node.targets[0].id] = value
    refs = {}
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, ast.Attribute) else None
        if name is None:
            continue
        head, _, rest = name.partition(".")
        if head in aliases:
            name = f"{aliases[head]}.{rest}"
        if name.startswith("gpforge.") and name.count(".") == 2:
            refs.setdefault(name, [])
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in refs:
                refs[name].append(node)
    return refs


def _resolve(name):
    _, module_name, attr = name.split(".")
    module = importlib.import_module(f"gpforge.{module_name}")
    assert hasattr(module, attr), f"bench/workloads.py uses {name}, which is gone"
    return getattr(module, attr)


def test_every_workload_name_resolves():
    refs = _references(_workload_tree())
    # The three workloads reach the program through these modules.
    assert {"gpforge.cli.main", "gpforge.rewriting.bs_reduce", "gpforge.topology.triangulate"} <= set(refs)
    for name in refs:
        _resolve(name)


def test_certificate_accepts_the_workload_keywords():
    calls = _references(_workload_tree())["gpforge.rewriting.TrivialityCertificate"]
    assert calls, "the workloads build no TrivialityCertificate"
    params = set(inspect.signature(_resolve("gpforge.rewriting.TrivialityCertificate")).parameters)
    assert {"kind", "presentation", "target", "hom"} <= params
    for call in calls:
        assert {k.arg for k in call.keywords} <= params


@pytest.mark.parametrize("workload", ["wordproblem", "constructions"])
def test_workload_reproduces_the_committed_digests(workload):
    # The probe, quotient search and construction outputs against
    # bench/expected/<workload>.json; homology is checked in test_topology.
    argv = [sys.executable, "bench/one_pass.py", "--workload", workload, "--seed", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0 and result["failures"] == []
