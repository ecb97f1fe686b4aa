"""The benchmark tracer's by-name hooks resolve against the package.

perfbench/spans.py wraps elcomp functions by module and attribute name.  A
renamed or deleted target makes Tracer.install raise, which breaks the
traced benchmark pass; this test makes that a Tier-1 failure.
"""

import importlib
import sys
from pathlib import Path

import elcomp.cli  # noqa: F401  (loads every elcomp module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _elcomp_namespaces():
    """Every loaded elcomp module's namespace, and every class dict in it."""
    spaces = []
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "elcomp" or key.startswith("elcomp.")):
            spaces.append(vars(module))
            spaces += [vars(v) for v in vars(module).values() if isinstance(v, type)]
    return spaces


def _resolve(module_name, attr):
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_tracer_targets_resolve_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = []
    originals = []
    for module_name, attr, _, _ in spans.TARGETS:
        try:
            originals.append((module_name, attr, _resolve(module_name, attr)))
        except (KeyError, AttributeError):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"tracer targets missing from the package: {missing}"

    before = [dict(space) for space in _elcomp_namespaces()]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module_name, attr, original in originals:
            wrapped = _resolve(module_name, attr)
            assert wrapped is not original, f"{module_name}.{attr} was not wrapped"
    finally:
        tracer.restore()
    after = _elcomp_namespaces()
    assert len(after) == len(before)
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        changed = [key for key in old if old[key] is not new[key]]
        assert not changed, f"not restored: {changed}"
