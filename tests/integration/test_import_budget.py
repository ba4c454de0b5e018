"""Import budgets: the third-party packages each entry module may load.

Every console script, fleet worker and benchmark process pays its
imports before it does any work, so what an entry module loads is a
fixed per-process cost.  Counting packages instead of timing imports
makes the gate machine independent: a new runtime dependency fails here
by name, whatever the box.

A package counts against an entry module when code outside
site-packages (the repo, or the standard library on its behalf) asks
for it.  What a budgeted package loads for itself (scipy pulling in
numpy's optional helpers, say) is that package's business.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: run in a fresh interpreter: prints the site-packages top-level
#: packages that non-site-packages code asked for while importing argv[1]
PROBE = r"""
import importlib, json, sys, sysconfig

SITE = tuple(sysconfig.get_paths()[k] + "/" for k in ("purelib", "platlib"))
asked = set()


class Observer:
    def find_spec(self, name, path=None, target=None):
        if "." not in name and name not in sys.modules:
            frame = sys._getframe(1)
            while frame is not None and frame.f_globals.get(
                    "__name__", "").startswith(("importlib", "_frozen_importlib")):
                frame = frame.f_back
            if frame is None or not frame.f_code.co_filename.startswith(SITE):
                asked.add(name)
        return None


sys.meta_path.insert(0, Observer())
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(
    name for name in asked
    if (getattr(sys.modules.get(name), "__file__", None) or "").startswith(SITE)
)))
"""

BASE = {"numpy", "yaml"}
BUDGETS = {
    "repro.runner.cli": BASE,
    "repro.postprocess.cli": BASE,
    "repro.pkgmgr.cli": set(),
    "repro.obs.cli": BASE,
    "repro.runner.fsck": BASE,
    "repro.fleet.cli": BASE,
    "repro.obs.top": BASE,
    "repro.apps.babelstream.benchmark": BASE,
    "repro.apps.hpcg.benchmark": BASE | {"scipy"},
    "repro.apps.hpgmg.benchmark": BASE,
    "repro.apps.osu.benchmark": BASE,
}


@functools.lru_cache(maxsize=None)
def third_party_imports(module: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE, module],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize("module", sorted(BUDGETS))
def test_entry_module_stays_within_its_import_budget(module):
    extra = third_party_imports(module) - BUDGETS[module]
    assert not extra, f"{module} loads {sorted(extra)} beyond its budget"


def test_the_probe_sees_budgeted_packages():
    """The observer is not blind: hpcg does ask for numpy and scipy."""
    assert {"numpy", "scipy"} <= third_party_imports("repro.apps.hpcg.benchmark")
