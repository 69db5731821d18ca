"""The package namespace: public names resolve lazily to their submodules' objects."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dp1alpha
from dp1alpha import lemmas

SOURCE = str(Path(dp1alpha.__file__).resolve().parent.parent)


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that finds the package where this one did."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )


def test_all_is_sorted_and_unique():
    assert dp1alpha.__all__ == sorted(set(dp1alpha.__all__))
    assert len(dp1alpha.__all__) == 45


@pytest.mark.parametrize("name", dp1alpha.__all__)
def test_every_public_name_is_its_submodule_object(name):
    value = getattr(dp1alpha, name)
    if name == "LEMMA_IDS":  # a tuple carries no __module__
        assert value is lemmas.LEMMA_IDS
        return
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("dp1alpha.")
    assert getattr(module, name) is value


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from dp1alpha import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == dp1alpha.__all__
    assert all(namespace[name] is getattr(dp1alpha, name) for name in namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dp1alpha.no_such_name
    with pytest.raises(ImportError):
        exec("from dp1alpha import no_such_name", {})
    assert not hasattr(dp1alpha, "no_such_name")


def test_dir_lists_public_names_and_submodules():
    listed = dir(dp1alpha)
    assert set(dp1alpha.__all__) <= set(listed)
    assert {"alpha", "cli", "cone", "fme", "lemmas", "linprog", "picard"} <= set(listed)


def test_import_loads_no_submodule_until_a_name_is_used():
    code = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('dp1alpha.'))\n"
        "import dp1alpha\n"
        "steps = [loaded()]\n"
        "dp1alpha.format_class\n"
        "steps.append(loaded())\n"
        "from dp1alpha import cone\n"
        "steps.append(loaded())\n"
        "assert dp1alpha.fme is sys.modules['dp1alpha.fme']\n"
        "steps.append(loaded())\n"
        "print(json.dumps(steps))\n"
    )
    steps = json.loads(fresh_python(code).stdout)
    picard = ["dp1alpha.picard", "dp1alpha.rationals"]
    cone = ["dp1alpha.cone"] + picard
    assert steps == [
        [],
        picard,
        sorted(cone),
        sorted(cone + ["dp1alpha.fme"]),
    ]
