"""The package surface: what `import rbpa` loads, the lazily resolved
names, the demo scripts and the README library tour.

The import checks run in fresh interpreters started with -S, so no
module that site-packages hooks load at start-up can hide one that rbpa
pulls in.
"""

import fnmatch
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rbpa
from rbpa import TailCertificate

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports rbpa from src."""
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", prelude + code],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_only_the_computing_core():
    out = _fresh(
        "import rbpa\n"
        "heavy = ('rbpa.identities', 'rbpa.oracle', 'rbpa.cli', "
        "'dataclasses', 'json')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "core = ('rbpa.bernoulli', 'rbpa.combinat', 'rbpa.counts', 'rbpa.egf')\n"
        "print(all(m in sys.modules for m in core))\n"
    )
    assert out.splitlines() == ["[]", "True"]


def test_submodules_resolve_after_a_bare_import():
    out = _fresh(
        "import rbpa\n"
        "print(len(rbpa.identities.REGISTRY.ids()))\n"
        "print(rbpa.oracle.enumerate_rbpa(4, 2, 1))\n"
        "print(rbpa.run_all is rbpa.identities.run_all)\n"
    )
    assert out.split() == ["26", "299", "True"]


def test_star_import_and_dir_list_every_name():
    out = _fresh(
        "import rbpa\n"
        "names = {}\n"
        "exec('from rbpa import *', names)\n"
        "print(sorted(n for n in names if not n.startswith('__')) == "
        "sorted(rbpa.__all__))\n"
        "print(set(rbpa.__all__) <= set(dir(rbpa)))\n"
    )
    assert out.split() == ["True", "True"]


@pytest.mark.parametrize("name", [
    "CheckReport", "Summary", "run_all", "run_identity", "SizeLimitError",
    "enumerate_preferential_arrangements", "enumerate_rbpa",
    "enumerate_rbpa_with_empty",
])
def test_lazy_names_are_the_submodule_objects(name):
    module = rbpa.oracle if hasattr(rbpa.oracle, name) else rbpa.identities
    assert getattr(rbpa, name) is getattr(module, name)
    assert name in rbpa.__all__


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rbpa.no_such_name
    assert not hasattr(rbpa, "IdentitySpec")
    with pytest.raises(ImportError):
        exec("from rbpa import no_such_name", {})


DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_in_a_fresh_interpreter(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def _tour_block() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _matches(value, shown: str) -> bool:
    """Does a README comment start with the value's repr?

    "..." in the comment stands for any text; text after the value
    ("299, independent route") is a remark.
    """
    text = repr(value)
    if "..." in shown:
        return fnmatch.fnmatchcase(text, shown.replace("...", "*"))
    return shown == text or shown.startswith((text + ",", text + " "))


def test_readme_library_tour():
    imports, calls = _tour_block().split("\n\n", 1)
    names = {}
    exec(imports, names)
    lines = [line for line in calls.splitlines() if line.strip()]
    results = {}
    for line in lines:
        expr, _, shown = line.partition("#")
        value = eval(expr.strip(), names)
        assert _matches(value, shown.strip()), (expr, value, shown)
        results[expr.strip()] = value
    assert results == {
        "p_egf(2, 1, 4).values": (1, 3, 11, 51, 299),
        "p_recurrence(2, 1, 4)": 299,
        "p_series_certified(2, 1, 4)": (
            299, TailCertificate(76, Fraction(1, 68719476736))
        ),
        "multi_poly_bernoulli((2, 0), 3)": 101,
        "poly_bernoulli(3, 1)": Fraction(1, 8),
        "u_number((2,), 3)": 15,
        "enumerate_rbpa(4, 2, 1)": 299,
        'run_all("quick").failed': 0,
    }


def _warm_every_cache():
    from rbpa import bernoulli, counts, oracle

    counts.p_binomial_shift(1, 2, 6)
    counts.p_recurrence(1, 2, 6)
    bernoulli.u_number((2, 1), 4)
    bernoulli.u_stirling_sum((1, -1), 4)
    bernoulli.poly_bernoulli(2, 3)
    bernoulli.multi_poly_bernoulli_li_oracle((1,), 3)
    bernoulli.reciprocal_coefficient(2, 4)
    oracle.enumerate_rbpa(3, 1, 1)
    oracle.enumerate_rbpa_with_empty(3, 1, 0, 1)


@pytest.mark.parametrize("name", ["combinat", "counts", "bernoulli", "oracle"])
def test_clear_caches_empties_every_cache_the_module_owns(name):
    # found by attribute, so a cache added later without a matching
    # line in clear_caches fails here
    from rbpa.combinat import RowCache

    module = getattr(rbpa, name)
    _warm_every_cache()
    caches = [
        value for value in vars(module).values()
        if isinstance(value, RowCache)
        or callable(value) and not isinstance(value, type)
        and hasattr(value, "cache_info") and value.__module__ == module.__name__
    ]
    assert any(cache.cache_info().currsize for cache in caches)
    module.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)
