"""The package namespace: every public name, loaded on first use."""

import importlib
import subprocess
import sys

import pytest

import nvkit


def test_import_nvkit_loads_no_submodule():
    script = "import sys, nvkit; print(sorted(m for m in sys.modules if m.startswith('nvkit')))"
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "['nvkit']"


def test_public_names_are_their_submodule_attributes():
    assert len(nvkit.__all__) == len(set(nvkit.__all__)) > 80
    listed = dir(nvkit)
    for name in nvkit.__all__:
        owner = importlib.import_module(f"nvkit.{nvkit._OWNER[name]}")
        assert getattr(nvkit, name) is getattr(owner, name), name
        assert name in listed, name
    from nvkit import SpinSystem, fit_g2
    assert SpinSystem is nvkit.spin_model.SpinSystem
    assert fit_g2 is nvkit.photon_stats.fit_g2
    with pytest.raises(AttributeError, match="no_such_name"):
        nvkit.no_such_name
    with pytest.raises(ImportError):
        from nvkit import no_such_name  # noqa: F401
