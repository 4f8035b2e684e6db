"""The public names and the layer hooks of the benchmark tracer exist."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import entdyn
from cli_command import SRC_DIR

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_public_names_resolve():
    missing = [name for name in entdyn.__all__ if not hasattr(entdyn, name)]
    assert missing == []
    assert len(set(entdyn.__all__)) == len(entdyn.__all__)


def test_traced_functions_exist():
    # A renamed target would turn its per-layer benchmark metric into null.
    missing = []
    for module_name, attr, span, _counter in _tracing_hooks():
        module = importlib.import_module(f"entdyn.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append((module_name, attr, span))
    assert missing == []


def test_cli_import_pulls_in_no_parser_or_pool():
    # A one-run process pays for every module it imports: parsing needs no
    # argparse (nor its gettext and locale), a one-worker run no thread pool
    # (nor the logging it imports), and no run the quadrature's numpy.polynomial.
    unwanted = ["argparse", "gettext", "locale", "concurrent.futures", "logging", "numpy.polynomial"]
    code = f"import sys, entdyn.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
