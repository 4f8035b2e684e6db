"""Start the ``entdyn`` command line, or Python code that imports entdyn, as
a child process.

The ``entdyn`` console script exists only once the package is installed; the
suite also runs from a plain checkout with ``PYTHONPATH=src``. The helpers
use the script when it is on PATH and ``python -m entdyn`` otherwise, and
put the ``src`` dir of the ``entdyn`` package this process imported first on
the child's ``PYTHONPATH``, so the child runs the code under test whatever
its working directory.
"""

import os
import shutil
import subprocess
import sys

import entdyn

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(entdyn.__file__)))

# NPY_DISABLE_CPU_FEATURES value under which a child on an AVX-512 host runs
# numpy at X86_V3, the SIMD target of an AVX2-class host.
LOWERED_SIMD = "AVX512_SPR AVX512_ICL X86_V4"


def _run(command, env):
    child_env = dict(os.environ, **env)
    inherited = child_env.get("PYTHONPATH")
    child_env["PYTHONPATH"] = SRC_DIR + (os.pathsep + inherited if inherited else "")
    return subprocess.run(command, capture_output=True, text=True, env=child_env)


def run_entdyn(args, **env):
    """Run ``entdyn *args``; keyword arguments are added to the environment."""
    script = shutil.which("entdyn")
    command = [script] if script else [sys.executable, "-m", "entdyn"]
    return _run([*command, *args], env)


def run_python(code, **env):
    """Run ``python -c code``; keyword arguments are added to the environment."""
    return _run([sys.executable, "-c", code], env)
