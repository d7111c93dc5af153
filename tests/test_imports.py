"""Each spikegrad module imports on its own, in a fresh interpreter.

neurons.lif_scan imports executor and topology when it is called, since
both import neurons. Importing the package runs __init__, which imports
the modules in one fixed order, so here the package is set up without
running __init__ and the module under test is the first one imported."""

import os
import pathlib
import subprocess
import sys

import pytest

import spikegrad

MODULES = sorted(p.stem for p in pathlib.Path(spikegrad.__file__).parent.glob("*.py")
                 if p.stem != "__init__")

# the package without its __init__, then the module, then a scan through
# the executor from the module's own import
PROGRAM = """
import importlib, importlib.util, sys
spec = importlib.util.find_spec("spikegrad")
sys.modules["spikegrad"] = importlib.util.module_from_spec(spec)
importlib.import_module("spikegrad." + sys.argv[1])
import numpy as np
from spikegrad.neurons import LIFParams, init_state, lif_scan
final, spikes = lif_scan(init_state(2), np.ones((3, 2), dtype=np.float32), LIFParams())
assert spikes.shape == (3, 2)
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    src = str(pathlib.Path(spikegrad.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-c", PROGRAM, module], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
