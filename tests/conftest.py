import os
import sys
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# Hypothesis caches the constants it reads from the source tree while the
# tests are collected, even with no example database; keep that cache out
# of the checkout.
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "qubusim-hypothesis"))
