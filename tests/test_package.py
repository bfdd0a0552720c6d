"""The package's public names and what importing it loads."""

import os
import subprocess
import sys

import su2gap


def test_every_exported_name_resolves():
    missing = [name for name in su2gap.__all__ if not hasattr(su2gap, name)]
    assert missing == []
    assert len(set(su2gap.__all__)) == len(su2gap.__all__)


def test_star_import():
    namespace = {}
    exec("from su2gap import *", namespace)
    assert set(su2gap.__all__) <= set(namespace)


def test_cli_import_starts_no_thread_pool_machinery():
    # concurrent.futures (and the logging it imports) is loaded by the first
    # call that draws Haar pairs, not by every process that imports the CLI
    code = "import sys, su2gap.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(su2gap.__file__))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
