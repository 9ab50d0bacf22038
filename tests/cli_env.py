"""Environment for the ``python -m fdl.cli`` child processes the tests spawn.

The children run with a temp dir as their working directory, so a relative
``PYTHONPATH`` entry such as ``src`` no longer finds the package there.
"""

import json
import os
from pathlib import Path

import fdl

# The directory holding the ``fdl`` package this process imported: ``src``
# in a source checkout, site-packages (or ``src`` again) when installed.
FDL_PARENT = str(Path(fdl.__file__).resolve().parent.parent)


def cli_env(extra=None):
    """The caller's environment with this process's ``fdl`` first on ``PYTHONPATH``.

    An inherited ``FDL_SEED`` is dropped, so a child runs with the seed its
    arguments or config give; ``extra`` sets variables on top, for example
    ``{"FDL_SEED": "11"}``.
    """
    env = {k: v for k, v in os.environ.items() if k != "FDL_SEED"}
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([FDL_PARENT] + inherited)
    env.update(extra or {})
    return env


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def read_json_strict(path):
    """The JSON file at ``path``, rejecting ``NaN``, ``Infinity`` and
    ``-Infinity``: Python's ``json`` writes and reads them, but they are
    not JSON, so a run file holding one fails the test that reads it."""
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
