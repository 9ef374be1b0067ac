"""Each demo prints exactly its pinned output.

The demos assert nothing, so a change to what they print would otherwise
pass unseen.  Each runs in its own process with ``src`` on the path, and
the sha256 of its stdout is compared with the pin.  The output does not
depend on ``PYTHONHASHSEED``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "big_relation": "611241a8b5917784396a9ff0475a3b91a50838e84eea328392d02764e2333c1d",
    "hopf_chain": "d00b26438936e314f3adce7777d3ffbf24042ddc50401bad552bb4fd18233170",
    "operation_tables": "8e1dcd8bee3a5ba6f578d5dd2d58be8d5cf888ee23783d5af21dd9de9114f370",
    "power_operation_pipeline": "ed104173059a82f63f847b712de797233663898a6b33beb921f875e347c91500",
    "suspension_and_juggling": "120736990644dae2796d6b548eb85c8ee39388b510cde6a364df646bbfc85ad0",
}


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_prints_its_pinned_output(name):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / (name + ".py"))],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED.get(name)
