"""The demos run and print exactly the text they printed when pinned."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of each demo's standard output
DEMO_DIGESTS = {
    "blowup_charts": "9fbc1df6f12e2da4a2c0fb38afc8687a3273a234386b9bdbcc13d994fe9cf410",
    "boundary_tour": "d3b457e9321bcdf5ca70c3888d100d9033cf71cb43ede41ac21d789ef4273f84",
    "quotient_fibers": "20e0a3afe4a0435956e573e7897e371f5cd96c7737602134d689e87aaf06df3a",
}


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_pinned(name):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name + ".py")],
                         capture_output=True, env=env, timeout=60, check=True)
    assert hashlib.sha256(out.stdout).hexdigest() == DEMO_DIGESTS[name]
