"""Suite-wide test isolation.

The trace store defaults to a per-user cache directory; the suite points
it (``$REPRO_TRACE_STORE``) at a temporary directory of its own, set
before any test module imports ``repro`` and inherited by every
subprocess a test starts, so running the tests never writes under ``~``.
"""

import os
import shutil
import tempfile

_TRACE_STORE_DIR = tempfile.mkdtemp(prefix="repro-test-traces-")
os.environ["REPRO_TRACE_STORE"] = _TRACE_STORE_DIR


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_TRACE_STORE_DIR, ignore_errors=True)
