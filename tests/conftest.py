import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that returns with a thread still running that it started."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"test left thread(s) running: {leaked}")
