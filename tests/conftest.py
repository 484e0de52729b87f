import os

import pytest
from hypothesis import settings

# CI runs replay the same examples, so a red run can be reproduced locally
# with CI=1.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(autouse=True)
def _isolated_run_store(tmp_path, monkeypatch):
    # Keep CLI run records out of the real home directory during tests.
    monkeypatch.setenv("CHAINREP_DATA_DIR", str(tmp_path / "runstore"))
