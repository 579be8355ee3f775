import os
from pathlib import Path

import pytest
from hypothesis import settings

from sdocheck.vocab import load_default_vocabulary

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# the interpreters that tests start import the checkout's package, as this
# one does through the pytest setting ``pythonpath``
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def vocab():
    return load_default_vocabulary()
