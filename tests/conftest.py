"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import ctmcinfer


@pytest.fixture
def package_env():
    """Environment for a child Python process that imports this ctmcinfer.

    pytest's pythonpath setting reaches only the test process, so the child
    gets the imported package's source root at the front of PYTHONPATH.
    """
    src_root = str(Path(ctmcinfer.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = src_root if not inherited else src_root + os.pathsep + inherited
    return dict(os.environ, PYTHONPATH=path)
