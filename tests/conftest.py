from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from umtl import chain_algebra, example_3_2, make_umtl
from umtl.corpus import SIX_BLOCKY, SIX_DELTA, bundled_corpus


def pytest_configure(config):
    # Hypothesis keeps the constants it collects from the test sources in
    # its storage directory even with no example database, so the session
    # gives it a temporary one instead of `.hypothesis/` in the checkout
    config.hypothesis_storage = tempfile.mkdtemp(prefix="umtl-hypothesis-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = config.hypothesis_storage


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_storage, ignore_errors=True)


@pytest.fixture(scope="session")
def six():
    return example_3_2()


@pytest.fixture(scope="session")
def six_delta(six):
    return make_umtl(six, SIX_DELTA, name="example-3-2+000005")


@pytest.fixture(scope="session")
def six_block(six):
    return make_umtl(six, SIX_BLOCKY, name="example-3-2+002245")


@pytest.fixture(scope="session")
def luk3():
    return chain_algebra("lukasiewicz", 3)


@pytest.fixture(scope="session")
def goedel3():
    return chain_algebra("goedel", 3)


@pytest.fixture(scope="session")
def nm5():
    return chain_algebra("nilpotent-minimum", 5)


@pytest.fixture(scope="session")
def corpus_entries():
    return bundled_corpus()
