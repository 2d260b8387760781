import pytest

from lsqmatch import bench
from lsqmatch.matio import load_matrix


@pytest.fixture(scope="session")
def mt_records():
    """One default-grid ``bench mt`` run at seed 42, shared by every test that reads it."""
    return bench.run_mt_suite(seed=42)


@pytest.fixture
def load_text(tmp_path):
    """Read matrix text the way users do: write it to a file, then ``load_matrix`` it.

    Errors name the file; ``load_text.where`` is the prefix they start with.
    """
    path = tmp_path / "text.mat"

    def load(text):
        path.write_bytes(text.encode("ascii"))
        return load_matrix(path)

    load.where = f"{path}: "
    return load
