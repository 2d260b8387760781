import pytest

from lsqmatch.matio import load_matrix


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
