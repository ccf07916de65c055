import json

import pytest

from gen import bm_json
from spongedims import SpongeSpec


@pytest.fixture
def fig1() -> SpongeSpec:
    """The 3-d sponge with bases (2,3,3) and four maps; both formulas give 2."""
    return SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1)))


@pytest.fixture
def modified() -> SpongeSpec:
    """Same grid with a fifth map; the per-coordinate formula overshoots."""
    return SpongeSpec((2, 3, 3), ((0, 0, 0), (0, 1, 1), (0, 2, 1), (0, 2, 2), (1, 0, 1)))


@pytest.fixture
def fig1_file(tmp_path, fig1):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(bm_json(fig1)))
    return str(path)


@pytest.fixture
def modified_file(tmp_path, modified):
    path = tmp_path / "modified.json"
    path.write_text(json.dumps(bm_json(modified)))
    return str(path)
