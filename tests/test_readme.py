"""The README's config examples load, so the documented schema cannot drift
from the loader."""

import json
import re
from pathlib import Path

import pytest

from schlichtlab.lab import ScenarioConfig

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_config_blocks():
    assert BLOCKS


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_config_block_loads(block):
    ScenarioConfig.from_dict(json.loads(block))
