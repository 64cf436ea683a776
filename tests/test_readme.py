"""The README's config examples load, and its table of what each scenario's
config holds is the lab's, so the documented schema cannot drift from the
loader."""

import json
import re
from pathlib import Path

import pytest

from schlichtlab import lab
from schlichtlab.lab import ScenarioConfig

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```json\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)

# the rows of the README's scenario table, | `name` | fields | tolerances |,
# which runs from its "| scenario" header to the next blank line
TABLE = {m[1]: (m[2], m[3]) for m in re.finditer(
    r"^\| `(\w+)` +\|(.*)\|(.*)\|$",
    re.search(r"^\| scenario .*?\n\n", TEXT, flags=re.MULTILINE | re.DOTALL)[0],
    flags=re.MULTILINE)}


def test_readme_has_config_blocks():
    assert BLOCKS


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_config_block_loads(block):
    ScenarioConfig.from_dict(json.loads(block))


@pytest.mark.parametrize("scenario", list(lab.SCENARIOS))
def test_scenario_table_matches_the_lab(scenario):
    assert set(TABLE) == set(lab.SCENARIOS)
    fields, tolerances = TABLE[scenario]
    row = lab.SCENARIOS[scenario]
    named = re.findall(r"`(\w+)`", fields)
    assert [f for f in named if f in ("m_range", "n_range", "grunsky_order")] == list(row.reads)
    documented = {key: float(value) for key, value in re.findall(r"`(\w+)` ([\d.e+-]+)",
                                                                  tolerances)}
    assert documented == row.tolerances
    assert list(documented) == list(row.tolerances)
