"""Small-M duel reports stay byte-identical to the recorded digests.

tests/fixtures/small_duels.json holds the stdout sha256 and exit code of
`packbound duel` for every shipped adversary x algorithm pairing at
M in {8, 12, 24}.  At M = 8 the ko adversary also runs the exact
minimum-bin check; clcbp needs M divisible by 6, so its M = 8 entries pin
the configuration error (exit 3, empty stdout).
"""

import hashlib
import json
from pathlib import Path

import pytest

from packbound.cli import main

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "small_duels.json").read_text())["duels"]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_duel_report_matches_recorded_digest(capsys, key):
    code = main(key.split())
    out = capsys.readouterr().out
    assert code == GOLDEN[key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[key]["sha256"]
