"""The pinned CLI outputs of the benchmark, byte for byte.

Every invocation in bench/pins.json runs through `btq.cli.main` in this
process and must exit 0 with stdout of the pinned sha256.  The file is
only read: an output that changes on purpose updates it in a benchmark
change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from btq.cli import main

PINS = json.loads((Path(__file__).parents[1] / "bench" / "pins.json").read_text())


@pytest.mark.parametrize("invocation", sorted(PINS))
def test_pinned_output(invocation, capsysbinary):
    code = main(invocation.split())
    out = capsysbinary.readouterr().out
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == PINS[invocation]
