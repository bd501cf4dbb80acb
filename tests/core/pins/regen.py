"""Regenerate the frontier pins ``frontier.json``.

    PYTHONPATH=src python3 tests/core/pins/regen.py

Runs every case of ``tests/core/test_frontier_pin.py`` through
``api.search`` and pins what the frontier DP at hand returns.  The pins
only move when a frontier point, its strategy or a pinned counter
changes, so review a diff of the file like a change to the frontier DP.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
sys.path.insert(0, str(ROOT))

from tests.core.test_frontier_pin import (  # noqa: E402
    CASES, PINS, case_key, run_case)


def main() -> None:
    pins = {case_key(*case): run_case(*case) for case in CASES}
    (PINS / "frontier.json").write_text(
        "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                           for k, v in sorted(pins.items())) + "\n}\n")


if __name__ == "__main__":
    main()
