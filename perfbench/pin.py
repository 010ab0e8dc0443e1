"""Write perfbench/pins.json: the digest of the ``pdfa check --all`` report
for every pinned suite seed, at both sizes.

    python3 perfbench/pin.py

The bounds-suite workload compares each report with these digests.  Run
this only when the suite's output is meant to change, and say why in
the change that commits the new pins.
"""

from __future__ import annotations

import json

from run import fresh_import
from workloads import PINS, BoundsSuite, digest, run_cli


def main() -> None:
    mods = fresh_import()
    suite = BoundsSuite()
    pins: dict = {"bounds-suite": {}}
    for size in suite.sizes:
        table = pins["bounds-suite"][size] = {}
        for seed in range(suite.SUITE_SEEDS):
            _elapsed, code, out = run_cli(mods, suite.argv(size, seed))
            if code != 0:
                raise SystemExit(f"suite failed (exit {code}) for {size} seed {seed}")
            table[str(seed)] = digest(out)
            print(f"{size} seed {seed}: {digest(out)}")
    PINS.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
