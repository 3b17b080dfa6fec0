"""Regenerate ``expected_cli.json``, the pinned output of every cli-mix call.

Run from the root of a checkout whose CLI output is trusted:

    python3 bench/pin_cli.py

Each catalogue call is run once, in catalogue order, and its exit code
and stdout digest are written out.  A call that exits with code 2 (usage
or I/O error) aborts the script, because the catalogue must hold only
calls that succeed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from workloads import EXPECTED_CLI, CliMix, output_digest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(ROOT, ".bench_work", "pin")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = CliMix(0, workdir)
        wl.begin_pass()
        expected = {}
        for group in wl.groups:
            for key, argv, out_path in group:
                rc, out = wl._call(argv, out_path)
                if rc == 2:
                    print(f"error: {key} exits with code 2", file=sys.stderr)
                    return 1
                expected[key] = output_digest(rc, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED_CLI, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(expected)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
