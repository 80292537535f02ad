#!/usr/bin/env python3
"""Run the bundled benchmark corpus against the bundled merge tool.

Equivalent to:
    summer-bench run corpus/manifest.json --tool "python3 -m summer merge"
"""

from __future__ import annotations

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from summer.bench import main  # noqa: E402

if __name__ == "__main__":
    # The merge tool runs in a child interpreter, which must import summer
    # too, also from a checkout that is not installed.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    manifest = os.path.join(os.path.dirname(__file__), "..", "corpus", "manifest.json")
    sys.exit(
        main(["run", manifest, "--tool", f"{sys.executable} -m summer merge"])
    )
