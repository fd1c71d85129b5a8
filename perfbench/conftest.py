"""Puts the simulator sources on the path for the benchmark's tests:
``python -m pytest perfbench`` from the root of a checkout."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
