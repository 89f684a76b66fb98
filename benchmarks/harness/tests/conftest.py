"""Put the harness and the package under test on the import path."""

import os
import sys

HARNESS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(HARNESS))
for path in (os.path.join(ROOT, "src"), HARNESS):
    if path not in sys.path:
        sys.path.insert(0, path)
