"""Suite-wide test setup: shared helper modules live next to this file.

``oracles.py`` holds reference implementations the tests compare the
production code against; putting this directory on ``sys.path`` lets any
test module import it as ``from oracles import ...``.
"""

import sys
from pathlib import Path

_HERE = str(Path(__file__).resolve().parent)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
