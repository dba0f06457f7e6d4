"""perfbench: a zero-think-time benchmark of the code in ``src/repro``.

Everything here measures the program from outside (public functions,
``Response`` fields, ``MetricsRegistry.snapshot()``, file sizes); see
``perfbench/README.md``.  Importing the package only makes ``repro``
importable from the checkout it sits in.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
