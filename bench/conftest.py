import os
import sys

_here = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(_here, "..", "src"))
sys.path.insert(0, os.path.join(_here, "..", "tests"))  # the brute-force oracle
sys.path.insert(0, _here)
