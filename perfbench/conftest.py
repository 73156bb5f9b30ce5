import sys
from pathlib import Path

# the benchmark's own tests run against the cosetint sources of this checkout
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
