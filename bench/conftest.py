"""``python -m pytest bench``: map with this checkout's ``src/repro``."""

from bench.harness import require_checkout

require_checkout()
