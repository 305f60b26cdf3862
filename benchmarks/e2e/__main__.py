"""Entry point: ``python -m benchmarks.e2e`` from the repository root."""

import sys
from pathlib import Path

if __name__ == "__main__":
    # The simulator is not installed: import it from the checkout.
    src = str(Path(__file__).resolve().parents[2] / "src")
    if src not in sys.path:
        sys.path.insert(0, src)

    from benchmarks.e2e.cli import main

    raise SystemExit(main())
