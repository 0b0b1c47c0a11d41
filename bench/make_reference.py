#!/usr/bin/env python3
"""Record the dist-curves reference outputs from the current source tree.

    python3 bench/make_reference.py

Writes the outputs of every dist-curves command, gzip-compressed, to
``bench/reference/``.  The references were recorded at the commit that
added the benchmark; re-record them only for a deliberate change of the
analytic results, and say so where the change is described.
"""

from __future__ import annotations

import gzip
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from resodyn import cli  # noqa: E402

from workloads import REFERENCE_DIR, dist_commands  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for cmd in dist_commands(tmp):
            try:
                cli.main.main(args=cmd.args, prog_name="resodyn")
            except SystemExit as exc:
                if exc.code:
                    print(f"{cmd.label} exited {exc.code}", file=sys.stderr)
                    return 1
            target = REFERENCE_DIR / (cmd.reference + ".gz")
            with open(cmd.out, "rb") as src, open(target, "wb") as raw:
                with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as dst:
                    dst.write(src.read())
            print(f"wrote {target.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
