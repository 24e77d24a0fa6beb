"""Run one inflow-layer CLI command with the traced run's wrappers installed.

Usage: PYTHONPATH=src python3 bench/cli_shim.py SPANS_FILE COMMAND [ARGS...]

The command's spans are appended to SPANS_FILE as JSON lines, and the shim
exits with the command's exit code.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder  # noqa: E402

from inflow_layer import cli  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder(id_prefix=f"{os.getpid()}-")
    recorder.install()
    try:
        return cli.main(argv)
    finally:
        recorder.uninstall()
        recorder.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
