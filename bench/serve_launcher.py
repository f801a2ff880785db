"""Run ``repro serve`` with the benchmark's layer wrappers installed.

    python3 bench/serve_launcher.py SPOOL_DIR serve [repro serve flags]

Installs the same wrappers as a traced benchmark run (see
:mod:`layers`), then hands the remaining arguments to
``repro.cli.main``.  The server's own spans are spooled when it exits;
its forked simulation workers spool theirs as each attempt finishes.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    sys.path.insert(1, str(ROOT / "src"))
    import layers
    recorder = layers.Recorder(Path(argv[0]))
    layers.install(recorder)
    from repro.cli import main as repro_main
    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
