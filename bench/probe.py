"""Cold-start probe for ``setup_s``: interpreter, imports and inputs.

    python3 bench/probe.py WORKLOAD SEED

Builds one batch workload's inputs the way a run does, prints ``ready``
and exits.  The benchmark times spawn-to-``ready``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    sys.path.insert(1, str(ROOT / "src"))
    from batch import BATCH
    BATCH[argv[0]](int(argv[1]), ROOT / "bench").prepare()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
