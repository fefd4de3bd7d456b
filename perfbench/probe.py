"""Set-up probe, run in a fresh interpreter by run.py.

Times what every CLI call pays before it does any work: importing
eprsim.cli and loading paper.cfg.  Usage: python3 probe.py <checkout root>
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    root = Path(sys.argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import eprsim.cli
    t1 = time.perf_counter()
    eprsim.cli.load_config(root / "paper.cfg")
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1,
                      "module": eprsim.cli.__file__}))


if __name__ == "__main__":
    main()
