"""Set-up time of one fresh interpreter.

Imports mixgame from the checkout's ``src/``, then reads and validates a
config with ``experiments.config_from_dict`` (which resolves the delay), and
prints the seconds this took.

Usage: python3 perfbench/setup_probe.py CONFIG_JSON
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    start = perf_counter()
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import json

    import mixgame
    from mixgame import experiments
    if not Path(mixgame.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: mixgame was imported from {mixgame.__file__}, not {src}")
    experiments.config_from_dict(json.loads(Path(sys.argv[1]).read_text()))
    print(perf_counter() - start)


if __name__ == "__main__":
    main()
