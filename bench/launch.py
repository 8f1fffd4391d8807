"""Run one gaussorbits CLI command with the benchmark's tracer installed.

    python bench/launch.py <src dir> <figures file> <trace id> <cli args...>

Installs the same wrappers as the in-process workloads, calls
`gaussorbits.cli.main(argv)` and exits with its code, as the installed
entry point does.  The per-layer figures and the spans are written to
<figures file> and <figures file>.spans even when the command raises.
"""

import json
import sys
from pathlib import Path


def main(src: str, figures_path: str, trace_id: str, argv: list[str]) -> int:
    sys.path.insert(0, src)
    from tracer import Tracer, layer_modules

    tracer = Tracer(trace_id)
    tracer.install(layer_modules())
    from gaussorbits import cli

    try:
        return cli.main(argv)
    finally:
        tracer.remove()
        tracer.write_spans(figures_path + ".spans")
        Path(figures_path).write_text(json.dumps(tracer.aggregates()))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]))
