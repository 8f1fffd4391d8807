"""One cold scan-wide operation, run in a fresh interpreter by run.py.

    python bench/scan_child.py <src dir> <spans file or ->

Set-up imports the package, loads the database and builds every root
system the wide grid instantiates; the timed part is the equality scan
plus its CSV rendering, as `ferus --scan --p-range 2:30 --n-range 0:30`
does.  Prints one JSON object: the two times, the CSV and, when a spans
file is named, the traced per-layer figures.
"""

import json
import sys
import time
from pathlib import Path

P_RANGE, N_RANGE = (2, 30), (0, 30)


def main(src: str, spans_path: str) -> None:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import checks

    tracer = None
    if spans_path != "-":
        from tracer import Tracer, layer_modules

        tracer = Tracer("scan-wide")
        tracer.install(layer_modules())
    from gaussorbits import ferus, pairdb, report, rootsys

    db = pairdb.load_database()
    pairs = checks.parse_pairs((Path(src) / "gaussorbits/data/pairs.dat").read_text())
    types = sorted({(rec["family"], checks.rank_of(rec, p))
                    for rec in pairs
                    for p, _ in checks.instantiations(rec, P_RANGE, N_RANGE)})
    for family, rank in types:
        rootsys.build(family, rank)
    setup_s = time.perf_counter() - start

    t0 = time.perf_counter()
    rows = ferus.equality_scan(db, p_range=P_RANGE, n_range=N_RANGE)
    headers, cells = report.scan_cells(rows)
    text = report.render_table(headers, cells, "csv")
    scan_s = time.perf_counter() - t0

    out = {"setup_s": setup_s, "scan_s": scan_s, "systems": len(types), "csv": text}
    if tracer is not None:
        tracer.remove()
        tracer.write_spans(spans_path)
        out["layers"] = tracer.aggregates()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    main(sys.argv[1], sys.argv[2])
