"""Compare two saved benchmark results (run.py --out) metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Results taken on different scalar backends (fractions vs gmpy2) measure
different arithmetic, so the comparison is refused with exit code 2.
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    saved = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            saved.append(json.load(fh))
    base, new = saved
    if base["meta"]["backend"] != new["meta"]["backend"]:
        sys.stderr.write(f"refusing to compare: backend {base['meta']['backend']} "
                         f"vs {new['meta']['backend']}\n")
        return 2
    for key in ("workload", "trace", "src_lines"):
        print(f"{key}: {base['meta'][key]} -> {new['meta'][key]}")
    for name, m in base["result"]["metrics"].items():
        other = new["result"]["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(f"{name}: {m['value']:.6g} -> {other['value']:.6g} {m['unit']} (x{ratio:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
