"""Fresh-process set-up probe of the benchmark.

    python3 perfbench/child.py [SPEC ...]

Time ``import emq.cli``, then loading each model SPEC (bundled name or .sys
path) in this fresh process, between two timings of the interpreter
reference loop.  Print {"ref_s", "import_s", "load_s", "emq_file"} as JSON,
ref_s being the mean of the two reference timings.
"""

from __future__ import annotations

import json
import sys
import time

import reference


def load_spec(spec: str):
    from emq import sysfile
    if spec in sysfile.bundled_names():
        return sysfile.load_bundled(spec)
    return sysfile.load_model(spec)


def main(specs) -> int:
    ref_before = reference.measure()
    t0 = time.perf_counter()
    import emq.cli
    t1 = time.perf_counter()
    for spec in specs:
        load_spec(spec)
    t2 = time.perf_counter()
    ref_s = (ref_before + reference.measure()) / 2.0
    print(json.dumps({"ref_s": ref_s, "import_s": t1 - t0, "load_s": t2 - t1,
                      "emq_file": emq.cli.__file__}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
