"""Regenerate ``reference.json``: the sweep results the benchmark checks against.

    python3 perfbench/make_reference.py

Runs each sweep workload once for every master seed the benchmark can
select and stores, per temperature, the averages and the regime.  Run it only
at a commit whose outputs are trusted; the checked-in file was made at the
commit that defined the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import run


def main() -> int:
    pkg = run.load_package()
    results = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, workload in run.WORKLOADS.items():
            if workload.command != "sweep":
                continue
            results[name] = {}
            for k in range(run.N_REFERENCE_SEEDS):
                master = run.REFERENCE_SEED + k
                out = Path(tmp) / f"{name}-{master}"
                code, _ = run.invoke(pkg.cli, workload.argv(master, out))
                if code != 0:
                    raise SystemExit(f"{name} with master seed {master} exited with {code}")
                results[name][str(master)] = [
                    [float(r["T_kelvin"]), float(r["gamma_avg"]), float(r["b_avg"]), r["regime"]]
                    for r in run.data_rows(out / "sweep.csv")
                ]
                shutil.rmtree(out)
                print(f"{name} {master}: {[row[3] for row in results[name][str(master)]]}", flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True).stdout.strip()
    (run.HERE / "reference.json").write_text(
        json.dumps({"commit": commit or None, "workloads": results}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
