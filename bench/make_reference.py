"""Writes bench/reference.json: every workload's outputs at the reference seed,
with the largest certified tail bound of the oracle calls behind each row.

    python3 bench/make_reference.py

The benchmark checks every run against this file, so regenerate it only from
a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from tracer import Tracer


def main() -> int:
    cli = run.import_cli()
    doc = {"seed": run.REFERENCE_SEED, "workloads": {}}
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=run.OUT))
    try:
        for name, (command, _) in run.WORKLOADS.items():
            out_dir = tmp / name
            argv = run.cli_argv(name, out_dir, run.REFERENCE_SEED)
            tracer = Tracer()
            tracer.install()
            try:
                rc = cli.main(argv)
            finally:
                tracer.uninstall()
            if rc != 0:
                print(f"{name}: exit code {rc}", file=sys.stderr)
                return 1
            bounds = {}
            for n, _, bound in tracer.oracle_calls:
                bounds[n] = max(bounds.get(n, 0.0), bound)
            if command == "oracle":
                entry = json.loads((out_dir / "oracle.json").read_text())
                del entry["config"]
            else:
                entry = json.loads((out_dir / "report.json").read_text())
                del entry["metadata"]
            for row in entry["rows"]:
                row.pop("wall_ms", None)
                row.pop("wall_time_s", None)
                row["tail_bound"] = bounds.get(row["n"])
            doc["workloads"][name] = entry
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
