"""Rewrites pinned.json: the result checksums of every operation at the
default seed, which later runs must reproduce byte for byte.

    python3 perfbench/pin.py

Run it only when a change to the output bytes is intended, and say so: the
pins are the guard that catches unintended changes.  Every operation must
pass its other checks before it is pinned.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run

os.environ.update(run.THREAD_ENV)  # before numpy loads: pins depend on BLAS threading

import jsonschema  # noqa: E402

import workloads  # noqa: E402
import worker  # noqa: E402
from checks import canonical_checksum, file_sha256  # noqa: E402


def main() -> int:
    lib = worker.import_library()
    with open(worker.SCHEMA) as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    work_dir = os.path.join(worker.WORK_DIR, f"pin-{os.getpid()}")
    os.makedirs(work_dir)
    os.chdir(work_dir)
    ops = {}
    try:
        for name in run.WORKLOADS:
            ctx = workloads.Context(lib, validator, {})
            for op in workloads.build(name, workloads.DEFAULT_SEED, ctx):
                out = op.run()
                err = op.check(out)
                if err:
                    print(f"error: {op.name}: {err}", file=sys.stderr)
                    return 1
                if op.files:
                    with open(op.files[0]) as fh:
                        pin = {"result": canonical_checksum(json.load(fh)["result"])}
                    if len(op.files) > 1:
                        pin["transcript"] = file_sha256(op.files[1])
                else:
                    pin = {"result": workloads.scan_checksum(out)}
                ops[op.name] = pin
    finally:
        os.chdir(worker.ROOT)
        shutil.rmtree(work_dir, ignore_errors=True)
    doc = {"platform": worker.platform_fingerprint(), "seed": workloads.DEFAULT_SEED,
           "ops": dict(sorted(ops.items()))}
    with open(worker.PINS, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"pinned {len(ops)} operations for {doc['platform']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
