"""Record the exit codes and stdout digests the gates compare against.

    python3 bench/record_expected.py

Runs every CLI command of the catalogue, the two ``check laws --oracle``
inputs and the enumerations, against the package in this tree's ``src/``,
and rewrites ``bench/expected.json``.  Run it only when the package's output
is meant to change; the gates exist to catch changes nobody meant.
"""
from __future__ import annotations

import json
import random
import shutil
import sys

import run

run.import_package()

import biheyt  # noqa: E402
import catalogue  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lib import Lib  # noqa: E402


def main():
    lib = Lib(spans.NullTracer())
    work = run.ROOT / ".bench_out" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        path = catalogue.write_inputs(lib, work, catalogue.OPERAND_STRUCTURES)
        cmds = {c.key: c for cls in catalogue.classes(tiny=True) for c in cls}
        cmds.update({c.key: c for c in catalogue.all_commands()})
        cli = {}
        for key, cmd in sorted(cmds.items()):
            rc, out = workloads.run_cli(lib, cmd, path)
            if rc != 0:
                sys.exit(f"{key}: exit code {rc}")
            cli[key] = [rc, workloads.sha256(out)]
        laws = {}
        for spec in ("boolean:3", "mo:3", "mo:2"):
            digests = set()
            for seed in (0, 1, 2):
                wl = workloads.LawsOracle(
                    workloads.Scale(laws_structures=(spec,)), work / "laws")
                state = wl.setup(lib, seed)
                (cmd, rc, out), = wl.round(state, lib, [])
                digests.add((rc, workloads.sha256(out)))
            if len(digests) != 1:
                sys.exit(f"check laws on {spec}: output depends on labels")
            laws[cmd.source] = list(digests.pop())
        enum = {}
        for spec, limits in (("boolean:3", biheyt.DEFAULT_LIMITS),
                             ("boolean:4", workloads.FULL.enum_limits)):
            st = catalogue.build_structure(lib, spec)
            poset = catalogue.poset_of(lib, st)
            subs = biheyt.enumerate_subobjects(poset, limits=limits)
            enum[spec] = {"count": len(subs),
                          "sha256": workloads.order_digest(subs)}
        cold = catalogue.Cmd("validate", "cabello18")
        rc, out = workloads.run_cli(lib, cold, path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    data = {"cli": cli, "laws": laws, "enumerate": enum,
            "cold_start": [rc, workloads.sha256(out)]}
    workloads.EXPECTED_PATH.write_text(
        json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(cli)} CLI commands, {len(laws)} law checks, "
          f"{len(enum)} enumerations")


if __name__ == "__main__":
    main()
