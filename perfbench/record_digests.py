"""Record the sha256 of every stdout of the default seed's first rounds.

Run from the repository root after a change that alters qlax's output on
purpose; every command must first pass its known-answer checks:

    python3 perfbench/record_digests.py

Writes perfbench/digests.json, which the benchmark compares against when
it runs the default seed (and, for cli_cold, whose commands do not depend
on the seed, always).
"""

from __future__ import annotations

import json
import os
import sys

import worker  # puts src/ on sys.path and imports qlax.cli
import workloads
from checks import DIGESTS_FILE, Checker, sha256


def main() -> int:
    checker = Checker(worker.ROOT, {})
    workdir = os.path.join(workloads.WORK_DIR, f"digests-{os.getpid()}")
    table, bad = {}, []
    try:
        for name in workloads.WORKLOADS:
            rounds = workloads.build_rounds(name, workloads.DEFAULT_SEED, workloads.DIGEST_ROUNDS, workdir)
            workloads.write_files(rounds)
            table[name] = {}
            for rnd in rounds:
                for cmd in rnd.commands:
                    code, _, out, err = worker.run_inprocess(cmd.argv)
                    problems = checker.check(cmd, code, out, err)
                    if problems:
                        bad.append(f"{name} {cmd.key}: {'; '.join(problems)}")
                    table[name][cmd.key] = sha256(out)
    finally:
        workloads.remove_workdir(workdir)
    if bad:
        sys.stderr.write("not recorded; commands failed their checks:\n" + "\n".join(bad) + "\n")
        return 1
    with open(DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(len(v) for v in table.values())} digests in {DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
