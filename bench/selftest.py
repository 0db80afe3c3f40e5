"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload once at a tiny size and checks that no op fails and
that two runs of one seed give the same answer digest.  Then it injects
faults into the cli-corpus workload and checks that they are counted as
failed ops: a tampered torsion certificate, and a changed exit code.
Last, it checks that the benchmark refuses to run, printing no result, in
a directory that holds only the benchmark.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from run import ROOT, add_sources, run_loop, set_up
from cli_expected import COMBINE
from workloads import WORKLOADS

WORK = ROOT / ".bench_build" / "selftest"


def tiny_run(name, seed, tag):
    workload, _ = set_up(name, seed, WORK / tag, tiny=True)
    return workload, run_loop(workload, 0)


def check(cond, message):
    print("%s: %s" % ("PASS" if cond else "FAIL", message))
    return cond


def tamper_certificates(lib):
    """Make every `--certificate` file claim twice its first coefficient."""
    main = lib.cli.main

    def tampered(argv, stream=None):
        code = main(argv, stream)
        if "--certificate" in argv:
            path = Path(argv[argv.index("--certificate") + 1])
            lines = path.read_text("utf-8").splitlines()
            for i, line in enumerate(lines):
                if line.startswith("chain "):
                    head, body = line.split(" : ", 1)
                    coef, rest = body.split(" ", 1)
                    lines[i] = "%s : %s %s" % (head, 2 * Fraction(coef), rest)
            path.write_text("\n".join(lines) + "\n", "utf-8")
        return code
    lib.cli.main = tampered


def change_combine_exit_code(lib):
    main = lib.cli.main

    def changed(argv, stream=None):
        code = main(argv, stream)
        return 3 if argv[0] == "combine" else code
    lib.cli.main = changed


def bare_checkout_refuses():
    bare = WORK / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    return proc.returncode != 0 and not proc.stdout.strip()


def main():
    if not add_sources():
        print("selftest: no blinfty sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    os.environ.pop("BLINFTY_THREADS", None)
    shutil.rmtree(WORK, ignore_errors=True)
    ok = True
    try:
        for name in WORKLOADS:
            _, first = tiny_run(name, 7, name + "-a")
            _, second = tiny_run(name, 7, name + "-b")
            ok &= check(not first.failed and not second.failed,
                        "%s: %d ops, none failed" % (name, first.attempted))
            ok &= check(first.digest() == second.digest(),
                        "%s: same seed, same digest %s"
                        % (name, first.digest()[:12]))

        workload, _ = set_up("cli-corpus", 7, WORK / "tamper", tiny=True)
        tamper_certificates(workload.lib)
        run = run_loop(workload, 0)
        labels = [f["label"] for f in run.failed]
        ok &= check(
            any(l.startswith("torsion @planar-torsion-one --certificate")
                for l in labels)
            and "verify >planar-torsion-one.merged.blf" in labels
            and "verify >torsion-zero.merged.blf" in labels,
            "tampered certificates fail their write and read-back ops "
            "(%d failed)" % len(labels))

        workload, _ = set_up("cli-corpus", 7, WORK / "exit-code", tiny=True)
        change_combine_exit_code(workload.lib)
        run = run_loop(workload, 0)
        labels = [f["label"] for f in run.failed]
        ok &= check(len(labels) == len(COMBINE) and
                    all(l.startswith("combine ") for l in labels),
                    "changed exit codes fail exactly the %d combine ops"
                    % len(COMBINE))

        ok &= check(bare_checkout_refuses(),
                    "refuses, without a result line, where src/ is missing")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"selftest": "ok" if ok else "failed"}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
