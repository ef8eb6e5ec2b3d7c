#!/usr/bin/env python3
"""MoRER benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the benchmark (the
repository's main sources plus perfbench/src) with sbt and caches the
classpath under perfbench/.build; later runs start the JVM directly.
The last line of stdout is the result JSON. Records of every run (env,
samples, span tree, sel_cov decision log) go to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / ".build"
OUT = HERE / "out"
MAIN_SOURCES = ROOT / "src" / "main" / "scala"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "3g"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    roots = [MAIN_SOURCES, HERE / "src"]
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for r in roots:
        files += sorted(p for p in r.rglob("*") if p.is_file())
    return files


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build(stamp):
    """Compile with sbt unless the cached build matches the sources."""
    cp_file, stamp_file = BUILD / "classpath.txt", BUILD / "stamp"
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    print("perfbench: building with sbt ...", file=sys.stderr)
    # The build resolves only from local caches.
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    proc = run_bounded([sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true",
                        "compile", "export Runtime/fullClasspath"],
                       cwd=HERE, timeout=BUILD_TIMEOUT_S, env=env)
    if proc is None or proc[0] != 0:
        fail("build failed")
    lines = [l for l in proc[1].splitlines() if l.strip()]
    if not lines or "scala-2.13/classes" not in lines[-1]:
        fail("sbt did not print the runtime classpath")
    BUILD.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1].strip())
    stamp_file.write_text(stamp)
    return lines[-1].strip()


def run_bounded(cmd, cwd, timeout, env=None):
    """Run cmd in its own process group, killing the group on timeout.

    Returns (exit code, stdout) or None on timeout. stderr is passed through.
    """
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return None
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this trace mode, if present."""
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.exists():
        return None
    spec = json.loads(spec_file.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    if not (MAIN_SOURCES / "repro" / "core" / "MoRER.scala").exists():
        fail(f"program sources not found under {MAIN_SOURCES.relative_to(ROOT)}; "
             "run from a full checkout of the repository")
    stamp = source_hash()
    cp = build(stamp)

    tmp = OUT / "tmp"
    for d in (tmp, OUT / "spark-local"):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
           "-Dspark.driver.host=127.0.0.1", "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", str(OUT),
           "--commit", f"{git_commit()} (sources sha256 {stamp[:16]})"]
    try:
        res = run_bounded(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    finally:
        for d in (tmp, OUT / "spark-local", OUT / "spark-warehouse"):
            shutil.rmtree(d, ignore_errors=True)
    if res is None:
        fail("benchmark run timed out")
    code, out = res
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        fail(f"benchmark exited with code {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    want = declared_metrics(a.trace)
    if want is not None and set(result["metrics"]) != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ want)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
