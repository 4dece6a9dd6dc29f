#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  The benchmark program (perfbench/e2e.cpp) is built
with CMake into $CARGO_TARGET_DIR (default .bench_build) against ../src;
scratch files go to a per-run directory there and are removed afterwards.
The program's standard output is passed through unchanged: `# ...` header
lines, `metric NAME VALUE UNIT` lines, and the JSON result as the last line.
Build output goes to standard error.  Exit codes: the program's (0 correct,
1 wrong answer, 2 usage or I/O error), 3 when the build fails, 4 on timeout.
"""

import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def source_rev():
    """Git revision when the checkout is a git repository, else a digest of src/."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build(out_dir):
    """Configure and build the program; returns its path or None."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out_dir), "--target", "hublab_e2e", "-j", jobs],
    ]
    # The compiler's temporary files stay inside the checkout too.
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        try:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
                return None
        except OSError as err:
            print(f"run.py: {err}", file=sys.stderr)
            return None
    return out_dir / "hublab_e2e"


def main(argv):
    if not (ROOT / "src").is_dir():
        print("run.py: no hublab sources next to perfbench/ (expected ../src)", file=sys.stderr)
        return 3
    root = build_root()
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        exe = build(root / "perfbench")
    if exe is None or not exe.is_file():
        print("run.py: build failed", file=sys.stderr)
        return 3

    work = root / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    traces = root / "traces"
    traces.mkdir(exist_ok=True)
    args = list(argv)
    tag = "-".join(args[i + 1] for i, a in enumerate(args[:-1]) if a in ("--workload", "--seed"))
    cmd = [str(exe), *args, "--work-dir", str(work), "--rev", source_rev(),
           "--trace-out", str(traces / f"trace-{tag or 'run'}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
