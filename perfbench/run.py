"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cyclic-read --seed 1 --seconds 12 --trace 0

Generates (or reuses, cached by seed under ``.perfbench_cache/``) the
workload's inputs, then runs the workload in its own process under a
wall-clock limit, so a hang or a crash there is reported as failed
operations instead of stalling the benchmark.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1`` (see ``perfbench/spec.py`` and ``perfbench/README.md``).
Each run also writes a record with a machine fingerprint to
``.perfbench_cache/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gen, spec  # noqa: E402

CACHE = ROOT / ".perfbench_cache"
#: Wall-clock limits, seconds: building the universe (once per
#: checkout), one seed's plan, and the workload process of a run.
UNIVERSE_LIMIT = 800
PLAN_LIMIT = 120
RUN_LIMIT = 170
#: ``PYTHONHASHSEED`` of every process the benchmark starts.
HASH_SEED = "0"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # String hashing decides the engines' set and dict iteration orders;
    # across hash seeds dag-diversified throughput moved by up to 40%
    # on identical work, so every run uses one fixed seed.
    env["PYTHONHASHSEED"] = HASH_SEED
    tmp = CACHE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _stop_group(proc: subprocess.Popen, grace: float = 5.0) -> None:
    """Kill ``proc``'s process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _run_child(args: list[str], limit: float, log: Path) -> int | None:
    """Run ``python3 -m <args>`` in its own session; ``None`` on timeout."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with log.open("w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", *args], cwd=ROOT, env=_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            code = None
        # Leftovers (children of a crashed run) die with the group.
        _stop_group(proc)
    return code


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _inputs_digest() -> str | None:
    universe = CACHE / gen.UNIVERSE_DIR
    if not (universe / "done").exists():
        return None
    digest = hashlib.sha256()
    for name in ("youtube.json", "citation.json", "templates.json", "references.json",
                 gen.STREAM_FILE, gen.STREAM_REFERENCES):
        digest.update((universe / name).read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(args: argparse.Namespace, details: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "python_hash_seed": HASH_SEED,
        "numpy": details.get("numpy"),
        "graph": details.get("graph"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "inputs_sha256": _inputs_digest(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _from_progress(path: Path, trace: int) -> dict:
    """Account for a workload process that hung or crashed.

    Every operation it started counts as attempted; none was checked
    against its reference, so every one counts as failed.  Latencies of
    the operations that finished still give the end-to-end metrics they
    can.
    """
    started, setups, ops, queries = 0, [], [], []
    for line in path.read_text().splitlines() if path.exists() else ():
        kind, _, rest = line.partition(" ")
        if kind == "op":
            started += int(rest)
        elif kind == "setup":
            setups.append(float(rest))
        elif kind == "done":
            done = json.loads(rest)
            ops.append(done["op"])
            queries.extend(done["queries"])
    metrics: dict = {}
    if not trace:
        from perfbench import stats

        if setups:
            metrics["setup_s"] = stats.median(setups)
        for prefix, samples in (("query", queries), ("op", ops)):
            if samples:
                metrics[f"{prefix}_p50_ms"] = 1000.0 * stats.median(samples)
                metrics[f"{prefix}_tail_ms"] = 1000.0 * stats.tail(samples).value
    attempted = max(1, started)
    return {"metrics": metrics, "attempted": attempted, "failed": attempted, "details": {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no repro sources under {ROOT / 'src'}; run from a checkout")

    started = time.monotonic()
    universe_seconds = 0.0
    logs = CACHE / "logs"
    if not (CACHE / gen.UNIVERSE_DIR / "done").exists():
        code = _run_child(["perfbench.gen", str(CACHE), "universe"], UNIVERSE_LIMIT,
                          logs / "universe.log")
        if code != 0:
            return _fail(f"building the inputs failed; see {logs / 'universe.log'}")
        universe_seconds = time.monotonic() - started
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    plan_dir = CACHE / args.workload / f"seed-{args.seed}"
    if not (plan_dir / "plan.json").exists():
        code = _run_child(["perfbench.gen", str(CACHE), "seed", args.workload, str(args.seed)],
                          PLAN_LIMIT, logs / f"plan-{name}.log")
        if code != 0:
            return _fail(f"building the plan failed; see {logs / f'plan-{name}.log'}")

    result_path = CACHE / "results" / f"{name}.json"
    progress_path = CACHE / "results" / f"{name}.progress"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    progress_path.unlink(missing_ok=True)
    limit = RUN_LIMIT - (time.monotonic() - started - universe_seconds)
    code = _run_child(
        ["perfbench.workload", "--workload", args.workload, "--plan", str(plan_dir),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--result", str(result_path), "--progress", str(progress_path),
         "--trace-file", str(CACHE / "traces" / f"{name}.jsonl")],
        limit, logs / f"{name}.log",
    )
    if code == 0 and result_path.exists():
        outcome = json.loads(result_path.read_text())
    else:
        outcome = _from_progress(progress_path, args.trace)
        what = "timed out" if code is None else f"exited with {code}"
        outcome.setdefault("problems", []).append(
            f"workload process {what}; see {logs / f'{name}.log'}")

    units = {m.name: m.unit for m in (*spec.END_TO_END, *spec.PER_LAYER)}
    metrics = {key: {"value": value, "unit": units[key]}
               for key, value in outcome["metrics"].items()}
    record = {"fingerprint": fingerprint(args, outcome["details"]), **outcome}
    records = CACHE / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{name}-{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(
        json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for key, entry in metrics.items():
        tail = outcome["details"].get(key[: -len("_ms")]) if key.endswith("_tail_ms") else None
        note = f"  (p{tail['percentile']:.1f} of {tail['samples']} samples)" if tail else ""
        print(f"  {key:34s} {entry['value']:14.6g} {entry['unit']}{note}")
    for problem in outcome.get("problems", [])[:10]:
        print(f"  problem: {problem}")
    print(f"  fingerprint: {json.dumps(record['fingerprint'])}")
    failed = int(outcome["failed"])
    print(json.dumps({
        "correct": failed == 0 and not outcome.get("problems"),
        "attempted": int(outcome["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
