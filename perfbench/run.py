"""The symten benchmark: whole CLI commands, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20    # each in turn

Workloads (see `gen.py` for how each instance is built):

- oracle: `symmetrize` on every shape of 6, 7, 8; the brute-force
  projector and `tensor.apply_element`.
- equality: `equal` at n = 6, 7, 8; `linalg` and `decision`.
- vanishing: `gamas` at n = 7, 8; column systems and standard tableaux.
- selfcheck: `selfcheck --n 4 --trials 3` over a pool of 25 selfcheck
  seeds; `tensor.act`, `sampling` and the small-n deciders.

One client in a closed loop: a fresh worker process (`worker.py`) calls
`symten.cli.main(argv)` in-process, one command after another, for
`--seconds`.  The program gets only the generated instance files and argv.
Every command must exit 0 and pass the checks its construction implies; a
command whose input was recorded for the default seed must also print
exactly the recorded bytes (`expected.json`, written by `record.py`).

Command times are reported in units of a reference loop (`ref`): a fixed
piece of pure-Python Fraction arithmetic in `worker.py`, timed between
commands for 5% of the run.  Each command's wall time is divided by the
mean reference time within half a second of it.  The host this benchmark
was built on runs Python up to twice as fast in one second as in the
next; the ratio cancels most of that, and a change to the program still
moves it.  The wall times themselves are in the record line.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
commands untraced and then traced, and prints the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics; the line before it is the run record (with `--workload all`,
each workload prints these two lines in turn).  Exit code 2 means the
checkout has no program to run.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
# Metric names and units: BENCHMARK.json sits next to this directory.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DEFAULT_SEED = 1
WORKER_TIMEOUT_S = 150
# A command's time is divided by the mean reference-loop time around it.
REFERENCE_WINDOW_S = 0.5
REFERENCE_MIN_SAMPLES = 3
# Upper estimates of blocks run per second, so that the plan is long enough.
BLOCKS_PER_SECOND = {"oracle": 1.5, "equality": 3, "vanishing": 12, "selfcheck": 3}


def command_key(cmd: dict) -> str:
    """Identifies a command by its argv and instance, not by file names."""
    text = json.dumps([cmd["argv"], cmd["instance"]], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def plan_commands(workload: str, seed: int, seconds: float, max_commands: int) -> list[dict]:
    """The seed's first rounds: more than a run of `seconds` reaches."""
    round_blocks = gen.SCHEDULES[workload][2]
    rounds = math.ceil((seconds * BLOCKS_PER_SECOND[workload] + 1) / round_blocks)
    commands: list[dict] = []
    for b in range(rounds * round_blocks):
        if len(commands) >= max_commands:
            break
        block = gen.block(workload, seed, b)
        if gen.round_start(workload, b):
            block[0]["round_start"] = True
        commands.extend(block)
    return commands[:max_commands]


def write_inputs(commands: list[dict], workdir: Path, root: Path) -> None:
    """Write each instance file and put its path into the command's argv."""
    for k, cmd in enumerate(commands):
        cmd["key"] = command_key(cmd)
        if cmd["instance"] is not None:
            path = workdir / f"i{k:05d}.json"
            path.write_text(json.dumps(cmd["instance"]))
            rel = str(path.relative_to(root))
            cmd["argv"] = [rel if a == "{input}" else a for a in cmd["argv"]]


def env_with_src(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def high_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest percentile, at most 90, with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(0, min(90, (100 * (n - 10)) // n)) if n > 10 else 0
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1] if pct else ordered[-1]


def normalized_times(executed: list[dict], reference: list[list[float]]) -> list[float]:
    """Each command's time in units of the reference loop: over the mean of
    the reference samples taken within REFERENCE_WINDOW_S of it (at least
    the nearest REFERENCE_MIN_SAMPLES).  The mean, not the median: the
    host's speed flips between levels within a second, and a command's
    time is the mean over the levels it ran at."""
    when = [t for t, _ in reference]
    out = []
    for entry in executed:
        start, end = entry["start"], entry["start"] + entry["seconds"]
        lo = bisect.bisect_left(when, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(when, end + REFERENCE_WINDOW_S)
        while hi - lo < REFERENCE_MIN_SAMPLES and (lo > 0 or hi < len(when)):
            if hi == len(when) or (lo > 0 and start - when[lo - 1] < when[hi] - end):
                lo -= 1
            else:
                hi += 1
        out.append(entry["seconds"] / statistics.fmean(d for _, d in reference[lo:hi]))
    return out


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(commands, executed, expected: dict) -> int:
    """Add a problem to every command whose recorded output bytes differ."""
    checked = 0
    for entry in executed:
        want = expected.get(commands[entry["command"]]["key"])
        if want is not None:
            checked += 1
            if entry["digest"] != want:
                entry["problems"].append(f"output digest {entry['digest']} != recorded {want}")
    return checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SCHEDULES) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-commands", type=int, default=10**9,
                        help="stop after this many commands (small smoke runs)")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="recorded output digests of the default seed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "symten" / "cli.py").is_file():
        print(f"error: no src/symten/cli.py under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    for workload in sorted(gen.SCHEDULES) if args.workload == "all" else [args.workload]:
        run_workload(workload, args, root)
    return 0


def run_workload(workload: str, args, root: Path) -> None:
    """Run one workload and print its record line and its result line."""
    with open(args.expected) as handle:
        expected = json.load(handle)["digests"].get(workload, {})

    workdir = root / ".perfbench" / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        commands = plan_commands(workload, args.seed, args.seconds, args.max_commands)
        write_inputs(commands, workdir, root)
        env = env_with_src(root)
        plan = {
            "commands": [
                {"argv": c["argv"], "expect": c["expect"], "round_start": "round_start" in c}
                for c in commands
            ],
            "seconds": args.seconds,
            "max_commands": args.max_commands,
            "trace": args.trace,
            "spans_path": str(root / ".perfbench" / f"spans-{workload}.tsv"),
        }
        (workdir / "plan.json").write_text(json.dumps(plan))
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(workdir / "plan.json"),
             str(workdir / "result.json")],
            cwd=root, env=env, timeout=WORKER_TIMEOUT_S, check=True,
        )
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    executed = result["untraced"]
    checked = check_digests(commands, executed, expected)
    mismatches = 0
    if args.trace:
        traced = result["traced"]
        check_digests(commands, traced, expected)
        for before, after in zip(executed, traced):
            if before["digest"] != after["digest"]:
                after["problems"].append("traced output differs from untraced output")
                mismatches += 1
        executed = executed + traced
    failures = [e for e in executed if e["problems"]]
    attempted = len(executed)

    times = [e["seconds"] for e in result["untraced"]]
    pct, high = high_percentile(times)
    refs = normalized_times(result["untraced"], result["reference"])
    _, high_ref = high_percentile(refs)
    if args.trace:
        traced_refs = normalized_times(result["traced"], result["traced_reference"])
        values = dict(result["layers"])
        values["trace.overhead_frac"] = sum(traced_refs) / sum(refs) - 1
    else:
        values = {
            "setup_s": statistics.median(result["setup"]),
            "cmd_p50_ref": statistics.median(refs),
            "cmd_p90_ref": high_ref,
            "cmds_per_kref": 1000 * len(refs) / sum(refs),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "ok_frac": (attempted - len(failures)) / attempted,
        }
    specs = SPEC["per_layer" if args.trace else "end_to_end"]
    record = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "run_seconds": args.seconds,
        "measured_wall_s": result["wall"],
        "cmd_p50_samples": len(times),
        "cmd_p90_percentile": pct,
        "cmd_p90_samples": len(times),
        "cmd_p50_s": statistics.median(times),
        "cmd_p90_s": high,
        "cmds_per_s": len(times) / sum(times),
        "reference_samples": len(result["reference"]),
        "reference_median_s": statistics.median(d for _, d in result["reference"]),
        "setup_samples": len(result["setup"]),
        "plan_commands": len(commands),
        "digest_checked": checked,
        "failed_frac": len(failures) / attempted,
        "failed_frac_base": attempted,
    }
    if args.trace:
        record.update(
            traced_commands=len(result["traced"]),
            traced_mismatches=mismatches,
            spans=result["spans"],
            dropped_spans=result["dropped_spans"],
            absent_functions=result["absent"],
            per_command_note="layer times and counts are per traced command; "
            "tensor.mult_adds is computed from apply_element's arguments",
        )
    for failure in failures[:5]:
        print(f"failed command {failure['command']}: {commands[failure['command']]['argv']}: "
              f"{'; '.join(failure['problems'])}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }))


if __name__ == "__main__":
    sys.exit(main())
