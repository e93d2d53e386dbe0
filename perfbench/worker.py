"""One benchmark worker: a closed loop of CLI commands in a fresh process.

Usage: python3 perfbench/worker.py PLAN.json RESULT.json, from the root of
a checkout with `src` on PYTHONPATH.  `run.py` writes the plan and reads
the result; nothing here is timed except `symten.cli.main(argv)` and, between
commands, the reference loop and the set-up probes.

The worker calls `main` in-process, one command after another, until
`seconds` have passed and a round of the schedule is complete (or
`max_commands` ran), cycling through the plan if it runs out.  With
tracing on, it first runs untraced for half the time, then wraps the
symten layers and runs exactly the same commands again, so the two passes
give the tracing overhead and must print the same bytes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import symten
from symten import cli
from tracing import LAYERS, Tracer


# The reference loop: a fixed piece of pure-Python Fraction, tuple and dict
# work, about 2.4 ms on one core of a 2-core cloud VM with Python 3.11.
REFERENCE_TERMS = 400
# Before each command, time the reference loop until it has taken this
# share of the loop's wall time, so that its samples follow the host's
# speed as closely before a long command as among short ones.
REFERENCE_SHARE = 0.05


# A set-up probe launches a fresh interpreter (with `src` on PYTHONPATH, as
# for this worker) and times it to `import symten.cli` returning.  Probes run
# before and after the loop and once every SETUP_EVERY_S in it, so that
# their median follows the host's speed over the whole run.
SETUP_PROBE = "import time, symten.cli; print(time.monotonic())"
SETUP_AROUND = 3
SETUP_EVERY_S = 2.0


def setup_probe() -> float:
    """Seconds from launching a fresh interpreter to `import symten.cli`
    returning in it."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], capture_output=True, text=True, timeout=60, check=True
    )
    return float(out.stdout) - start


def reference_loop() -> float:
    """Time one run of the reference loop: the same work on every call, so
    its time measures how fast this core runs Python right now."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(REFERENCE_TERMS):
        q = Fraction(i % 7 - 3, i % 5 + 1)
        acc += q * q
        seen[i % 11, i % 13] = acc.denominator
    return time.perf_counter() - start


def run_commands(
    commands, seconds: float, limit: int, tracer=None, setup: list | None = None
) -> tuple[float, list[dict], list]:
    """Run commands in order until time is up at the end of a round, or
    `limit` commands ran.  Each output is checked and digested as soon as
    its command returns (outside the command's time) and then dropped, so
    the benchmark holds no outputs in the worker's memory.  The reference
    loop runs between commands for REFERENCE_SHARE of the time, and a
    set-up probe every SETUP_EVERY_S if a `setup` list is given.  Returns
    the loop's wall time, one entry per command run, and the reference
    samples as [time from the loop's start, duration]."""
    ran: list[dict] = []
    reference: list[list[float]] = []
    begin = time.perf_counter()
    reference_total = 0.0
    last_probe = begin
    while len(ran) < limit:
        index = len(ran) % len(commands)
        command = commands[index]
        if ran and command["round_start"] and time.perf_counter() - begin >= seconds:
            break
        if setup is not None and time.perf_counter() - last_probe >= SETUP_EVERY_S:
            setup.append(setup_probe())
            last_probe = time.perf_counter()
        while reference_total <= REFERENCE_SHARE * (time.perf_counter() - begin):
            at = time.perf_counter() - begin
            reference.append([at, reference_loop()])
            reference_total += reference[-1][1]
        if tracer is not None:
            tracer.start_command(len(ran))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(command["argv"])
            error = err.getvalue()[-500:]
        except SystemExit as exc:
            code, error = exc.code, err.getvalue()[-500:]
        except Exception:  # a crash is counted as a failed command, not fatal
            code, error = None, traceback.format_exc(limit=3)
        seconds_taken = time.perf_counter() - start
        output = out.getvalue()
        summary, found = check(command, code, output, error)
        ran.append({
            "command": index,
            "start": start - begin,
            "seconds": seconds_taken,
            "digest": hashlib.sha256(output.encode()).hexdigest()[:16],
            "summary": summary,
            "problems": found,
        })
    reference.append([time.perf_counter() - begin, reference_loop()])
    return time.perf_counter() - begin, ran, reference


def check(command: dict, code, output: str, error: str) -> tuple[dict, list[str]]:
    """The output's verdict fields, and what is wrong with them judged by
    how the instance was built."""
    if code != 0:
        return {}, [f"exit code {code}: {error}"]
    try:
        obj = json.loads(output)
    except ValueError:
        return {}, ["output is not JSON"]
    summary = {k: obj[k] for k in ("nonzero", "equal", "mode", "ok") if k in obj}
    if "entries" in obj:
        summary["entries"] = len(obj["entries"])
    found = []
    for key, want in command["expect"].items():
        got = summary.get(key)
        ok = bool(got) if want == "nonempty" else got == want
        if not ok:
            found.append(f"{key}: expected {want!r}, got {got!r}")
    return summary, found


def layer_metrics(tracer: Tracer, count: int) -> dict[str, float]:
    """Per-command layer metrics of the traced pass."""
    per = 1.0 / count

    def calls(name):
        return tracer.stat(name)[0] * per

    def seconds(name):
        return tracer.stat(name)[1] * per

    def counted(name):
        return tracer.counts[name] * per

    rank_calls = tracer.stat("linalg.rank")[0]
    mult_adds = tracer.counts["tensor.mult_adds"]
    metrics = {f"{layer}.self_s": tracer.layer_self(layer) * per for layer in LAYERS}
    metrics.update(
        {
            "cli.load_instance_s": seconds("cli.load_instance"),
            "decision.decide_equality_s": seconds("decision.decide_equality"),
            "decision.gamas_nonvanishing_s": seconds("decision.gamas_nonvanishing"),
            "decision.gamas_standard_s": seconds("decision.gamas_standard"),
            "decision.columns_independent_calls": calls("decision.columns_independent"),
            "linalg.rank_calls": rank_calls * per,
            "linalg.rank_s": seconds("linalg.rank"),
            "linalg.rank_repeat_frac": (
                tracer.counts["linalg.rank_repeats"] / rank_calls if rank_calls else 0.0
            ),
            "linalg.span_equal_calls": calls("linalg.span_equal"),
            "linalg.transition_scalar_calls": calls("linalg.transition_scalar"),
            "linalg.transition_scalar_s": seconds("linalg.transition_scalar"),
            "linalg.is_independent_calls": calls("linalg.is_independent"),
            "combinatorics.column_systems_enumerated": counted("combinatorics.column_systems_enumerated"),
            "combinatorics.standard_tableaux_enumerated": counted("combinatorics.standard_tableaux_enumerated"),
            "combinatorics.cycle_type_calls": calls("combinatorics.cycle_type"),
            "characters.mn_character_calls": calls("characters.mn_character"),
            "group_algebra.isotypic_projector_calls": calls("group_algebra.isotypic_projector"),
            "group_algebra.isotypic_projector_s": seconds("group_algebra.isotypic_projector"),
            "group_algebra.projector_terms": counted("group_algebra.projector_terms"),
            "tensor.apply_element_calls": calls("tensor.apply_element"),
            "tensor.apply_element_s": seconds("tensor.apply_element"),
            "tensor.mult_adds": mult_adds * per,
            "tensor.ns_per_mult_add": (
                tracer.stat("tensor.apply_element")[1] / mult_adds * 1e9 if mult_adds else 0.0
            ),
            "tensor.out_nnz": counted("tensor.out_nnz"),
            "tensor.to_json_obj_s": seconds("tensor.to_json_obj"),
            "tensor.act_calls": calls("tensor.act"),
        }
    )
    return metrics


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path) as handle:
        plan = json.load(handle)
    commands = plan["commands"]
    seconds, limit = plan["seconds"], plan["max_commands"]
    traced = plan["trace"]
    setup = [] if traced else [setup_probe() for _ in range(SETUP_AROUND)]
    wall, untraced, reference = run_commands(
        commands, seconds / 2 if traced else seconds, limit, setup=None if traced else setup
    )
    if not traced:
        setup += [setup_probe() for _ in range(SETUP_AROUND)]
    result = {
        "wall": wall,
        "setup": setup,
        "reference": reference,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "untraced": untraced,
    }
    if traced:
        tracer = Tracer()
        tracer.install(symten)
        _, result["traced"], result["traced_reference"] = run_commands(commands, float("inf"), len(untraced), tracer)
        result["layers"] = layer_metrics(tracer, len(untraced))
        result["absent"] = sorted(tracer.absent)
        result["spans"] = len(tracer.spans)
        result["dropped_spans"] = tracer.dropped_spans
        tracer.dump(plan["spans_path"])
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
