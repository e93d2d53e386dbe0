"""Record the expected output digests of the default seed.

Run from the root of a checkout, only when the workloads or the program's
intended output change:

    python3 perfbench/record.py [--seconds 30]

For each workload it runs the default seed's commands in-process for
`--seconds` (longer than a benchmark run, so a default-seed run stays
within what is recorded), checks them as the benchmark does, and writes
the digest of every output to `expected.json`, keyed by the command's
argv and instance.  Before writing, every decider verdict at n <= 7 is
cross-checked once against the brute-force oracle (the isotypic projector
applied to the decomposable tensor), and every `symmetrize` result against
the Gamas decider; any mismatch stops the recording.

The oracle works on coordinates in a basis chosen among the vectors.  The
projector commutes with g (x) ... (x) g for every injective linear g, so
vanishing, and equality of two families mapped by the same g, are
unchanged, while the tensors get far fewer nonzeros.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from symten.decision import gamas_nonvanishing  # noqa: E402
from symten.group_algebra import isotypic_projector  # noqa: E402
from symten.linalg import VectorFamily  # noqa: E402
from symten.tensor import apply_element, decomposable, is_zero, tensor_equal  # noqa: E402


def coordinates(basis, vector) -> tuple[Fraction, ...]:
    """The coefficients c with sum c_i basis[i] = vector (vector in the span)."""
    k = len(basis)
    rows = [[b[r] for b in basis] + [vector[r]] for r in range(len(vector))]
    pivots = []
    for c in range(k):
        pivot = next(i for i in range(len(pivots), len(rows)) if rows[i][c] != 0)
        top = len(pivots)
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        pivots.append(c)
    if any(row[k] != 0 for row in rows[k:]):
        raise ValueError("vector outside the span")
    return tuple(rows[i][k] for i in range(k))


def in_basis(*families):
    """The families in coordinates of one basis picked greedily among them."""
    basis: list = []
    for vec in (v for fam in families for v in fam):
        if gen.rank(basis + [vec]) > len(basis):
            basis.append(vec)
    return [
        VectorFamily(len(basis), tuple(coordinates(basis, v) for v in fam))
        for fam in families
    ]


def parse(instance: dict, key: str):
    return [tuple(Fraction(x) for x in vec) for vec in instance[key]]


def oracle_tensor(lam, family):
    return apply_element(decomposable(family), isotypic_projector(lam))


def oracle_verdict(cmd: dict, output: dict) -> str | None:
    """A disagreement between the command's output summary and the oracle."""
    data = cmd["instance"]
    lam = tuple(data["lambda"])
    n = sum(lam)
    v = parse(data, "v")
    if cmd["argv"][0] == "symmetrize":
        decider, _ = gamas_nonvanishing(VectorFamily(data["dim"], tuple(v)), lam)
        if decider != bool(output["entries"]):
            return f"gamas says nonzero={decider}, symmetrize printed {output['entries']} entries"
        return None
    if n > 7:
        return None
    if cmd["argv"][0] == "gamas":
        (fv,) = in_basis(v)
        nonzero = not is_zero(oracle_tensor(lam, fv))
        return None if nonzero == output["nonzero"] else f"oracle says nonzero={nonzero}"
    u = parse(data, "u")
    fv, fu = in_basis(v, u)
    if fv.dim == gen.rank(v):  # u lies in the span of v: v's basis serves both
        equal = tensor_equal(oracle_tensor(lam, fv), oracle_tensor(lam, fu))
    else:  # first ask, in each family's own smaller basis, whether it vanishes
        zero_v = is_zero(oracle_tensor(lam, in_basis(v)[0]))
        zero_u = is_zero(oracle_tensor(lam, in_basis(u)[0]))
        if zero_v or zero_u:
            equal = zero_v and zero_u
        else:
            equal = tensor_equal(oracle_tensor(lam, fv), oracle_tensor(lam, fu))
    return None if equal == output["equal"] else f"oracle says equal={equal}"


def record(workload: str, seconds: float) -> dict[str, str]:
    commands = run.plan_commands(workload, run.DEFAULT_SEED, seconds, 10**9)
    for cmd in commands:
        cmd["key"] = run.command_key(cmd)
    workdir = ROOT / ".perfbench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    runnable = []
    for k, cmd in enumerate(commands):
        argv = list(cmd["argv"])
        if cmd["instance"] is not None:
            path = workdir / f"i{k:05d}.json"
            path.write_text(json.dumps(cmd["instance"]))
            argv = [str(path) if a == "{input}" else a for a in argv]
        runnable.append({"argv": argv, "expect": cmd["expect"], "round_start": "round_start" in cmd})
    _, ran, _ = worker.run_commands(runnable, seconds, len(runnable))
    shutil.rmtree(workdir)
    digests, bad = {}, []
    for entry in ran:
        cmd = commands[entry["command"]]
        found = entry["problems"]
        if not found and cmd["instance"] is not None:
            disagreement = oracle_verdict(cmd, entry["summary"])
            if disagreement:
                found.append(disagreement)
        if found:
            bad.append((entry["command"], cmd["argv"], found))
        digests[cmd["key"]] = entry["digest"]
    print(f"{workload}: {len(digests)} commands recorded, {len(bad)} bad", file=sys.stderr)
    for item in bad[:10]:
        print("  ", item, file=sys.stderr)
    if bad:
        raise SystemExit(f"{workload}: refusing to record outputs that fail their checks")
    return digests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append", choices=sorted(gen.SCHEDULES))
    args = parser.parse_args()
    path = run.HERE / "expected.json"
    stored = json.loads(path.read_text()) if path.exists() else {"digests": {}}
    for workload in args.workload or sorted(gen.SCHEDULES):
        stored["digests"][workload] = record(workload, args.seconds)
    stored["seed"] = run.DEFAULT_SEED
    path.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
