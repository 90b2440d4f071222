"""qbattery benchmark: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload fock-lossy --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test

The load is a closed loop with one client: each operation runs in its own
fresh child process, and only one runs at a time. The seed permutes the
order of operations within each pass. Every child runs under an
address-space cap and a wall-clock timeout; its peak RSS comes from the
rusage ``os.wait4`` returns for that child alone. Every output is checked
against references in ``checks.py``.

``--trace 0`` measures the set-up (fresh ``import qbattery.cli``), then
runs whole passes for about ``--seconds`` (at least one), and reports
the end-to-end metrics. ``--trace 1`` runs one untraced and one traced
pass; the traced children record spans around each package layer (see
``child.py``) and the run reports the per-layer metrics plus the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A detailed result
file with run metadata and every operation's outcome is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
from workloads import BAD_FLAG, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

MEM_CAP_BYTES = 3 << 30  # passes the 520 MB lossy zeta=2 op, stops 8.93 GiB asks at once
OP_TIMEOUT_S = 120.0  # 4x the slowest op that passes (lossy zeta=2, about 30 s)
RUN_BUDGET_S = 170.0  # every run ends well inside 180 s
SETUP_REPS = 7
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

PER_LAYER = {
    "import.self_s": "s/op",
    "import.scipy_modules": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "merit.calls": "count",
    "merit.self_s": "s",
    "pulses.calls": "count",
    "pulses.self_s": "s",
    "specfun.calls": "count",
    "specfun.self_s": "s",
    "dynamics.analytic_moments.calls": "count",
    "dynamics.analytic_moments.busy_s": "s",
    "dynamics.integrate_moments.busy_s": "s",
    "dynamics.integrate_moments.nfev": "count",
    "fock.choose_truncation.busy_s": "s",
    "fock.dim": "levels",
    "fock.evolve_rwa.busy_s": "s",
    "fock.evolve_rwa.nfev": "count",
    "fock.evolve_full.busy_s": "s",
    "fock.evolve_full.nfev": "count",
    "fock.evolve_lindblad.busy_s": "s",
    "fock.evolve_lindblad.nfev": "count",
    "fock.ergotropy.busy_s": "s",
    "fock.state_bytes": "B_computed",
    "fock.samples_bytes": "B_computed",
    "ode.calls": "count",
    "ode.nfev": "count",
    "ode.rhs_s": "s",
    "ode.solver_self_s": "s",
    "ode.s_per_rhs": "s",
    "fail.exit": "count",
    "fail.check": "count",
    "fail.timeout": "count",
    "fail.memcap": "count",
    "trace.overhead_s": "s",
}

# Spans whose ode.solve_ivp children are attributed to them for *.nfev.
_SOLVER_OWNERS = (
    "dynamics.integrate_moments",
    "fock.evolve_rwa",
    "fock.evolve_full",
    "fock.evolve_lindblad",
)


class HarnessError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


@dataclass
class Outcome:
    op: str
    pass_no: int
    wall_s: float
    rss_mb: float
    exit_code: int
    reason: str | None  # None, "exit", "check", "timeout" or "memcap"
    traced: bool = False
    detail: str = ""
    rows: int = 0


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


def _with(stem: Path, ext: str) -> Path:
    # not Path.with_suffix: op names such as "pure-zeta-0.5" contain dots
    return stem.parent / (stem.name + ext)


def spawn(argv: list[str], stem: Path, timeout: float) -> tuple[float, float, int, bool]:
    """Run one child to completion; return (wall s, peak RSS MB, exit code, timed out).

    stdout and stderr go to ``stem.out`` / ``stem.err``. The child is
    reaped with ``os.wait4`` so that its own rusage gives the peak RSS.
    """
    env = _child_env()
    with open(_with(stem, ".out"), "wb") as out, open(_with(stem, ".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=env, preexec_fn=_cap_memory
        )
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(max(1, int(timeout * 1000)))
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, timed_out


class Runner:
    """Runs operations under the limits and keeps the run inside its budget."""

    def __init__(self, workdir: Path, budget_s: float = RUN_BUDGET_S) -> None:
        self.workdir = workdir
        self.deadline = time.monotonic() + budget_s
        workdir.mkdir(parents=True, exist_ok=True)

    def timeout(self) -> float:
        return max(1.0, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))

    def import_time(self, tag: str) -> float:
        wall, _, code, timed_out = spawn(
            [sys.executable, "-c", "import qbattery.cli"], self.workdir / f"import-{tag}", self.timeout()
        )
        if code != 0 or timed_out:
            raise HarnessError("`import qbattery.cli` failed; see " + str(self.workdir / f"import-{tag}.err"))
        return wall

    def probe(self) -> dict:
        stem = self.workdir / "probe"
        _, _, code, _ = spawn([sys.executable, str(HERE / "child.py"), "probe"], stem, self.timeout())
        if code != 0:
            raise HarnessError("the package cannot be imported; see " + str(_with(stem, ".err")))
        return json.loads(_with(stem, ".out").read_text())

    def run_op(self, op, pass_no: int, traced: bool) -> tuple[Outcome, dict | None]:
        stem = self.workdir / f"{op.name}-{'traced' if traced else 'plain'}"
        trace_file = _with(stem, ".trace.json")
        trace_file.unlink(missing_ok=True)
        child = [sys.executable, str(HERE / "child.py"), op.kind]
        if traced:
            child += ["--trace", str(trace_file)]
        if op.kind == "api":
            argv = child + list(op.args)
        elif traced:
            argv = child + ["--", *op.args]
        else:
            argv = [sys.executable, "-m", "qbattery", *op.args]
        wall, rss, code, timed_out = spawn(argv, stem, self.timeout())
        outcome = Outcome(op.name, pass_no, wall, rss, code, None, traced)
        # a killed child may have left a partial trace file
        trace = json.loads(trace_file.read_text()) if traced and not timed_out and trace_file.exists() else None
        if timed_out:
            outcome.reason, outcome.detail = "timeout", f"killed after {wall:.1f} s"
        elif code != 0:
            err = _with(stem, ".err").read_text(errors="replace").strip()
            memcap = "Unable to allocate" in err or "MemoryError" in err
            outcome.reason = "memcap" if memcap else "exit"
            outcome.detail = err.splitlines()[-1] if err else f"exit code {code}"
        else:
            try:
                outcome.rows = _check_output(op, _with(stem, ".out").read_text(), trace)
            except (checks.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
                outcome.reason, outcome.detail = "check", f"{type(exc).__name__}: {exc}"
        if traced and not timed_out:
            _require_spans(op, outcome, trace)
        return outcome, trace

    def run_pass(self, ops, pass_no: int, seed: int, traced: bool):
        order = list(ops)
        random.Random(f"{seed}:{pass_no}").shuffle(order)
        t0 = time.perf_counter()
        results = [self.run_op(op, pass_no, traced) for op in order]
        return time.perf_counter() - t0, results


def _check_output(op, text: str, trace: dict | None) -> int:
    """Check one operation's output; return the number of table rows."""
    if op.kind == "api":
        op.check(json.loads(text.strip().splitlines()[-1]))
        rows = 0
    else:
        columns, table = checks.parse_table(text, op.fmt)
        op.check(columns, table)
        rows = len(table)
    # the CLI does not print the odd-sector mass; the traced run reads it
    # off the trajectories of the lossless engines (loss populates odd levels)
    for span in (trace or {}).get("spans", ()):
        if span[1] in ("fock.evolve_rwa", "fock.evolve_full") and "odd_mass" in (span[5] or {}):
            checks.check_odd_mass(span[5]["odd_mass"])
    return rows


def _require_spans(op, outcome: Outcome, trace: dict | None) -> None:
    """A traced operation must record every span its workload relies on."""
    if outcome.reason is not None and trace is None:
        return  # died before it could write spans, e.g. on a signal
    root = "cli.main" if op.kind == "cli" else f"api.{op.args[0]}"
    wanted = op.expect if outcome.reason is None else (root,)
    names = {span[1] for span in (trace or {}).get("spans", ())}
    for want in wanted:
        hit = any(n.startswith(want) for n in names) if want.endswith(".") else want in names
        if not hit:
            raise HarnessError(f"traced op {op.name} recorded no {want!r} span; refusing to report zeros")


# --- metrics --------------------------------------------------------------


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile, beyond).

    With too few samples for that, the maximum (percentile 100, none beyond).
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(setup: list[float], pass_walls: list[float], outcomes: list[Outcome]) -> tuple[dict, dict]:
    walls = [o.wall_s for o in outcomes]
    tail, pct, beyond = _tail(walls)
    failed = sum(o.reason is not None for o in outcomes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_walls),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "ok_ratio": (len(outcomes) - failed) / len(outcomes),
    }
    # Per-op latency is reported but not gated: over ten runs of the same
    # code the median moved by up to 21% (a fock pass has 4-6 unlike ops)
    # and the tail by up to 19%, too close to the largest allowed bound.
    extra = {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": {"value": tail, "percentile": pct, "samples_beyond": beyond, "samples": len(walls)},
        "failed_ratio": failed / len(outcomes),
        "setup_samples": setup,
        "pass_walls": pass_walls,
    }
    return values, extra


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (child spans may overlap across threads)."""
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def per_layer(results: list[tuple[Outcome, dict | None]]) -> dict:
    m: dict[str, float] = {name: 0 for name in PER_LAYER}
    imports = []
    solve_total = 0.0
    rhs_calls = 0
    for outcome, trace in results:
        m["cli.rows"] += outcome.rows
        if outcome.reason is not None:
            m[f"fail.{outcome.reason}"] += 1
        if trace is None:
            continue
        if "import_s" in trace:
            imports.append(trace["import_s"])
            m["import.scipy_modules"] = max(m["import.scipy_modules"], trace["scipy_modules"])
        spans = trace["spans"]
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for sid, name, t0, t1, parent, attrs in spans:
            children[parent].append((t0, t1))
        for sid, name, t0, t1, parent, attrs in spans:
            dur = t1 - t0
            own = dur - _covered(children[sid])
            layer = name.split(".")[0]
            attrs = attrs or {}
            if layer in ("merit", "pulses", "specfun"):
                m[f"{layer}.calls"] += 1
                m[f"{layer}.self_s"] += own
            elif name == "cli.main":
                m["cli.main_s"] += dur
                m["cli.self_s"] += own
            elif name == "dynamics.analytic_moments":
                m["dynamics.analytic_moments.calls"] += 1
            elif name == "ode.solve_ivp":
                m["ode.calls"] += 1
                solve_total += dur
                nfev = attrs.get("nfev", 0)
                m["ode.nfev"] += nfev
                owner = by_id.get(parent)
                while owner is not None and owner[1] not in _SOLVER_OWNERS:
                    owner = by_id.get(owner[4])
                if owner is not None:
                    m[f"{owner[1]}.nfev"] += nfev
            elif name == "ode.rhs":
                m["ode.rhs_s"] += dur
                rhs_calls += 1
            # the pure path's ergotropy includes building the density matrix
            busy = "fock.ergotropy.busy_s" if name == "fock.FockVector.to_density" else f"{name}.busy_s"
            if busy in m:
                m[busy] += dur
            if name.startswith("fock.evolve_") and "dim" in attrs:
                dim = attrs["dim"]
                m["fock.dim"] += dim
                if attrs["completed"]:  # a failed 8.93 GiB ask held nothing
                    state = 16 * dim * (dim if name == "fock.evolve_lindblad" else 1)
                    m["fock.state_bytes"] = max(m["fock.state_bytes"], state)
                    m["fock.samples_bytes"] = max(m["fock.samples_bytes"], state * attrs["samples"])
    m["import.self_s"] = statistics.median(imports) if imports else 0.0
    m["ode.solver_self_s"] = solve_total - m["ode.rhs_s"]
    m["ode.s_per_rhs"] = m["ode.rhs_s"] / rhs_calls if rhs_calls else 0.0
    return m


# --- runs -----------------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() or "unknown"


def run_workload(name: str, ops, seed: int, seconds: float, trace: bool, setup_reps: int = SETUP_REPS) -> dict:
    runner = Runner(RESULTS / "work" / name)
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_cap_bytes": MEM_CAP_BYTES,
        "op_timeout_s": OP_TIMEOUT_S,
        "load": "closed loop, one client, one fresh process per op",
        "ops": [{"name": op.name, "kind": op.kind, "args": list(op.args)} for op in ops],
        **runner.probe(),  # also the warm-up import: byte-compiles the package
    }
    if trace:
        plain_wall, plain = runner.run_pass(ops, 0, seed, traced=False)
        traced_wall, results = runner.run_pass(ops, 0, seed, traced=True)
        metrics = per_layer(results)
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        outcomes = [o for o, _ in plain] + [o for o, _ in results]
        units = PER_LAYER
        extra = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    else:
        setup = [runner.import_time(str(i)) for i in range(setup_reps)]
        start = time.monotonic()
        pass_walls, outcomes = [], []
        # another pass only if it ends nearer to `seconds` than stopping now
        while not pass_walls or time.monotonic() - start + pass_walls[-1] / 2 < seconds:
            wall, results = runner.run_pass(ops, len(pass_walls), seed, traced=False)
            pass_walls.append(wall)
            outcomes += [o for o, _ in results]
        metrics, extra = end_to_end(setup, pass_walls, outcomes)
        units = END_TO_END
    failed = sum(o.reason is not None for o in outcomes)
    return {
        "meta": meta,
        "correct": not any(o.reason == "check" for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "extra": extra,
        "outcomes": [asdict(o) for o in outcomes],
    }


def _summary(result: dict) -> str:
    lines = [f"workload {result['meta']['workload']}  seed {result['meta']['seed']}  trace {result['meta']['trace']}"]
    for o in result["outcomes"]:
        status = "ok" if o["reason"] is None else f"FAILED ({o['reason']}: {o['detail']})"
        mode = "traced" if o["traced"] else "plain"
        lines.append(f"  pass {o['pass_no']} {mode:<6} {o['op']:<20} {o['wall_s']:8.3f} s {o['rss_mb']:8.1f} MB  {status}")
    for k, v in result["metrics"].items():
        lines.append(f"  {k} = {v['value']} {v['unit']}")
    for k, v in result["extra"].items():
        lines.append(f"  ({k} = {v})")
    return "\n".join(lines)


def self_test() -> int:
    """A tiny run of each workload: one cheap op plus one that fails on purpose.

    Checks that every metric named in BENCHMARK.json appears with its
    unit, and that the failing op lands in ok_ratio and fail.exit.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cheap = {"figures": "charge-time", "fock-pure": "pure-zeta-0.1", "fock-lossy": "lossy-zeta-0.5"}
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        before = len(problems)
        ops = [op for op in WORKLOADS[name] if op.name == cheap[name]] + [BAD_FLAG]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, ops, seed=0, seconds=0, trace=trace, setup_reps=2)
            got = result["metrics"]
            for metric in spec[key]:
                if got.get(metric["name"], {}).get("unit") != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} missing or not in {metric['unit']}")
            if set(got) != {m["name"] for m in spec[key]}:
                problems.append(f"{name}: metrics {sorted(set(got))} differ from BENCHMARK.json {key}")
            for o in result["outcomes"]:
                if (o["op"] == BAD_FLAG.name) != (o["reason"] is not None):
                    problems.append(f"{name}: {o['op']} ended with {o['reason']}: {o['detail']}")
            if trace and got["fail.exit"]["value"] != 1:
                problems.append(f"{name}: the bad flag did not land in fail.exit")
            if not trace and got["ok_ratio"]["value"] != 0.5:
                problems.append(f"{name}: ok_ratio {got['ok_ratio']['value']} != 0.5 with one op of two failing")
        print(f"self-test {name}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "qbattery" / "cli.py").is_file():
        print(f"no qbattery sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(_summary(result))
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
