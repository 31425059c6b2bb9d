"""powdom benchmark runner.

    python3 perfbench/run.py --workload {suite,double-exp,session} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a powdom checkout; the package is imported from
``src``.  Inputs come from the seed, every job's output is checked, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced round with ``--trace 1``.
Run outputs (reports, generated definition files, traces) go to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import bench_workloads  # noqa: E402
from bench_metrics import END_TO_END, LAYERS, PER_LAYER, SECTIONS  # noqa: E402

CHILD = os.path.join(HERE, "bench_child.py")
PROBES = 7  # least set-up probes per run; setup_s is their median
MIN_ROUNDS = 2  # timed rounds per run, however short --seconds is
JOB_TIMEOUT = 170


class Tally:
    """Operations attempted and failed; ``correct`` turns false when a job
    other than a known fault gives a wrong answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported = set()

    def record(self, job, reason):
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        if not job.known_fault:
            self.correct = False
        if job.name not in self._reported:
            self._reported.add(job.name)
            kind = "known fault" if job.known_fault else "WRONG"
            print(f"{kind}: {job.name}: {reason}", file=sys.stderr)


def _cpu(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class ProcessRunner:
    """Each job in a fresh interpreter; CPU and RSS come from the children."""

    def run(self, job, trace=None):
        """(exit code, wall s, cpu s) of the job's command."""
        cmd = [sys.executable, CHILD, "run"]
        if trace is not None:
            cmd += ["--trace", *trace]
        cmd += ["--", *job.argv]
        cpu = _cpu(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            # stderr is a pipe, so run() returns as soon as the child exits
            # (see setup_probe)
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=JOB_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return -1, time.perf_counter() - start, 0.0
        wall = time.perf_counter() - start
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
        return proc.returncode, wall, _cpu(resource.RUSAGE_CHILDREN) - cpu


class SessionRunner:
    """Every job through ``powdom.cli.main`` in this interpreter."""

    def __init__(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import powdom.cli

        self.cli = powdom.cli

    def run(self, job, trace=None):
        sink = io.StringIO()
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(job.argv)
        except Exception:  # a crash is this job's failure; the session goes on
            traceback.print_exc()
            code = -1
        return code, time.perf_counter() - start, time.process_time() - cpu


def _read_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def run_round(workload, runner, tally, trace_dir=None, tracer=None):
    """One pass over the workload's jobs: (round wall s, per-job
    (wall s, cpu s) of the command alone, its checks left out)."""
    times = []
    start = time.perf_counter()
    for job in workload.jobs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(job.report_path)
        trace = None
        if trace_dir is not None:
            trace = (
                os.path.join(trace_dir, f"{job.name}.summary.json"),
                os.path.join(trace_dir, f"{job.name}.spans.jsonl"),
                job.name,
            )
        if tracer is not None:
            tracer.job = job.name
        code, wall, cpu = runner.run(job, trace)
        report = _read_report(job.report_path)
        try:
            reason = job.check(report, code)
            if job.after is not None and report is not None:
                job.after(report)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed output: {exc!r}"
        times.append((wall, cpu))
        tally.record(job, reason)
    return time.perf_counter() - start, times


def setup_probe(workload):
    start = time.perf_counter()
    # stderr is a pipe so that run() returns when the child closes it at
    # exit; without one, a wait with a timeout polls in steps of up to 50 ms
    proc = subprocess.run(
        [sys.executable, CHILD, "probe", *workload.probe_defs],
        cwd=ROOT, timeout=JOB_TIMEOUT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return wall


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, runner, seconds, tally, out):
    if workload.in_process:
        run_round(workload, runner, tally)  # warm-up: fills the caches, checked
    # a set-up probe before every timed round, so that their median spans
    # the run rather than one moment of it
    setups, rounds = [], []
    start = time.perf_counter()
    while True:
        setups.append(setup_probe(workload))
        rounds.append(run_round(workload, runner, tally)[1])
        elapsed = time.perf_counter() - start
        # stop when one more round of the mean length would overrun
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    while len(setups) < PROBES:
        setups.append(setup_probe(workload))
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if workload.in_process:
        rss_kib = max(rss_kib, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    values = {
        "setup_s": statistics.median(setups),
        # means over the rounds: the host's speed drifts within a run, and a
        # mean over the whole run follows that drift more smoothly than the
        # median or the fastest round
        "wall_s": statistics.mean(sum(wall for wall, _ in r) for r in rounds),
        "cpu_s": statistics.mean(sum(cpu for _, cpu in r) for r in rounds),
        # each job's median over the rounds first, so that a burst of host
        # load within a run cannot reorder the jobs around the middle one
        "job_p50_s": statistics.median(
            statistics.median(r[k][0] for r in rounds) for k in range(len(workload.jobs))
        ),
        "peak_rss_mib": rss_kib / 1024,
    }
    timings = [
        {job.name: list(t) for job, t in zip(workload.jobs, r)} for r in rounds
    ]
    with open(os.path.join(out, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setups, "rounds": timings}, fh, indent=1)
    print(
        f"{workload.name}: {len(rounds)} timed rounds of {len(workload.jobs)} jobs",
        file=sys.stderr,
    )
    return {name: _metric(values[name], unit) for name, unit, _ in END_TO_END}


def _merge(summaries):
    total = {"calls": {}, "entries": {}, "incl_s": {}, "self_s": {}, "values": {}}
    scalars = {"space_builds": 0, "space_hits": 0, "spans": 0, "dropped_spans": 0}
    for s in summaries:
        for part in total:
            for key, value in s[part].items():
                total[part][key] = total[part].get(key, 0) + value
        for key in scalars:
            scalars[key] += s[key]
    total.update(scalars)
    return total


def per_layer(workload, runner, tally, out):
    """An untraced round, then the same round traced; per-layer figures
    come from the traced round."""
    from bench_trace import Tracer

    trace_dir = os.path.join(out, "trace")
    os.makedirs(trace_dir)
    if workload.in_process:
        run_round(workload, runner, tally)  # warm-up, as in the timed runs
        plain = run_round(workload, runner, tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(workload, runner, tally, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(os.path.join(trace_dir, "session.spans.jsonl"))
        summaries = [tracer.summary()]
    else:
        plain = run_round(workload, runner, tally)
        traced = run_round(workload, runner, tally, trace_dir=trace_dir)
        summaries = []
        for job in workload.jobs:
            path = os.path.join(trace_dir, f"{job.name}.summary.json")
            if os.path.exists(path):  # a job that crashed is already counted as failed
                with open(path, encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
    agg = _merge(summaries)
    calls, entries, incl = agg["calls"], agg["entries"], agg["incl_s"]

    def count(*keys):
        return sum(calls.get(k, 0) for k in keys)

    def spent(*keys):
        return sum(incl.get(k, 0.0) for k in keys)

    lookups = agg["space_builds"] + agg["space_hits"]
    m = {
        "extnum.ops": sum(v for k, v in entries.items() if k.startswith("extnum.")),
        "sampling.draws": count("sampling.random_extnn"),
        "sampling.streams": count("sampling.task_rng"),
        "poset.builds": count("poset.FinPoset.__post_init__"),
        "poset.covers_calls": count("poset.FinPoset.covers"),
        "funcspace.enumerations": count("funcspace.enumerate_monotone"),
        "funcspace.maps_built": count("funcspace.MonoMap.__post_init__"),
        "algebra.lifts": count("algebra.lift_pointwise"),
        "algebra.lift_entries": agg["values"].get("algebra.lift_entries", 0),
        "algebra.build_s": spent("algebra.lift_pointwise"),
        "algebra.morphism_checks": count(
            "algebra.is_homomorphism", "algebra.is_relaxed_morphism"
        ),
        "algebra.interchange_checks": count(
            "algebra.commutes", "algebra.subcommutes", "algebra.supercommutes"
        ),
        "algebra.closure_s": spent("algebra.generated_subalgebra"),
        "monad.space_builds": agg["space_builds"],
        "monad.space_hits": agg["space_hits"],
        "monad.space_hit_ratio": agg["space_hits"] / lookups if lookups else 0.0,
        "monad.family_s": spent(
            "monad.FunctionalSpace.hom_indices",
            "monad.FunctionalSpace.relaxed_indices",
            "monad.FunctionalSpace.free_indices",
        ),
        "monad.kleisli_lifts": count("monad.kleisli_lift"),
        "monad.transformers_built": count(
            "monad.StateTransformer.__init__", "monad.PredicateTransformer.__init__"
        ),
        "powerdomain.predicates_built": count("powerdomain.Predicate.__post_init__"),
        "powerdomain.valuation_evals": count("powerdomain.SimpleValuation.__call__"),
        "powerdomain.law_checks": count(
            "powerdomain.check_sublinear",
            "powerdomain.check_superlinear",
            "powerdomain.domination_check",
            "powerdomain.non_integer_witness",
            "powerdomain.hoare_powerdomain",
            "powerdomain.smyth_powerdomain",
            "powerdomain.sobrification",
        ),
        "defs.load_s": spent("defs.load_workspace"),
        "defs.definitions": count("defs.Workspace.define"),
        "report.serialize_s": spent("report.Report.to_json"),
        "report.bytes": agg["values"].get("report.bytes", 0),
        "cli.commands": count("cli.main"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = agg["self_s"].get(layer, 0.0)
    for section in SECTIONS:
        m[f"verify.{section}_s"] = spent(f"verify.section.{section}")
    m["trace.overhead_s"] = traced[0] - plain[0]
    print(
        f"{workload.name}: traced round {traced[0]:.2f} s, untraced {plain[0]:.2f} s, "
        f"{agg['spans']} spans kept, {agg['dropped_spans']} over the cap",
        file=sys.stderr,
    )
    return {name: _metric(m[name], unit) for name, unit, _ in PER_LAYER}


def build_workload(name, out, seed, sha_store):
    if name == "suite":
        return bench_workloads.suite_workload(ROOT, out, seed, sha_store)
    if name == "double-exp":
        return bench_workloads.double_exp_workload(out, seed)
    return bench_workloads.session_workload(out, seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "double-exp", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "powdom", "cli.py")):
        print("error: src/powdom not found; run from the root of a powdom checkout",
              file=sys.stderr)
        return 2
    # the build step: byte-compile powdom into src/powdom/__pycache__, so
    # that every powdom process loads bytecode whether or not the
    # environment lets Python write it (PYTHONDONTWRITEBYTECODE)
    if not compileall.compile_dir(os.path.join(ROOT, "src", "powdom"), quiet=1):
        print("error: src/powdom does not compile", file=sys.stderr)
        return 2
    out = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    sha_path = os.path.join(OUT_ROOT, "suite-sha256.json")
    sha_store = bench_workloads.load_sha_store(sha_path)

    workload = build_workload(args.workload, out, args.seed, sha_store)
    runner = SessionRunner() if workload.in_process else ProcessRunner()
    tally = Tally()
    if args.trace:
        metrics = per_layer(workload, runner, tally, out)
    else:
        metrics = end_to_end(workload, runner, args.seconds, tally, out)
    bench_workloads.save_sha_store(sha_path, sha_store)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
