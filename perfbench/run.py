"""diffpi benchmark: whole CLI jobs timed end to end, layers traced.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Every job is a real CLI invocation, run in-process through
diffpi.cli.main([..., "--format", "json", "--out", path]). Jobs run one
after another from this single process (a closed loop with one client,
no threads). One round is one pass over the workload's jobs; rounds
repeat until --seconds is used up.

The host's speed shifts between regimes up to 1.7x apart (a shared
machine; see README.md), so every time is scaled to a fixed reference
speed by hostspeed.Clock, and each job's time is its median over the
run's rounds.

With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 untraced and traced rounds alternate
and it carries the per-layer metrics instead. See README.md.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from hostspeed import Clock  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402

SETUP_SAMPLES = 9

END_TO_END = (
    ("wall_s", "s"), ("job_p50_s", "s"), ("job_max_s", "s"),
    ("setup_s", "s"), ("peak_rss_mib", "MiB"),
)


def _import_diffpi():
    """diffpi from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "diffpi" / "__init__.py").is_file():
        sys.exit(f"error: no diffpi package under {src}")
    sys.path.insert(0, str(src))
    import diffpi
    if Path(diffpi.__file__).resolve().parent != (src / "diffpi").resolve():
        sys.exit(f"error: diffpi imported from {diffpi.__file__}, not {src}")
    return diffpi


# ---------------------------------------------------------------------------
# one round


def _digest(report) -> str:
    # results plus warnings only: the envelope echoes the input path
    blob = json.dumps({"results": report["results"],
                       "warnings": report["warnings"]}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def inputs_digest(inputs: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(inputs.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_job(cli, job, out: Path) -> int:
    try:
        return cli.main(job.argv + ["--format", "json", "--out", str(out)])
    except Exception as e:  # a crash is a failed job, not a failed run
        print(f"job {job.name}: {type(e).__name__}: {e}", file=sys.stderr)
        return -1


def run_round(cli, jobs, outdir: Path, clock: Clock, tracer=None):
    """Run every job once. Returns the per-job scaled wall times, their
    raw sum and the per-job (mismatches, digest) from the oracle."""
    slots, checked = [], []
    for job in jobs:
        out = outdir / f"{job.name}.json"
        if out.exists():
            out.unlink()
        if tracer is not None:
            tracer.job = job.name
        t = time.perf_counter()
        code = run_job(cli, job, out)
        slots.append(clock.record(time.perf_counter() - t))
        report = None
        if out.exists():
            report = json.loads(out.read_text(encoding="utf-8"))
        try:
            bad = job.check(code, report)
        except (KeyError, TypeError) as e:
            bad = [f"malformed report: {type(e).__name__}: {e}"]
        checked.append((bad, _digest(report) if report else None))
    clock.flush()
    return [s[1] for s in slots], sum(s[0] for s in slots), checked


# ---------------------------------------------------------------------------
# set-up


def setup_inputs(diffpi, args, workdir: Path, wrong=False):
    inputs = workdir / "inputs"
    if inputs.exists():
        shutil.rmtree(inputs)
    return workloads.build(args.workload, diffpi, args.seed, inputs, ROOT,
                           wrong=wrong), inputs


def measure_setup(args, workdir: Path, clock: Clock) -> list:
    """Launch-to-first-job time of fresh workload processes: interpreter,
    import diffpi, generating and writing the inputs."""
    samples = []
    for t in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", str(workdir / f"setup{t}")]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(clock.record(time.perf_counter() - t0))
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            sys.exit(f"error: set-up process failed ({code})")
    clock.flush()
    return [s[1] for s in samples]


# ---------------------------------------------------------------------------
# the run


def run_workload(args) -> dict:
    diffpi = _import_diffpi()
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(args, diffpi, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, diffpi, workdir: Path) -> dict:
    cli = importlib.import_module("diffpi.cli")
    clock = Clock()
    setup = measure_setup(args, workdir, clock)
    jobs, inputs = setup_inputs(diffpi, args, workdir, wrong=args.wrong_oracle)
    print(f"inputs sha256 {inputs_digest(inputs)}")
    outdir = workdir / "out"
    outdir.mkdir()
    tracer = Tracer() if args.trace else None

    untraced, traced, layer_rounds, raws = [], [], [], []
    attempted = failed = 0
    digests = {}
    start = time.perf_counter()
    while True:
        # with --trace 1, untraced and traced rounds alternate
        use_trace = tracer is not None and len(untraced) > len(traced)
        if use_trace:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            times, raw, checked = run_round(cli, jobs, outdir, clock,
                                            tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
        round_s = time.perf_counter() - t0
        if use_trace:
            traced.append(times)
            layers = tracer.aggregate()
            layers["trace.self_coverage"] = \
                layers.pop("trace.self_total_s") / raw
            layer_rounds.append(_scaled(layers, sum(times) / raw))
        else:
            untraced.append(times)
            raws.append(raw)
        for job, (bad, digest) in zip(jobs, checked):
            attempted += 1
            if digests.setdefault(job.name, digest) != digest:
                bad = bad + ["report differs from the first round's"]
            if bad:
                failed += 1
                print(f"FAIL {job.name}: {'; '.join(bad)}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        ready = tracer is None or (traced and untraced)
        if ready and elapsed + round_s > args.seconds:
            break
    for name, digest in digests.items():
        print(f"job {name} sha256 {digest}")

    typical = per_job(untraced)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "rounds": len(untraced) + len(traced),
              "raw_round_s": statistics.median(raws)}
    if tracer is None:
        result["metrics"] = {
            "wall_s": sum(typical),
            "job_p50_s": statistics.median(typical),
            "job_max_s": max(typical),
            "setup_s": statistics.median(setup),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return result
    layers = _median_layers(layer_rounds)
    layers["trace.overhead_ratio"] = sum(per_job(traced)) / sum(typical)
    result["metrics"] = layers
    result["spans_file"] = str(_write_spans(tracer, args))
    return result


def per_job(rounds: list) -> list:
    """Each job's median time over the rounds."""
    return [statistics.median(ts) for ts in zip(*rounds)]


def _scaled(layers: dict, scale: float) -> dict:
    """A traced round's seconds at the reference speed."""
    return {k: v * scale if k.endswith("_s") else v
            for k, v in layers.items()}


def _median_layers(rounds: list) -> dict:
    """Median of each timed metric over traced rounds; every exact
    counter must repeat exactly from round to round."""
    out = {}
    for key in rounds[0]:
        vals = [r[key] for r in rounds]
        if key.endswith(("_s", "_ratio", "_coverage")):
            out[key] = statistics.median(vals)
            continue
        if len(set(vals)) != 1:
            sys.exit(f"error: exact counter {key} differs across rounds: "
                     f"{vals}")
        out[key] = vals[0]
    return out


def _write_spans(tracer, args) -> Path:
    path = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(path)
    return path.relative_to(ROOT)


# ---------------------------------------------------------------------------
# entry point


def _units(trace: bool) -> dict:
    if trace:
        return {name: unit for name, unit, _ in per_layer_metrics()}
    return dict(END_TO_END)


def report(args, result: dict) -> None:
    units = _units(args.trace)
    ratio = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['rounds']} rounds, {result['attempted']} jobs, "
          f"failed_ratio {ratio:.4g}, "
          f"median raw round {result['raw_round_s']:.3f} s")
    if args.trace:
        print(f"spans written to {result['spans_file']}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}}))


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.wrong_oracle:
            cmd.append("--wrong-oracle")
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--wrong-oracle", action="store_true",
                   help="shift one expected value per job; every job "
                        "must then fail (oracle self-check)")
    p.add_argument("--setup-only", metavar="DIR", type=Path,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_only:
        diffpi = _import_diffpi()
        setup_inputs(diffpi, args, args.setup_only)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    report(args, run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
