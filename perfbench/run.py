#!/usr/bin/env python3
"""hsprg benchmark: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload mc_cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The line before the
result is a JSON record with the input properties, the environment, the
per-operation medians, error_rate and ops.  See perfbench/NOTES.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)  # before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # set-up is timed in this process and in two fresh ones
CHILD_TIMEOUT_S = 150


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    return {"cpu": cpu, "caches": caches, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS, "platform": platform.platform()}


def l2_bytes(env: dict) -> int | None:
    size = env["caches"].get("L2", "")
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if size[:-1].isdigit() and size[-1] in units:
        return int(size[:-1]) * units[size[-1]]
    return None


def child(args, role: str, seconds: float, timeout: float) -> list[str]:
    """Run this script again in a fresh process; its stdout lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0",
           "--role", role]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"{role} process exited with {out.returncode}")
    return out.stdout.strip().splitlines()


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(args, workdir: Path) -> tuple[dict, dict]:
    """(detail record, result) for this process's role."""
    import measure
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        workload.setup()
        setup_stats = None
    else:
        untraced = json.loads(child(args, "plain", args.seconds / 2, CHILD_TIMEOUT_S)[-2])
        with tracer.installed():
            workload.setup()
        setup_stats = tracer.take()
    setup_wall_s = time.perf_counter() - T_START
    setup_s = setup_wall_s * measure.speed_scale()
    if args.role == "setup":
        return {"setup_s": setup_s, "setup_wall_s": setup_wall_s}, {}

    workload.references()
    if tracer is None:
        m = measure.measure(workload, args.seconds)
    else:
        with tracer.installed():
            m = measure.measure(workload, args.seconds / 2, tracer)

    env = environment()
    props = workload.properties()
    props["l2_bytes"] = l2_bytes(env)
    attempted, failed = m.attempted, len(m.failures)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "role": args.role, "inputs": props, "env": env,
              "rounds": m.rounds, "kinds": m.kinds(), "items_per_s": m.rate(),
              "wall_items_per_s": m.rate(wall=True),
              "failures": m.failures[:10], "digests": m.digests,
              "op_seconds": m.raw,
              "op_scaled_seconds": {k: [s for _, s in v] for k, v in m.samples.items()}}
    if tracer is None:
        setups, walls = [setup_s], [setup_wall_s]
        if args.role == "main":
            for _ in range(SETUP_SAMPLES - 1):
                sample = json.loads(child(args, "setup", 0, CHILD_TIMEOUT_S)[-1])
                setups.append(sample["setup_s"])
                walls.append(sample["setup_wall_s"])
        metrics = {"setup_s": {"value": median(setups), "unit": "s"},
                   "items_per_s": {"value": m.rate(), "unit": "1/s"},
                   "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"}}
        detail.update(setup_samples_s=setups, setup_wall_samples_s=walls)
    else:
        # the traced run must reproduce the untraced run's results
        shared = min(len(untraced["digests"]), len(m.digests))
        mismatched = sum(a != b for a, b in zip(untraced["digests"], m.digests))
        attempted += shared + untraced["ops"]["value"]
        failed += mismatched + untraced["error_rate"]["failed"]
        metrics = measure.layer_metrics(m, setup_stats, tracer.peaks)
        metrics["trace.overhead_ratio"] = {"value": m.rate() / untraced["items_per_s"],
                                           "unit": "ratio"}
        detail.update(untraced_items_per_s=untraced["items_per_s"], digests_compared=shared,
                      digests_mismatched=mismatched)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{args.workload}.npz")
    detail["error_rate"] = {"value": failed / attempted, "unit": "ratio",
                            "failed": failed, "attempted": attempted}
    detail["ops"] = {"value": attempted, "unit": "count"}
    detail["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["mc_cli", "mc_batch", "exact_enum",
                                                          "certify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # internal: "setup" times set-up only, "plain" is the untraced half of a traced run
    p.add_argument("--role", choices=["main", "setup", "plain"], default="main")
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hsprg" / "__init__.py").is_file():
        print(f"benchmark: no hsprg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hsprg

    if not Path(hsprg.__file__).resolve().is_relative_to(src.resolve()):
        print(f"benchmark: hsprg imported from {hsprg.__file__}, not {src}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        detail, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.role == "setup":
        print(json.dumps(detail))
        return 0
    if args.role == "main":
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out_dir / name).write_text(json.dumps(detail, indent=1) + "\n")
    for key in ("op_seconds", "op_scaled_seconds"):  # kept in the result file only
        detail.pop(key)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
