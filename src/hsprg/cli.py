"""Command-line front end: discretize, regularity, gen, robp, sandwich, estimate."""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .distributions import ProductDistribution, discretize_coordinate, moment_profile
from .halfspace import CombinerSpec, HalfspaceSystem
from .harness import (
    ResourceCapError,
    emit_report,
    estimate_fooling_error,
    master_seed_default,
    rng_for,
)
from .mzgen import MZGenerator, NisanProductGenerator, alphabets_from_distribution
from .regularity import TermNorms, critical_index, head_set_partition
from .robp import (
    ROBP,
    MonotoneCertificate,
    ResourceError,
    check_monotone,
    halfspace_to_robp,
    nisan_generate,
    nisan_seed_bits,
    sandwich_monotone,
)
from .sandwich_poly import DGJSVError, audit_dgjsv, build_upper_poly, dgjsv_poly


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _dump_json(data, path: str | None):
    text = json.dumps(data, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_error(exc: Exception) -> int:
    """Print the error as one JSON line; the exit status of a rejected input."""
    print(json.dumps({"error": str(exc)}))
    return 1


def cmd_discretize(args) -> int:
    dist = ProductDistribution.load(args.dist)
    reports = []
    for coord in dist.coords:
        C = args.C if args.C is not None else max(1.0, moment_profile(coord).fourth_moment)
        rep = discretize_coordinate(coord, dist.n, C, args.eps, gamma=args.gamma)
        reports.append(rep.to_json())
    _dump_json({"n": dist.n, "eps": args.eps, "coords": reports}, args.out)
    return 0


def cmd_regularity(args) -> int:
    data = _load_json(args.weights)
    W = np.asarray(data["W"], dtype=float)
    if W.ndim == 1:
        W = W[:, None]
    n, d = W.shape
    m2 = data.get("m2", [1.0] * n)
    m4 = data.get("m4", [1.0] * n)
    per_dim = []
    for i in range(d):
        norms = TermNorms.from_weights(W[:, i], m2, m4)
        ell, order = critical_index(norms, args.delta)
        per_dim.append({"critical_index": None if ell == float("inf") else int(ell),
                        "sorted_order": list(order)})
    out = {"delta": args.delta, "per_dimension": per_dim}
    if args.L is not None:
        out["head"] = head_set_partition(W, m2, m4, args.delta, args.L).to_json()
    _dump_json(out, args.out)
    return 0


def cmd_gen(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    dist = ProductDistribution.load(args.dist)
    params = _load_json(args.params)
    gen = MZGenerator(alphabets_from_distribution(dist),
                      t=params.get("t", 1), k=params.get("k", 5),
                      hash_variant=params.get("hash", "affine"))
    rng = rng_for(args.master_seed if args.master_seed is not None
                  else master_seed_default())
    rows = gen.expand(gen.random_seeds(rng, args.seeds))
    if args.out.endswith(".bin"):
        rows.astype("<f8").tofile(args.out)
    else:
        np.savetxt(args.out, rows, delimiter=",")
    print(json.dumps(gen.seed_bits_report()))
    return 0


def cmd_robp(args) -> int:
    if args.robp_cmd == "compile":
        w = json.loads(args.weights)
        alphabet = json.loads(args.alphabet)
        if alphabet and not isinstance(alphabet[0], list):
            alphabet = [alphabet] * len(w)
        program, _ = halfspace_to_robp(w, args.theta, alphabet)
        program.save(args.out)
        print(json.dumps({"T": program.T, "D": program.D, "width": program.width}))
        return 0
    if args.robp_cmd == "check":
        result = check_monotone(ROBP.load(args.prog))
        if isinstance(result, MonotoneCertificate):
            _dump_json({"monotone": True, "orders": [list(o) for o in result.orders]},
                       args.out)
            return 0
        _dump_json({"monotone": False, "layer": result.layer,
                    "states": [result.v, result.w],
                    "suffix_v": list(result.suffix_v),
                    "suffix_w": list(result.suffix_w)}, args.out)
        return 1
    if args.robp_cmd == "sandwich":
        pair = sandwich_monotone(ROBP.load(args.prog), args.eps)
        pair.down.save(args.out_down)
        pair.up.save(args.out_up)
        print(json.dumps({"eps": args.eps, "gap": float(pair.gap()),
                          "down_width": pair.down.width, "up_width": pair.up.width}))
        return 0
    if args.robp_cmd == "nisan":
        labels = nisan_generate(args.space, args.label_bits, args.steps, args.seed)
        _dump_json({"labels": labels,
                    "seed_bits": nisan_seed_bits(args.space, args.label_bits, args.steps)},
                   args.out)
        return 0
    raise AssertionError(args.robp_cmd)


def cmd_sandwich(args) -> int:
    if args.sandwich_cmd == "audit":
        rep = audit_dgjsv(dgjsv_poly(args.a, args.b))
        _dump_json({"a": args.a, "b": args.b, "K": rep.K, "ok": rep.ok,
                    "c0_ratio": rep.c0_ratio, "violations": rep.violations},
                   args.out)
        return 0
    if args.sandwich_cmd == "build":
        dist = ProductDistribution.load(args.dist)
        w = json.loads(args.weights)
        gp = build_upper_poly(w, args.theta, dist.coords, delta=args.delta,
                              t=args.t, T=args.T, d=args.d, L=args.L)
        _dump_json({"order": gp.order, "K": gp.K, "q": gp.q, "L": gp.L,
                    "head": list(gp.partition.head),
                    "tail_regular": gp.partition.tail_regular,
                    "tail_norm": gp.partition.tail_norm,
                    "P": gp.P.to_json()}, args.out)
        return 0
    raise AssertionError(args.sandwich_cmd)


def cmd_estimate(args) -> int:
    system = HalfspaceSystem.from_json(_load_json(args.f))
    combiner = CombinerSpec.from_json(_load_json(args.combiner))
    dist = ProductDistribution.load(args.dist)

    if args.gen.startswith("kwise:"):
        k = int(args.gen.split(":", 1)[1])
        gen = MZGenerator(alphabets_from_distribution(dist), t=1, k=k)
    elif args.gen == "mz":
        gen = MZGenerator(alphabets_from_distribution(dist), t=args.t, k=args.k)
    elif args.gen == "nisan":
        gen = NisanProductGenerator(alphabets_from_distribution(dist),
                                    space=args.nisan_space)
    else:
        raise ValueError(f"unknown generator {args.gen!r}")

    report = estimate_fooling_error(
        (system, combiner), dist, gen, mode=args.mode, trials=args.trials,
        master_seed=args.master_seed, experiment=args.experiment, eps=args.eps)
    fmt = "json" if args.out.endswith(".json") else "csv"
    emit_report([report], args.out, fmt)
    print(json.dumps(report.to_json()))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hsprg` parser, built on first use and shared by every `main` call."""
    p = argparse.ArgumentParser(prog="hsprg",
                                description="PRGs for functions of halfspaces "
                                            "under product distributions")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    d = sub.add_parser("discretize", help="truncate/bucket/sandwich a distribution")
    d.add_argument("--dist", required=True)
    d.add_argument("--eps", type=float, required=True)
    d.add_argument("--C", type=float, default=None)
    d.add_argument("--gamma", type=float, default=None)
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_discretize)

    r = sub.add_parser("regularity", help="critical index and head set")
    r.add_argument("--weights", required=True)
    r.add_argument("--delta", type=float, required=True)
    r.add_argument("--L", type=int, default=None)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_regularity)

    g = sub.add_parser("gen", help="draw generator samples")
    g.add_argument("--dist", required=True)
    g.add_argument("--params", required=True)
    g.add_argument("--seeds", type=int, required=True)
    g.add_argument("--master-seed", type=int, default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    rb = sub.add_parser("robp", help="branching-program tools")
    rbs = rb.add_subparsers(dest="robp_cmd", required=True)
    rc = rbs.add_parser("compile")
    rc.add_argument("--weights", required=True, help="JSON list")
    rc.add_argument("--theta", type=float, required=True)
    rc.add_argument("--alphabet", default="[-1, 1]", help="JSON list (or list per step)")
    rc.add_argument("--out", required=True)
    rk = rbs.add_parser("check")
    rk.add_argument("--prog", required=True)
    rk.add_argument("--out", default=None)
    rs = rbs.add_parser("sandwich")
    rs.add_argument("--prog", required=True)
    rs.add_argument("--eps", type=float, required=True)
    rs.add_argument("--out-down", required=True)
    rs.add_argument("--out-up", required=True)
    rn = rbs.add_parser("nisan")
    rn.add_argument("--space", type=int, required=True)
    rn.add_argument("--label-bits", type=int, required=True)
    rn.add_argument("--steps", type=int, required=True)
    rn.add_argument("--seed", type=int, required=True)
    rn.add_argument("--out", default=None)
    rb.set_defaults(func=cmd_robp)

    s = sub.add_parser("sandwich", help="sandwiching polynomials")
    ss = s.add_subparsers(dest="sandwich_cmd", required=True)
    sa = ss.add_parser("audit")
    sa.add_argument("--a", type=float, required=True)
    sa.add_argument("--b", type=float, required=True)
    sa.add_argument("--out", default=None)
    sb = ss.add_parser("build")
    sb.add_argument("--weights", required=True, help="JSON list")
    sb.add_argument("--theta", type=float, required=True)
    sb.add_argument("--dist", required=True)
    sb.add_argument("--delta", type=float, required=True)
    sb.add_argument("--t", type=float, required=True)
    sb.add_argument("--T", type=int, required=True)
    sb.add_argument("--d", type=int, required=True)
    sb.add_argument("--L", type=int, required=True)
    sb.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sandwich)

    e = sub.add_parser("estimate", help="fooling-error estimation")
    e.add_argument("--f", required=True, help="halfspace system JSON")
    e.add_argument("--combiner", required=True)
    e.add_argument("--dist", required=True)
    e.add_argument("--gen", required=True, help="mz | kwise:K | nisan")
    e.add_argument("--t", type=int, default=4)
    e.add_argument("--k", type=int, default=5)
    e.add_argument("--nisan-space", type=int, default=6)
    e.add_argument("--mode", choices=["exact", "mc"], default="exact")
    e.add_argument("--trials", type=int, default=10 ** 5)
    e.add_argument("--master-seed", type=int, default=None)
    e.add_argument("--experiment", default="fooling")
    e.add_argument("--eps", type=float, default=None)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_estimate)
    return p


def main(argv=None) -> int:
    """Run one subcommand; a rejected input prints a JSON error and returns 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceCapError, ResourceError, DGJSVError) as exc:
        return _report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
