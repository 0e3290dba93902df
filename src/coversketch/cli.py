"""Command-line workflows: generate, sketch, solve, simulate, experiment.

Exit codes: 0 on success, 1 on runtime errors or infeasibility, 2 on usage
errors.  All commands are deterministic given their flags and seed; the only
nondeterministic output is an optional timestamp header on generated files,
suppressed with ``--no-timestamp``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import distsim, instance as inst_mod, sketch as sketch_mod, solvers

__all__ = ["main", "entry", "ExperimentSpec", "parse_experiment_spec",
           "run_experiment", "EXPERIMENT_COLUMNS"]

EXPERIMENT_COLUMNS = ["rho", "sigma", "k", "seed", "sketch_edges",
                      "sketch_ratio", "coverage", "baseline_coverage",
                      "quality_ratio"]


def _write_text(path: str, text: str):
    Path(path).write_text(text)


def _header(kind: str, fields: dict, timestamp: bool) -> list[str]:
    parts = [f"{kind} " + " ".join(f"{k}={v}" for k, v in fields.items())]
    if timestamp:
        parts.append("written " + datetime.now(timezone.utc).isoformat())
    return parts


def _load_graph_edges(path):
    """``(nv, u, v)`` of a `u v` edge-list graph with both directions of each
    edge, where the vertex count ``nv`` is 1 + the largest id."""
    rows, _ = inst_mod._read_table(path, 2)
    u, v = rows.T
    return (max(inst_mod._id_counts(rows)), np.concatenate((u, v)),
            np.concatenate((v, u)))


def _write_solution(path: str | None, sol: solvers.Solution):
    text = f"value={sol.coverage_value} k={len(sol.chosen)}\n"
    chosen = np.asarray(sol.chosen, dtype=np.int64)
    text += inst_mod._format_rows([chosen]).decode("ascii")
    if path:
        _write_text(path, text)
    return text


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    ts = not args.no_timestamp
    if args.kind == "planted":
        inst, planted = inst_mod.generate_planted(
            args.k, args.m, args.kprime, args.eps, args.seed)
        head = _header("generated", {"kind": "planted", "k": args.k,
                                     "m": args.m, "kprime": args.kprime,
                                     "eps": args.eps, "seed": args.seed}, ts)
        inst_mod.serialize_edge_list(inst, args.out, header_lines=head)
        opt = solvers.Solution(chosen=planted, coverage_value=inst.m,
                               evaluated_on="instance")
        _write_solution(args.out + ".opt", opt)
    elif args.kind == "adversarial":
        inst = inst_mod.generate_adversarial(args.n, args.k, args.beta,
                                             args.seed)
        head = _header("generated", {"kind": "adversarial", "n": args.n,
                                     "k": args.k, "beta": args.beta,
                                     "seed": args.seed}, ts)
        inst_mod.serialize_edge_list(inst, args.out, header_lines=head)
    elif args.kind == "khop":
        inst = inst_mod._khop_from_edges(*_load_graph_edges(args.graph),
                                         args.hops)
        head = _header("generated", {"kind": "khop", "hops": args.hops}, ts)
        inst_mod.serialize_edge_list(inst, args.out, header_lines=head)
    else:  # feature-pairs
        matrix, _ = inst_mod._read_table(args.matrix, None, "matrix entry")
        inst = inst_mod.feature_pairs_instance(matrix)
        head = _header("generated", {"kind": "feature-pairs",
                                     "rows": matrix.shape[0],
                                     "cols": matrix.shape[1]}, ts)
        inst_mod.serialize_edge_list(inst, args.out, header_lines=head)
        if inst.element_labels is not None:
            labels = np.asarray(inst.element_labels, dtype=np.int64)
            inst_mod._write_rows(args.out + ".labels", [],
                                 np.arange(len(labels)), labels)
    st = inst_mod.stats(inst)
    print(st.to_json_line())
    return 0


def _sketch_params_from_args(args, n: int, m: int,
                             edge_count: int) -> sketch_mod.SketchParams:
    if args.theory:
        if args.k is None:
            raise ValueError("theory mode requires --k")
        return sketch_mod.theory_params(n, m, edge_count, k=args.k,
                                        eps=args.eps,
                                        delta_dprime=args.delta_dprime)
    if args.rho is None or args.sigma is None:
        raise ValueError("practical mode requires --rho and --sigma")
    return sketch_mod.practical_params(args.rho, args.sigma)


def _warn_if_clamped(args, n: int, m: int, edge_count: int):
    """Print one stderr line when theory mode clamps ``n_tilde`` to the edge
    count of an input with ``n`` sets and ``m`` elements, which makes every
    theory sketch keep every element, with its edges up to the degree cap.
    ``n_tilde`` does not depend on ``k``, so guess 1, which starts every
    set-cover ladder, stands for every ``k``."""
    params = sketch_mod.theory_params(n, m, edge_count, k=1, eps=args.eps,
                                      delta_dprime=args.delta_dprime)
    if params.n_tilde == edge_count:
        print(f"warning: theory-mode n_tilde {params.raw_n_tilde} is clamped "
              f"to the input's {edge_count} edges, so the sketch keeps "
              "every element, degree-capped", file=sys.stderr)


def _cmd_sketch(args) -> int:
    inst = inst_mod.load_edge_list(args.input)
    counts = (inst.n, inst.m, inst.edge_count)
    params = _sketch_params_from_args(args, *counts)
    sk = sketch_mod.build_sketch(inst, params,
                                 sketch_mod.HashSource(args.seed))
    sketch_mod.serialize_sketch(sk, args.out)
    print(f"ratio={sk.instance.edge_count / inst.edge_count:.4f}")
    if args.theory:
        _warn_if_clamped(args, *counts)
    return 0


def _cmd_solve(args) -> int:
    inst = inst_mod.load_edge_list(args.input)
    if args.problem == "kcover":
        if args.k is None:
            raise ValueError("kcover requires --k")
        if args.solver == "brute-force":
            sol = solvers.brute_force_kcover(inst, args.k)
        else:
            sol = _solve_target(args.solver, inst, args.k, args.eps, args.seed)
    else:
        sol = solvers.set_cover_outliers(inst, args.lam, args.eps,
                                         args.delta_dprime, args.seed,
                                         engine=args.engine)
        if args.engine == "sketch":
            _warn_if_clamped(args, inst.n, inst.m, inst.edge_count)
    _write_solution(args.out, sol)
    print(f"value={sol.coverage_value}")
    return 0


def _cmd_simulate(args) -> int:
    inst = inst_mod.load_edge_list(args.input)
    if args.problem == "kcover":
        if args.k is None:
            raise ValueError("kcover requires --k")
        sol, report = distsim.run_kcover_mapreduce(
            inst, args.k, args.eps, args.delta_dprime, args.seed,
            args.machines, solver=args.solver)
    else:
        sol, report = distsim.run_setcover_mapreduce(
            inst, args.lam, args.eps, args.delta_dprime, args.seed,
            args.machines)
    if args.out_solution:
        _write_solution(args.out_solution, sol)
    if args.out_report:
        _write_text(args.out_report, report.to_text())
    print(f"value={sol.coverage_value} rounds={report.rounds_executed} "
          f"divergence={int(report.divergence_flag)}")
    _warn_if_clamped(args, inst.n, inst.m, inst.edge_count)
    return 0


# ---------------------------------------------------------------------------
# Experiment sweeps
# ---------------------------------------------------------------------------


@dataclass
class ExperimentSpec:
    """Parsed sweep description: an instance, grids, seeds, and solvers."""

    instance_kind: str
    instance_args: dict
    rho_grid: list[float]
    sigma_grid: list[int]
    k_grid: list[int]
    seeds: list[int]
    solver: str
    baseline: str
    solver_eps: float
    out: str

    def __post_init__(self):
        if not self.rho_grid or not self.sigma_grid or not self.k_grid:
            raise ValueError("rho, sigma, and k grids must be non-empty")
        if not self.seeds:
            raise ValueError("at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got "
                             f"{min(self.seeds)}")
        seed = self.instance_args.get("seed")
        if seed is not None and _spec_number(f"{self.instance_kind}.seed",
                                             seed, int) < 0:
            raise ValueError(f"{self.instance_kind}.seed must be "
                             f"non-negative, got {seed}")
        if self.solver not in ("stochastic", "greedy"):
            raise ValueError("solver must be stochastic or greedy")
        if self.baseline not in ("stochastic", "greedy"):
            raise ValueError("baseline must be stochastic or greedy")


def _spec_number(key: str, text: str, convert):
    """``convert(text)``, where ``convert`` is int or float; a value it
    rejects raises a ValueError that names the spec key and the text."""
    try:
        return convert(text)
    except ValueError:
        expected = "an integer" if convert is int else "a number"
        raise ValueError(f"spec key {key}: expected {expected}, "
                         f"got {text!r}") from None


def _spec_list(kv: dict, key: str, convert) -> list:
    """The comma-separated values of ``key``, empty when it is absent."""
    return [_spec_number(key, x, convert)
            for x in kv.get(key, "").split(",") if x]


# Instance parameters without a default, per instance kind.
_SPEC_REQUIRED = {
    "planted": ("k", "m", "kprime", "eps"),
    "adversarial": ("n", "k", "beta"),
    "khop": ("graph",),
    "file": ("path",),
}


def parse_experiment_spec(path) -> ExperimentSpec:
    """Flat `key value` text; grid keys take comma-separated lists.

    Keys: `instance` (planted | adversarial | khop | file) with dotted
    parameter keys (`planted.k` etc.), grid keys `rho`, `sigma`, `k`, a
    `seeds` list, optional `solver`, `baseline`, `solver_eps`, and `out`.
    """
    kv = {}
    text = Path(path).read_bytes().decode("utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if not value:
            raise inst_mod.ParseError(f"line {lineno}: expected `key value`")
        kv[key.strip()] = value.strip()
    kind = kv.get("instance")
    if kind not in _SPEC_REQUIRED:
        raise ValueError("spec must name an instance kind "
                         "(planted, adversarial, khop, file)")
    iargs = {k.split(".", 1)[1]: v for k, v in kv.items()
             if k.startswith(kind + ".")}
    missing = [f"{kind}.{k}" for k in _SPEC_REQUIRED[kind] if k not in iargs]
    if missing:
        raise ValueError(f"spec is missing {', '.join(missing)}")
    return ExperimentSpec(
        instance_kind=kind,
        instance_args=iargs,
        rho_grid=_spec_list(kv, "rho", float),
        sigma_grid=_spec_list(kv, "sigma", int),
        k_grid=_spec_list(kv, "k", int),
        seeds=_spec_list(kv, "seeds", int),
        solver=kv.get("solver", "stochastic"),
        baseline=kv.get("baseline", "stochastic"),
        solver_eps=_spec_number("solver_eps", kv.get("solver_eps", "0.1"),
                                float),
        out=kv.get("out", "experiment.csv"),
    )


def _build_spec_instance(spec: ExperimentSpec):
    kind, a = spec.instance_kind, spec.instance_args

    def arg(name, convert, default=None):
        text = a[name] if default is None else a.get(name, default)
        return _spec_number(f"{kind}.{name}", text, convert)

    if kind == "planted":
        inst, _ = inst_mod.generate_planted(
            arg("k", int), arg("m", int), arg("kprime", int),
            arg("eps", float), arg("seed", int, "0"))
        return inst
    if kind == "adversarial":
        return inst_mod.generate_adversarial(
            arg("n", int), arg("k", int), arg("beta", float),
            arg("seed", int, "0"))
    if kind == "khop":
        hops = arg("hops", int, "2")
        return inst_mod._khop_from_edges(*_load_graph_edges(a["graph"]), hops)
    return inst_mod.load_edge_list(a["path"])


def _solve_target(solver, target, k, eps, seed):
    # Looked up in ``solvers`` at call time, so a wrapped solver is seen too.
    if solver == "greedy":
        return solvers.greedy_kcover(target, k)
    return solvers.stochastic_greedy(target, k, eps, seed)


def run_experiment(spec: ExperimentSpec):
    """Run the (rho, sigma, k) x seeds sweep; returns rows as dicts.

    Each row solves on a practical sketch and evaluates the chosen sets on
    the full instance; the baseline solves on the full instance directly.
    One mean row (seed column "mean") follows each grid point's seed rows.
    A sketch depends on (rho, sigma, seed) only, so every k shares it.
    """
    inst = _build_spec_instance(spec)
    # The baseline solves read the element view anyway; built first, it
    # serves every sketch's gather, and no sketch masks the set view.
    inst.elem_indptr
    baselines: dict[tuple[int, int], float] = {}
    rows = []
    for rho in sorted(spec.rho_grid):
        for sigma in sorted(spec.sigma_grid):
            params = sketch_mod.practical_params(rho, sigma)
            sketches = {seed: sketch_mod.build_sketch(
                            inst, params, sketch_mod.HashSource(seed))
                        for seed in spec.seeds}
            for k in sorted(spec.k_grid):
                group = []
                for seed, sk in sketches.items():
                    key = (k, seed)
                    if key not in baselines:
                        base_sol = _solve_target(spec.baseline, inst, k,
                                                 spec.solver_eps, seed)
                        baselines[key] = float(base_sol.coverage_value)
                    sol = _solve_target(spec.solver, sk, min(k, sk.instance.n),
                                        spec.solver_eps, seed)
                    cov = float(solvers.coverage(inst, sol.chosen))
                    base = baselines[key]
                    quality = cov / base if base else 1.0
                    group.append({
                        "rho": rho, "sigma": sigma, "k": k, "seed": seed,
                        "sketch_edges": sk.instance.edge_count,
                        "sketch_ratio": sk.instance.edge_count / inst.edge_count,
                        "coverage": cov, "baseline_coverage": base,
                        "quality_ratio": quality,
                    })
                rows.extend(group)
                mean = {"rho": rho, "sigma": sigma, "k": k, "seed": "mean"}
                for col in EXPERIMENT_COLUMNS[4:]:
                    mean[col] = sum(r[col] for r in group) / len(group)
                rows.append(mean)
    return rows


def write_experiment_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=EXPERIMENT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: repr(row[c]) if isinstance(row[c], float)
                             else row[c] for c in EXPERIMENT_COLUMNS})


def _cmd_experiment(args) -> int:
    spec = parse_experiment_spec(args.spec)
    if args.out:
        spec.out = args.out
    rows = run_experiment(spec)
    write_experiment_csv(rows, spec.out)
    print(f"rows={len(rows)} out={spec.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    """The ``--seed`` value: a non-negative integer, which every hash and
    random generator seeded from it accepts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse neither
    keeps nor changes state across ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="coversketch",
        description="Coverage optimization via adaptive sampling sketches")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic instance")
    gensub = gen.add_subparsers(dest="kind", required=True)
    gp = gensub.add_parser("planted")
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--m", type=int, required=True)
    gp.add_argument("--kprime", type=int, required=True)
    gp.add_argument("--eps", type=float, required=True)
    ga = gensub.add_parser("adversarial")
    ga.add_argument("--n", type=int, required=True)
    ga.add_argument("--k", type=int, required=True)
    ga.add_argument("--beta", type=float, required=True)
    gk = gensub.add_parser("khop")
    gk.add_argument("--graph", required=True)
    gk.add_argument("--hops", type=int, required=True)
    gf = gensub.add_parser("feature-pairs")
    gf.add_argument("--matrix", required=True)
    for p in (gp, ga, gk, gf):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--out", required=True)
        p.add_argument("--no-timestamp", action="store_true")
        p.set_defaults(func=_cmd_generate)

    sk = sub.add_parser("sketch", help="build a sketch of an instance file")
    sk.add_argument("--in", dest="input", required=True)
    sk.add_argument("--out", required=True)
    sk.add_argument("--rho", type=float)
    sk.add_argument("--sigma", type=int)
    sk.add_argument("--theory", action="store_true")
    sk.add_argument("--k", type=int)
    sk.add_argument("--eps", type=float, default=0.5)
    sk.add_argument("--delta-dprime", type=float, default=0.5)
    sk.add_argument("--seed", type=_seed, default=0)
    sk.set_defaults(func=_cmd_sketch)

    so = sub.add_parser("solve", help="solve k-cover or set cover with outliers")
    so.add_argument("--in", dest="input", required=True)
    so.add_argument("--problem", choices=["kcover", "setcover-outliers"],
                    required=True)
    so.add_argument("--solver",
                    choices=["greedy", "stochastic", "brute-force"],
                    default="greedy")
    so.add_argument("--k", type=int)
    so.add_argument("--eps", type=float, default=0.5)
    so.add_argument("--lambda", dest="lam", type=float, default=0.01)
    so.add_argument("--delta-dprime", type=float, default=0.5)
    so.add_argument("--engine", choices=["direct", "sketch"], default="direct")
    so.add_argument("--seed", type=_seed, default=0)
    so.add_argument("--out")
    so.set_defaults(func=_cmd_solve)

    si = sub.add_parser("simulate", help="run the four-round MapReduce pipeline")
    si.add_argument("--in", dest="input", required=True)
    si.add_argument("--problem", choices=["kcover", "setcover-outliers"],
                    required=True)
    si.add_argument("--machines", type=int, required=True)
    si.add_argument("--solver", choices=["greedy", "stochastic"],
                    default="greedy")
    si.add_argument("--k", type=int)
    si.add_argument("--eps", type=float, default=0.5)
    si.add_argument("--lambda", dest="lam", type=float, default=0.01)
    si.add_argument("--delta-dprime", type=float, default=0.5)
    si.add_argument("--seed", type=_seed, default=0)
    si.add_argument("--out-solution")
    si.add_argument("--out-report")
    si.set_defaults(func=_cmd_simulate)

    ex = sub.add_parser("experiment", help="run a sweep described by a spec file")
    ex.add_argument("--spec", required=True)
    ex.add_argument("--out")
    ex.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
