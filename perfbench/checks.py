"""Correctness checks on the CSV files one workload run writes.

Each check returns a list of problems; an empty list means the run passed.
The checks hold for a correct program at any seed and are independent of
the program's own code: step counts come from the MLMC plan formula, and
reference values from the acceptance gate and the study configs.
"""

from __future__ import annotations

import hashlib
import math
import os

# Fourier price of the heston-mlmc call (strike 105, T = 1), as pinned to
# 5e-3 by the oracle acceptance test.
HESTON_TRUTH = 7.46253
# Paper rmsq of one multilevel estimate per epsilon; the acceptance gate
# allows each study rmsq to exceed it by 35%.
PAPER_RMSQ = {2.0**-4: 0.6853, 2.0**-5: 0.3528, 2.0**-6: 0.1814}
RMSQ_SLACK = 1.35
# Standard errors of the replication mean allowed between it and the truth.
Z_MEAN = 4.0
# Strong-order bands of the CIR acceptance test (Feller regime).
CIR_SLOPES = {
    "truncated_euler": (0.45, 0.70),
    "implicit_sqrt": (0.80, 1.05),
    "dimp_milstein": (0.80, 1.05),
}
# E|V_T| of the 3/2 model (three-halves-mc preset), the spread of |V_T|
# (stderr 0.0038 at N = 10000), and the room left for explicit Euler's bias
# at n = 4096 (about +0.005): the estimate must lie within Z_MEAN standard
# errors plus that room.
THREE_HALVES_ABS_MEAN = 0.566
THREE_HALVES_ABS_SD = 0.38
THREE_HALVES_BIAS_ROOM = 0.01


def parse_value(text: str) -> float | int | str:
    """A config or CSV scalar: int, float, dyadic ``2^k``, or plain text."""
    text = text.strip()
    if text.startswith("2^"):
        return 2.0 ** int(text[2:]) if text[2:].startswith("-") else 2 ** int(text[2:])
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_config(path: str) -> dict[str, object]:
    """``key = value`` pairs of a config file; lists become tuples."""
    out: dict[str, object] = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line or line.startswith("["):
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            items = [parse_value(v) for v in value.split(",")]
            out[key] = tuple(items) if len(items) > 1 else items[0]
    return out


def as_tuple(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def mlmc_plan(epsilon: float, T: float) -> tuple[int, int]:
    """(levels, total fine+coarse steps) of one multilevel estimate:
    L = ceil(log2(T/eps)), N_l = ceil(L eps^-2 T 2^-l), a level-l sample
    costs 2^l fine plus 2^(l-1) coarse steps (1 step at level 0)."""
    levels = math.ceil(math.log2(T / epsilon))
    total = 0
    for level in range(levels + 1):
        n_l = math.ceil(levels * T / (epsilon * epsilon) * 2.0 ** (-level))
        total += n_l * ((2**level + 2 ** (level - 1)) if level else 1)
    return levels, total


def read_csv(path: str) -> tuple[list[str], list[dict[str, str]], list[str]]:
    """(header comments, data rows keyed by column, trailing comments)."""
    head, rows, tail = [], [], []
    columns = None
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                (tail if columns else head).append(line[2:])
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(dict(zip(columns, line.split(","))))
    return head, rows, tail


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every CSV the run wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_mlmc(out_dir: str, cfg: dict, T: float) -> list[str]:
    problems = []
    _, rows, _ = read_csv(os.path.join(out_dir, "mlmc.csv"))
    eps_list = as_tuple(cfg["epsilon_list"])
    reps = cfg["replications"]
    if len(rows) != len(eps_list):
        return [f"mlmc.csv has {len(rows)} rows, expected {len(eps_list)}"]
    for eps, row in zip(eps_list, rows):
        levels, steps = mlmc_plan(eps, T)
        est = float(row["estimate"])
        rmsq = float(row["rmsq_if_study"])
        tol = Z_MEAN * RMSQ_SLACK * PAPER_RMSQ[eps] / math.sqrt(reps)
        if float(row["epsilon"]) != eps:
            problems.append(f"epsilon {row['epsilon']} != {eps}")
        if int(row["levels"]) != levels or int(row["total_steps"]) != steps:
            problems.append(
                f"eps={eps}: levels/total_steps {row['levels']}/"
                f"{row['total_steps']} != plan {levels}/{steps}"
            )
        if not abs(est - HESTON_TRUTH) <= tol:
            problems.append(
                f"eps={eps}: mean estimate {est} is more than {tol:.4f} from "
                f"the Fourier truth {HESTON_TRUTH}"
            )
        # rmsq^2 = (mean - truth)^2 + spread, so it can never undercut the bias
        if not (math.isfinite(rmsq) and rmsq > 0
                and rmsq >= abs(est - HESTON_TRUTH) * (1 - 1e-12)):
            problems.append(f"eps={eps}: rmsq {rmsq} inconsistent with mean {est}")
        if int(row["overflow_count"]) != 0:
            problems.append(f"eps={eps}: {row['overflow_count']} overflows")
    return problems


def check_converge(out_dir: str, cfg: dict, T: float) -> list[str]:
    problems = []
    n_count = len(as_tuple(cfg["n_list"]))
    for label in as_tuple(cfg["scheme"]):
        path = os.path.join(out_dir, f"converge_{label}.csv")
        if not os.path.exists(path):
            problems.append(f"missing {os.path.basename(path)}")
            continue
        _, rows, tail = read_csv(path)
        errors = [float(r["error"]) for r in rows]
        if len(errors) != n_count:
            problems.append(f"{label}: {len(errors)} rows, expected {n_count}")
        if not all(math.isfinite(e) and e > 0 for e in errors):
            problems.append(f"{label}: non-finite or non-positive error {errors}")
        if any(int(r["n_overflow"]) for r in rows):
            problems.append(f"{label}: overflowed paths")
        fit = [t for t in tail if t.startswith("regression: slope = ")]
        if not fit:
            problems.append(f"{label}: no regression line")
            continue
        slope = float(fit[0].split()[3])
        lo, hi = CIR_SLOPES[label]
        if not lo <= slope <= hi:
            problems.append(f"{label}: slope {slope} outside [{lo}, {hi}]")
    return problems


def check_explode(out_dir: str, cfg: dict, T: float) -> list[str]:
    problems = []
    _, rows, _ = read_csv(os.path.join(out_dir, "explode.csv"))
    got = {
        (round(T / float(r["delta"])), int(r["n_samples"])): r for r in rows
    }
    jobs = [(n, N) for n in as_tuple(cfg["n_list"])
            for N in as_tuple(cfg["n_samples_list"])]
    if sorted(got) != sorted(jobs):
        return [f"explode.csv rows {sorted(got)} != {sorted(jobs)}"]
    for n in (16, 64):
        row = got[(n, 10000)]
        if row["estimate"] != "inf" or int(row["n_overflow"]) < 1:
            problems.append(
                f"n={n}, N=10000: estimate {row['estimate']} with "
                f"{row['n_overflow']} overflowed paths, expected inf from overflow"
            )
    for N in as_tuple(cfg["n_samples_list"]):
        row = got[(4096, N)]
        est = float(row["estimate"])
        tol = THREE_HALVES_BIAS_ROOM + Z_MEAN * THREE_HALVES_ABS_SD / math.sqrt(N)
        if not abs(est - THREE_HALVES_ABS_MEAN) <= tol or int(row["n_overflow"]):
            problems.append(
                f"n=4096, N={N}: estimate {est} is not finite within {tol:.4f} "
                f"of E|V_T| = {THREE_HALVES_ABS_MEAN}"
            )
    return problems


CHECKS = {"mlmc": check_mlmc, "converge": check_converge, "explode": check_explode}
