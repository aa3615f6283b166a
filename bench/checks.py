"""Checks of the program's outputs against the benchmark's own computations.

Every check returns a list of the faults it found; an empty list means the
output is correct.  No check compares against a stored copy of earlier
output: each expected value is recomputed here from the inputs, or is a
property the method must have.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

KKT_TOLERANCE = 1e-8  # the certificate the oracle promises for every optimum
SLACK_FLOOR = -1e-9  # SDGM's safety: no realized demand may exceed capacity
TRACE_HEADER = (
    "trial_id,algorithm,t,objective,regret_cum,infeasibility,"
    "distance_to_opt,max_lambda,min_slack"
)
TRACE_METRICS = TRACE_HEADER.split(",")[3:]


# --- problems and certified optima -----------------------------------------

def problem_arrays(doc: dict) -> dict:
    """Arrays of a problem document, as `safedual generate` writes it."""
    n = int(doc["n"])
    shift = doc["shift"]
    return {
        "a": np.asarray(doc["A"], float),
        "c": np.asarray(doc["c"], float),
        "theta": np.asarray(doc["theta"], float),
        "shift": np.full(n, float(shift)) if np.isscalar(shift) else np.asarray(shift, float),
        "lower": np.asarray(doc["lower"], float),
        "upper": np.array([math.inf if u == "inf" else float(u) for u in doc["upper"]]),
    }


def kkt_residual(p: dict, x: np.ndarray, lam: np.ndarray) -> float:
    """Largest violation of primal and dual feasibility, box-projected
    stationarity of each user's subproblem, and complementary slackness."""
    slack = p["c"] - p["a"] @ x
    grad = p["theta"] / (x + p["shift"]) - p["a"].T @ lam
    stationarity = np.where(
        x <= p["lower"], np.maximum(grad, 0.0),
        np.where(x >= p["upper"], np.maximum(-grad, 0.0), np.abs(grad)),
    )
    return float(max(
        np.maximum(-slack, 0.0).max(),
        np.maximum(-lam, 0.0).max(),
        stationarity.max(),
        np.abs(lam * slack).max(),
    ))


def dual_function(p: dict, lam: np.ndarray) -> tuple[float, np.ndarray]:
    """Closed-form dual value at lam and the demand that attains it."""
    prices = p["a"].T @ lam
    if ((prices <= 0) & np.isinf(p["upper"])).any():
        return math.inf, np.full(len(prices), math.inf)
    with np.errstate(divide="ignore"):
        x = np.where(prices > 0, p["theta"] / prices - p["shift"], p["upper"])
    x = np.clip(x, p["lower"], p["upper"])
    value = np.sum(p["theta"] * np.log(x + p["shift"])) - prices @ x + lam @ p["c"]
    return float(value), x


def check_optimum(p: dict, solution: dict, label: str) -> list[str]:
    """A certified optimum must meet the KKT tolerance, and its duality gap
    must lie within what that tolerance allows.

    With every KKT term at most r, weak duality and concavity of each user's
    utility give -m*r <= D(lam) - f(x) <= r * (m + sum_i |x_i(lam) - x_i|).
    """
    x = np.asarray(solution["x_star"], float)
    lam = np.asarray(solution["lambda_star"], float)
    if x.shape != p["theta"].shape or lam.shape != p["c"].shape:
        return [f"{label}: optimum has the wrong shape"]
    faults = []
    residual = kkt_residual(p, x, lam)
    if not residual <= KKT_TOLERANCE:
        faults.append(f"{label}: KKT residual {residual:.3e} above {KKT_TOLERANCE:g}")
    objective = float(np.sum(p["theta"] * np.log(x + p["shift"])))
    if not abs(objective - float(solution["f_star"])) <= 1e-12 * (1.0 + abs(objective)):
        faults.append(f"{label}: f_star {solution['f_star']!r} is not f(x_star) {objective!r}")
    dual, x_dual = dual_function(p, lam)
    gap = dual - objective
    m = len(lam)
    roundoff = 1e-12 * (1.0 + abs(objective) + abs(dual))
    upper = KKT_TOLERANCE * (m + float(np.abs(x_dual - x).sum())) + roundoff
    if not -KKT_TOLERANCE * m - roundoff <= gap <= upper:
        faults.append(f"{label}: duality gap {gap:.3e} outside [{-KKT_TOLERANCE * m:.1e}, {upper:.1e}]")
    return faults


# --- traces, summaries and manifests ----------------------------------------

def read_trace(path: str) -> dict:
    """Columns of a trace CSV, parsed here rather than by the program."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: unexpected header")
    cells = np.array([line.split(",") for line in lines[1:]])
    if cells.ndim != 2 or cells.shape[1] != 9:
        raise ValueError(f"{path}: malformed rows")
    columns = {name: cells[:, 3 + i].astype(float) for i, name in enumerate(TRACE_METRICS)}
    columns["trial_ids"] = set(cells[:, 0].tolist())
    columns["algorithms"] = set(cells[:, 1].tolist())
    columns["t"] = cells[:, 2].astype(np.int64)
    return columns


def regret_envelope(t: np.ndarray, meta: dict) -> np.ndarray:
    """The paper's O(sqrt T) regret bound of SDGM, from the manifest's constants:
    lambda_bar^2 * |c|_1 * sqrt(t) / gamma + 2 * C * gamma * sqrt(t)."""
    root = np.sqrt(np.asarray(t, float))
    gamma = meta["gamma"]
    return (meta["lambda_bar"] ** 2 * meta["c_l1"] / gamma + 2.0 * meta["regret_constant"] * gamma) * root


def checkpoints(horizon: int) -> np.ndarray:
    """Rounds 1, 10, 100, ... below the horizon, and the horizon itself."""
    points = [10**k for k in range(int(math.log10(horizon)) + 1) if 10**k < horizon]
    return np.array(points + [horizon])


def check_sdgm_trace(trace: dict, meta: dict, label: str) -> list[str]:
    """Safety, monotone regret and the regret envelope of one SDGM trace."""
    faults = []
    slack = trace["min_slack"]
    if not (slack >= SLACK_FLOOR).all():
        t = int(trace["t"][np.argmin(slack)])
        faults.append(f"{label}: slack {slack.min():.3e} below {SLACK_FLOOR:g} at t={t}")
    regret = trace["regret_cum"]
    # Every iterate is feasible, so none can beat f*: each round adds a gap
    # f* - f(x_t) that is non-negative up to the optimum's own tolerance.
    steps = np.diff(regret, prepend=0.0)
    floor = -1e-9 * (1.0 + abs(meta["f_star"]))
    if not (steps >= floor).all():
        t = int(trace["t"][np.argmin(steps)])
        faults.append(f"{label}: cumulative regret decreases by {-steps.min():.3e} at t={t}")
    points = checkpoints(len(regret))
    envelope = regret_envelope(points, meta)
    over = regret[points - 1] > envelope
    if over.any():
        t = int(points[np.argmax(over)])
        faults.append(f"{label}: regret {regret[t - 1]:.6g} above the O(sqrt T) envelope "
                      f"{envelope[np.argmax(over)]:.6g} at t={t}")
    return faults


def read_summary(path: str) -> dict:
    """(algorithm, metric) -> (mean array, std array) of a summary CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    expected = ["algorithm", "t"] + [f"{m}_{s}" for m in TRACE_METRICS for s in ("mean", "std")]
    if not lines or lines[0].split(",") != expected:
        raise ValueError(f"{path}: unexpected header")
    cells = np.array([line.split(",") for line in lines[1:]])
    summary = {}
    for alg in dict.fromkeys(cells[:, 0].tolist()):
        rows = cells[cells[:, 0] == alg]
        for i, metric in enumerate(TRACE_METRICS):
            summary[(alg, metric)] = (rows[:, 2 + 2 * i].astype(float), rows[:, 3 + 2 * i].astype(float))
        summary[(alg, "t")] = rows[:, 1].astype(np.int64)
    return summary


def check_summary(summary: dict, traces: dict, algorithms, horizon: int) -> list[str]:
    """The summary must hold the mean and standard deviation over trials of
    every trace column, computed here by compensated summation."""
    faults = []
    for alg in algorithms:
        group = [traces[key] for key in sorted(traces) if key[1] == alg]
        if (alg, "t") not in summary or not np.array_equal(summary[(alg, "t")], np.arange(1, horizon + 1)):
            faults.append(f"summary: rows of {alg} are not t = 1..{horizon}")
            continue
        for metric in TRACE_METRICS:
            columns = np.stack([trace[metric] for trace in group], axis=1)
            mean = np.array([math.fsum(row) for row in columns]) / len(group)
            std = np.sqrt(np.array([math.fsum(row) for row in (columns - mean[:, None]) ** 2]) / len(group))
            scale = 1e-9 * (1.0 + np.abs(columns).max())
            for name, ours, theirs in (("mean", mean, summary[(alg, metric)][0]),
                                       ("std", std, summary[(alg, metric)][1])):
                off = np.abs(ours - theirs)
                if not (off <= scale).all():
                    t = int(np.nanargmax(np.where(np.isnan(off), np.inf, off))) + 1
                    faults.append(f"summary: {alg} {metric}_{name} at t={t} is {float(theirs[t - 1])!r}, "
                                  f"the traces give {float(ours[t - 1])!r}")
    return faults


def check_experiment(out_dir: str, trials: int, horizon: int, algorithms,
                     compare_doc: dict, report_doc: dict, compare_summary: bytes,
                     regenerate) -> list[str]:
    """All outputs of `compare` followed by `report` into a fresh directory.

    `regenerate(seed)` rebuilds the problem document of a trial from its
    seed in the manifest, so that each certified optimum can be checked
    against the instance it claims to solve.
    """
    faults = []
    for name, doc in (("compare", compare_doc), ("report", report_doc)):
        if doc.get("trials") != trials:
            faults.append(f"{name} reports {doc.get('trials')} trials, configured {trials}")
    if report_doc.get("algorithms") != list(algorithms):
        faults.append(f"report lists algorithms {report_doc.get('algorithms')}")
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    metas = manifest["trials"]
    if [meta["trial_id"] for meta in metas] != list(range(trials)):
        faults.append(f"manifest lists {len(metas)} trials, configured {trials}")

    trace_dir = os.path.join(out_dir, "traces")
    expected = {(i, alg): f"trial_{i:04d}_{alg}.csv" for i in range(trials) for alg in algorithms}
    if sorted(os.listdir(trace_dir)) != sorted(expected.values()):
        faults.append(f"{len(os.listdir(trace_dir))} trace files, expected {len(expected)}")
    by_id = {meta["trial_id"]: meta for meta in metas}
    traces = {}
    for (trial_id, alg), name in expected.items():
        path = os.path.join(trace_dir, name)
        if not os.path.exists(path):
            continue
        trace = read_trace(path)
        if trace["trial_ids"] != {str(trial_id)} or trace["algorithms"] != {alg}:
            faults.append(f"{name}: rows name another trial or algorithm")
        if not np.array_equal(trace["t"], np.arange(1, horizon + 1)):
            faults.append(f"{name}: rows are not t = 1..{horizon}")
            continue
        traces[(trial_id, alg)] = trace
        if alg == "SDGM" and trial_id in by_id:
            faults += check_sdgm_trace(trace, by_id[trial_id], f"trial {trial_id} SDGM")

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "rb") as fh:
        if fh.read() != compare_summary:
            faults.append("report's summary.csv differs from the one compare wrote")
    if not faults:
        faults += check_summary(read_summary(summary_path), traces, algorithms, horizon)

    # The cache is cold, so it holds exactly one certified optimum per trial.
    cache_dir = os.path.join(out_dir, "oracle_cache")
    cached = {}
    for name in os.listdir(cache_dir):
        with open(os.path.join(cache_dir, name)) as fh:
            solution = json.load(fh)
        cached[solution["f_star"]] = solution
    if len(cached) != trials:
        faults.append(f"oracle cache holds {len(cached)} optima for {trials} trials")
    for meta in metas:
        label = f"trial {meta['trial_id']} optimum"
        problem = problem_arrays(regenerate(meta["seed"]))
        if problem["a"].shape != (meta["m"], meta["n"]):
            faults.append(f"{label}: seed {meta['seed']} does not give an {meta['m']}x{meta['n']} network")
        elif meta["f_star"] not in cached:
            faults.append(f"{label}: f_star {meta['f_star']!r} is not in the oracle cache")
        else:
            faults += check_optimum(problem, cached[meta["f_star"]], label)
    return faults
