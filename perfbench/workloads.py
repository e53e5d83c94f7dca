"""The CLI call sequence of each workload and the check of every call's output.

A workload is a list of ``Op``s run in order; one run of the list is a
pass.  Each op names the end-to-end latency metric it counts toward, the
``bayesfuse`` argv, and a check.  Checks recompute the expected answer in
numpy from the generated masses or from the files the previous calls wrote,
never through the package under test, so they stay independent of the
formulas being measured.  A check returns ``None`` when the output is right
and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

RTOL = 1e-12
MASS_TOL = 1e-9
SMOOTH_TOL = 1e-9
# normalize() makes discrete masses sum to exactly 1.0 by pushing the float
# residual of the sum, a few ulps of 1.0, onto the largest atom.
UNIT_SUM_SLACK = 8 * np.finfo(float).eps


@dataclass
class Op:
    label: str
    metric: str
    argv: list[str]
    check: Callable[[int, dict, dict], str | None]


@dataclass
class Workload:
    case: inputs.Case
    ops: list[Op]


def parse_report(text: str) -> dict[str, str]:
    """The ``key = value`` lines of a text report, values left as text."""
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            report[key] = value
    return report


def run_check(op: Op, rc: int, report: dict, seen: dict) -> str | None:
    """``op.check``, with a check that cannot read the output counted as failed."""
    try:
        return op.check(rc, report, seen)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"output unreadable: {exc!r}"


def _expect_ok(rc: int) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


def _rel_close(got: float, want: float, rtol: float = RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _masses_close(
    got: np.ndarray, want: np.ndarray, discrete: bool, atol: float = 0.0
) -> str | None:
    if got.shape != want.shape:
        return f"{got.size} masses, expected {want.size}"
    err = np.abs(got - want)
    bad = np.flatnonzero(err > RTOL * np.abs(want) + atol)
    if (
        discrete
        and bad.size == 1
        and bad[0] == int(np.argmax(got))
        and err[bad[0]] <= UNIT_SUM_SLACK
    ):
        return None
    if bad.size:
        i = int(bad[0])
        return f"{bad.size} masses off, first at index {i}: {float(got[i])!r} vs {float(want[i])!r}"
    return None


def _read_payload(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def discrete_posterior_error(path: Path, keys: list[str], want: np.ndarray) -> str | None:
    """Check a written discrete posterior against expected keys and masses."""
    payload = _read_payload(path)
    if payload.get("kind") != "discrete":
        return f"posterior kind {payload.get('kind')!r}"
    got_keys = [k for k, _ in payload["atoms"]]
    if got_keys != keys:
        return "posterior keys differ from the joint support"
    got = np.array([m for _, m in payload["atoms"]], dtype=float)
    if abs(math.fsum(got) - 1.0) > MASS_TOL:
        return f"posterior mass {math.fsum(got)!r}"
    return _masses_close(got, want, discrete=True)


def grid_error(
    path: Path, spec: inputs.GridSpec, want: np.ndarray | None, atol: float = 0.0
) -> str | None:
    """Check a written grid: same grid, unit mass, and densities if given."""
    payload = _read_payload(path)
    if payload.get("kind") != "grid":
        return f"grid kind {payload.get('kind')!r}"
    got = np.array(payload["densities"], dtype=float)
    if payload["origin"] != spec.origin or payload["delta"] != spec.delta or got.size != spec.cells:
        return "grid differs from the shared grid"
    total = spec.delta * math.fsum(got)
    if abs(total - 1.0) > MASS_TOL:
        return f"grid mass {total!r}"
    if want is None:
        return None
    return _masses_close(got, want, discrete=False, atol=atol)


# ----------------------------------------------------------------- expectations


def joint(a: inputs.DiscreteFile, b: inputs.DiscreteFile):
    """Canonical keys on both sides, with each side's masses there."""
    index_b = {k: j for j, k in enumerate(b.keys)}
    ia, ib = [], []
    for i, k in enumerate(a.keys):
        j = index_b.get(k)
        if j is not None:
            ia.append(i)
            ib.append(j)
    return [a.keys[i] for i in ia], a.masses[ia], b.masses[ib]


def _product(u: np.ndarray, v: np.ndarray, b: float = 1.0) -> np.ndarray:
    w = u * v**b
    return w / math.fsum(w)


def normal_densities(f: inputs.NormalFile) -> np.ndarray:
    """The family file rasterized as the format specifies: midpoint pdf, renormalized."""
    g = f.grid
    x = g.origin + (np.arange(g.cells) + 0.5) * g.delta
    z = (x - f.mean) / f.sd
    pdf = np.exp(-0.5 * z * z) / (f.sd * math.sqrt(2.0 * math.pi))
    return pdf / (g.delta * math.fsum(pdf))


def smoothed_densities(f: inputs.DiscreteFile, epsilon: float, spec: inputs.GridSpec) -> np.ndarray:
    """Cell averages of the atoms convolved with uniform(-epsilon, epsilon)."""
    theta = np.array([float(k) for k in f.keys])
    edges = spec.origin + np.arange(spec.cells + 1) * spec.delta
    t = (edges[None, :] - (theta[:, None] - epsilon)) / (2.0 * epsilon)
    cdf = (f.masses[:, None] * np.clip(t, 0.0, 1.0)).sum(axis=0)
    return np.maximum(np.diff(cdf) / spec.delta, 0.0)


# -------------------------------------------------------------------- checks


def _check_compat(overlap: float):
    def check(rc, report, _seen):
        if rc:
            return _expect_ok(rc)
        if report.get("compatible") != "true":
            return "pair reported incompatible"
        if not _rel_close(float(report["overlap_mass"]), overlap):
            return f"overlap {report['overlap_mass']} vs {overlap!r}"
        return None

    return check


def _check_discrete_posterior(path: Path, keys: list[str], want: np.ndarray):
    def check(rc, _report, _seen):
        return _expect_ok(rc) or discrete_posterior_error(path, keys, want)

    return check


def _check_loss(bound: float, attained: bool, value: float | None = None):
    """Singleton loss: the lower bound, and ``value`` (the bound when attained)."""
    want = bound if value is None else value

    def check(rc, report, _seen):
        if rc:
            return _expect_ok(rc)
        if not _rel_close(float(report["lower_bound_bits"]), bound):
            return f"lower bound {report['lower_bound_bits']} vs {bound!r}"
        if not _rel_close(float(report["value_bits"]), want):
            return f"loss {report['value_bits']} vs {want!r}"
        if report.get("attained") != ("true" if attained else "false"):
            return f"attained = {report.get('attained')}"
        return None

    return check


def _check_ratios(ratio: float):
    def check(rc, report, _seen):
        if rc:
            return _expect_ok(rc)
        ratios = np.array([float(v) for k, v in report.items() if k.startswith("ratio_")])
        if ratios.size == 0:
            return "no ratios reported"
        if not np.all(np.abs(ratios - ratio) <= MASS_TOL * ratio):
            return "ratios are not the reciprocal overlap"
        if float(report["spread"]) > MASS_TOL * ratio:
            return f"spread {report['spread']}"
        return None

    return check


def _check_verify(points: int):
    def check(rc, report, _seen):
        if rc:
            return _expect_ok(rc)
        if report.get("pass") != "true":
            return "verify did not pass"
        if int(report["evaluated_count"]) != points:
            return f"evaluated {report['evaluated_count']} points, expected {points}"
        return None

    return check


def _check_exhaustive(singleton_label: str):
    def check(rc, report, seen):
        if rc:
            return _expect_ok(rc)
        singleton = seen.get(singleton_label)
        if singleton is None:
            return "no singleton loss to compare with"
        got, want = float(report["value_bits"]), float(singleton["value_bits"])
        if abs(got - want) > RTOL * max(1.0, abs(want)):
            return f"exhaustive {got!r} vs singleton {want!r}"
        return None

    return check


def _check_grid(path: Path, spec: inputs.GridSpec, want: np.ndarray, atol: float = 0.0):
    def check(rc, _report, _seen):
        return _expect_ok(rc) or grid_error(path, spec, want, atol)

    return check


# ----------------------------------------------------------------- workloads


def _s(*parts) -> list[str]:
    return [str(p) for p in parts]


def _discrete_pair_ops(
    prior: inputs.DiscreteFile, like: inputs.DiscreteFile, workdir: Path, tag: str
) -> list[Op]:
    """compat, the product and weighted posteriors, then loss and mlr on the
    written product-rule posterior, for one discrete pair."""
    keys, u, v = joint(prior, like)
    overlap = math.fsum(u * v)
    post, wpost = workdir / f"{tag}_post.json", workdir / f"{tag}_wpost.json"
    pair = _s(prior.path, like.path)
    return [
        Op(f"{tag}.compat", "compat_s", ["compat", *pair], _check_compat(overlap)),
        Op(f"{tag}.posterior", "posterior_s", _s("posterior", *pair, "--out", post),
           _check_discrete_posterior(post, keys, _product(u, v))),
        Op(f"{tag}.posterior_weighted", "posterior_weighted_s",
           _s("posterior", *pair, "--w0", 2, "--wL", 1, "--out", wpost),
           _check_discrete_posterior(wpost, keys, _product(u, v, 0.5))),
        Op(f"{tag}.loss", "loss_s", _s("loss", post, *pair), _check_loss(-math.log2(overlap), True)),
        Op(f"{tag}.mlr", "mlr_s", _s("mlr", post, *pair), _check_ratios(1.0 / overlap)),
    ]


def verify_workload(case: inputs.Case, workdir: Path) -> Workload:
    # The small calls run on both pairs, so that each latency gets two or
    # three samples a pass; alone they would be too short to steady.
    f = case.files
    eu, ev, eq = f["exh_prior"].masses, f["exh_likelihood"].masses, f["exh_candidate"].masses
    bound = -math.log2(math.fsum(eu * ev))
    singleton = float(np.max(np.log2(eq) - np.log2(eu) - np.log2(ev)))
    K = case.sizes["K"]
    points = case.sizes["grid_points"]
    pair = _s(f["prior"].path, f["likelihood"].path)
    candidate = _s(f["exh_candidate"].path, f["exh_prior"].path, f["exh_likelihood"].path)

    def verify(objective, *weights):
        return Op(f"verify.{objective}", "verify_s",
                  _s("verify", *pair, "--objective", objective, *weights, "--K", K),
                  _check_verify(points))

    ops = [
        *_discrete_pair_ops(f["prior"], f["likelihood"], workdir, "small"),
        verify("shannon"),
        *_discrete_pair_ops(f["exh_prior"], f["exh_likelihood"], workdir, "exh"),
        verify("weighted", "--w0", 2, "--wL", 1),
        Op("candidate.loss", "loss_s", ["loss", *candidate], _check_loss(bound, False, singleton)),
        Op("candidate.loss_exhaustive", "loss_exhaustive_s", ["loss", *candidate, "--exhaustive"],
           _check_exhaustive("candidate.loss")),
        verify("mlr"),
    ]
    return Workload(case, ops)


def conflate_workload(case: inputs.Case, workdir: Path) -> Workload:
    f = case.files
    return Workload(case, _discrete_pair_ops(f["prior"], f["likelihood"], workdir, "pair"))


def _grid_pair_ops(
    prior: Path, like: Path, spec: inputs.GridSpec, densities, workdir: Path, tag: str
) -> list[Op]:
    """The same five calls for a pair of grids on ``spec``.  ``densities()``
    gives the pair's expected densities when a check runs, since some
    pairs are files that earlier calls of the pass wrote."""
    post, wpost = workdir / f"{tag}_post.json", workdir / f"{tag}_wpost.json"
    pair = _s(prior, like)

    def expect(make_check):
        def check(rc, report, seen):
            return make_check(*densities())(rc, report, seen)

        return check

    def overlap(f0, fl):
        return spec.delta * math.fsum(f0 * fl)

    def normalized(w):
        return w / (spec.delta * math.fsum(w))

    def cell_bound(f0, fl):
        return -math.log2(math.fsum((spec.delta * f0) * (spec.delta * fl)))

    return [
        Op(f"{tag}.compat", "compat_s", ["compat", *pair],
           expect(lambda f0, fl: _check_compat(overlap(f0, fl)))),
        Op(f"{tag}.posterior", "posterior_s", _s("posterior", *pair, "--out", post),
           expect(lambda f0, fl: _check_grid(post, spec, normalized(f0 * fl)))),
        Op(f"{tag}.posterior_weighted", "posterior_weighted_s",
           _s("posterior", *pair, "--w0", 2, "--wL", 1, "--out", wpost),
           expect(lambda f0, fl: _check_grid(wpost, spec, normalized(f0 * fl**0.5)))),
        Op(f"{tag}.loss", "loss_s", _s("loss", post, *pair),
           expect(lambda f0, fl: _check_loss(cell_bound(f0, fl), True))),
        Op(f"{tag}.mlr", "mlr_s", _s("mlr", post, *pair),
           expect(lambda f0, fl: _check_ratios(1.0 / overlap(f0, fl)))),
    ]


def grid_workload(case: inputs.Case, workdir: Path) -> Workload:
    # Every call but smooth runs on both the gridded normals and the
    # smoothed pair, so that each latency gets two samples a pass.
    f = case.files
    prior, like = f["prior"], f["likelihood"]
    normals = normal_densities(prior), normal_densities(like)
    spec = f["smooth_grid"]
    eps = inputs.SMOOTH_EPSILON
    sa, sb = workdir / "s_a_smooth.json", workdir / "s_b_smooth.json"
    smooth_args = _s("--epsilon", eps, "--delta", spec.delta, "--origin", spec.origin, "--cells", spec.cells)

    def smoothed():
        return tuple(np.array(_read_payload(p)["densities"], dtype=float) for p in (sa, sb))

    ops = [
        *_grid_pair_ops(prior.path, like.path, prior.grid, lambda: normals, workdir, "normal"),
        Op("smooth_a", "smooth_s", _s("smooth", f["smooth_a"].path, *smooth_args, "--out", sa),
           _check_grid(sa, spec, smoothed_densities(f["smooth_a"], eps, spec), SMOOTH_TOL)),
        Op("smooth_b", "smooth_s", _s("smooth", f["smooth_b"].path, *smooth_args, "--out", sb),
           _check_grid(sb, spec, smoothed_densities(f["smooth_b"], eps, spec), SMOOTH_TOL)),
        *_grid_pair_ops(sa, sb, spec, smoothed, workdir, "smoothed"),
    ]
    return Workload(case, ops)


_SEQUENCES = {
    "verify": verify_workload,
    "conflate-discrete": conflate_workload,
    "grid-smooth": grid_workload,
}


def build(name: str, workdir: Path, seed: int, smoke: bool = False) -> Workload:
    case = inputs.MAKERS[name](workdir, seed, smoke)
    return _SEQUENCES[name](case, workdir)
