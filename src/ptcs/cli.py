"""Command-line front end.

Usage:
    pt-cs spectrum      --kappa 2 --kappap 2 --dim 8
    pt-cs state         --kappa 2 --kappap 2 --zeta-re 0.5
    pt-cs state         --kappa 2 --kappap 2 --z-re 1.5 --lambda-re 1
    pt-cs wavefunction  --kappa 2 --kappap 2 --z-re 1.5 --t 0.7 --autocorr
    pt-cs uncertainty   --kappa 2 --kappap 2 --z-re 2
    pt-cs verify        --kappa 2 --kappap 2 --suite all

Label selection: --zeta-re/--zeta-im pick the displacement-orbit family
(disc coordinate, |zeta| < 1); --z-re/--z-im pick the
lowering-eigenstate family, and adding --lambda-re/--lambda-im turns the
same z into a minimum-uncertainty label.

Output goes to stdout, or to --out PATH; the PT_CS_OUT_DIR environment
variable overrides the output directory.  CSV starts with one
'#'-prefixed metadata line echoing the applied settings (verify has no
dim: its checks use fixed budgets); JSON mirrors it under "meta".
Floats are printed with 17 significant digits, so identical runs produce
byte-identical files.

The verify command accepts repeated --tol NAME=VALUE flags to override
individual check tolerances (a pass/fail gate change, nothing numeric).

Exit codes: 0 success, 1 numeric failure (a verification check failed),
2 usage error, 3 success with an under-truncation warning.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .operators import PotentialParams, energy, g_value, variance_pair
from .position import gauss_legendre_grid, grid_inner_product, wavefunction
from .states import (
    GKLabel,
    ISLabel,
    KPLabel,
    evolve_coefficients,
    gk_coefficients,
    gk_mean_g,
    is_coefficients,
    kp_coefficients,
)
from .verify import run_suite

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2
EXIT_WARN = 3


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed invocation; round-trips through as_dict/from_dict."""

    command: str
    kappa: float
    kappap: float
    a: float = 1.0
    alpha: float = 0.0
    dim: int = 120
    grid: int = 400
    output_format: str = "csv"
    out: str | None = None
    zeta_re: float | None = None
    zeta_im: float | None = None
    z_re: float | None = None
    z_im: float | None = None
    lambda_re: float | None = None
    lambda_im: float | None = None
    t: float = 0.0
    autocorr: bool = False
    suite: tuple = field(default_factory=tuple)
    tolerances: tuple = field(default_factory=tuple)  # (check_name, value) pairs

    def as_dict(self):
        d = asdict(self)
        d["suite"] = list(self.suite)
        d["tolerances"] = [list(pair) for pair in self.tolerances]
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["suite"] = tuple(d.get("suite", ()))
        d["tolerances"] = tuple(
            (name, float(val)) for name, val in d.get("tolerances", ())
        )
        return cls(**d)

    def params(self):
        return PotentialParams(
            kappa=self.kappa, kappap=self.kappap, a=self.a, alpha=self.alpha
        )

    def label(self):
        """Coherent-state label implied by the flags, or None."""
        has_zeta = self.zeta_re is not None or self.zeta_im is not None
        has_z = self.z_re is not None or self.z_im is not None
        has_lambda = self.lambda_re is not None or self.lambda_im is not None
        if has_zeta and has_z:
            raise ValueError("give either --zeta-re/--zeta-im or --z-re/--z-im, not both")
        if has_lambda and not has_z:
            raise ValueError("--lambda-re/--lambda-im require --z-re/--z-im")
        if has_zeta:
            zeta = complex(self.zeta_re or 0.0, self.zeta_im or 0.0)
            return KPLabel(zeta=zeta, alpha=self.alpha)
        if has_z:
            z = complex(self.z_re or 0.0, self.z_im or 0.0)
            if has_lambda:
                lam = complex(self.lambda_re or 0.0, self.lambda_im or 0.0)
                return ISLabel(z=z, lam=lam, alpha=self.alpha)
            return GKLabel(z=z, alpha=self.alpha)
        return None


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _json_safe(v):
    # strict JSON has no Infinity/NaN tokens; stringify non-finite floats
    if isinstance(v, float) and not math.isfinite(v):
        return _fmt(v)
    return v


def _emit(config, meta, columns, rows):
    """Serialize one table deterministically and write it out."""
    meta = dict(sorted(meta.items()))
    if config.output_format == "json":
        payload = {
            "meta": {k: _json_safe(v) for k, v in meta.items()},
            "columns": list(columns),
            "rows": [[_json_safe(v) for v in r] for r in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"
    else:
        head = "# " + " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())
        lines = [head, ",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if config.out is None:
        sys.stdout.write(text)
        return
    path = Path(config.out)
    env_dir = os.environ.get("PT_CS_OUT_DIR")
    if env_dir:
        path = Path(env_dir) / path.name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _base_meta(config):
    return {
        "kappa": config.kappa,
        "kappap": config.kappap,
        "a": config.a,
        "alpha": config.alpha,
        "dim": config.dim,
    }


def _build_state(config):
    label = config.label()
    if label is None:
        raise ValueError(
            "this command needs a state label "
            "(--zeta-re/--zeta-im, or --z-re/--z-im [--lambda-re/--lambda-im])"
        )
    params = config.params()
    if isinstance(label, KPLabel):
        state = kp_coefficients(params, label, config.dim)
        family = "kp"
    elif isinstance(label, ISLabel):
        state = is_coefficients(params, label, config.dim)
        family = "is"
    else:
        state = gk_coefficients(params, label, config.dim)
        family = "gk"
    return label, state, family


def cmd_spectrum(config):
    params = config.params()
    levels = np.arange(config.dim)
    rows = list(zip(range(config.dim), energy(params, levels).tolist(), g_value(params, levels).tolist()))
    _emit(config, _base_meta(config), ("n", "e_n", "g_n"), rows)
    return EXIT_OK


def cmd_state(config):
    label, state, family = _build_state(config)
    meta = _base_meta(config)
    meta.update(
        family=family,
        tail_bound=state.tail_bound,
        norm_deficit=state.norm_deficit(),
    )
    rows = [
        (n, c.real, c.imag, abs(c) ** 2)
        for n, c in enumerate(state.coeffs)
    ]
    _emit(config, meta, ("n", "re_c", "im_c", "abs2_c"), rows)
    return EXIT_WARN if state.under_truncated else EXIT_OK


def cmd_wavefunction(config):
    label, state, family = _build_state(config)
    params = config.params()
    grid = gauss_legendre_grid(params, config.grid)
    psi0 = wavefunction(params, state, grid)
    evolved = evolve_coefficients(state, config.t)
    psi = wavefunction(params, evolved, grid)
    density_integral = grid_inner_product(grid, psi, psi).real
    meta = _base_meta(config)
    meta.update(
        family=family,
        t=config.t,
        grid=config.grid,
        tail_bound=state.tail_bound,
        density_integral=density_integral,
    )
    if state.under_truncated:
        meta["warning"] = "under-truncated"
    columns = ["x", "re_psi", "im_psi", "abs2_psi"]
    cols = [grid.nodes, psi.real, psi.imag, np.abs(psi) ** 2]
    if config.autocorr:
        auto = abs(grid_inner_product(grid, psi0, psi))
        meta["autocorr_abs"] = auto
        columns.append("autocorr_abs")
        cols.append(np.full(grid.nodes.size, auto))
    rows = list(zip(*[list(map(float, c)) for c in cols]))
    _emit(config, meta, columns, rows)
    return EXIT_WARN if state.under_truncated else EXIT_OK


def cmd_uncertainty(config):
    label, state, family = _build_state(config)
    v = variance_pair(state)
    rs_residual = v["dW2"] * v["dP2"] - 0.25 * (v["meanG"] ** 2 + v["meanF"] ** 2)
    meta = _base_meta(config)
    meta.update(family=family, tail_bound=state.tail_bound)
    columns = ["dW2", "dP2", "meanG", "meanF", "rs_residual"]
    row = [v["dW2"], v["dP2"], v["meanG"], v["meanF"], rs_residual]
    if family == "gk":
        closed = gk_mean_g(config.params(), abs(complex(config.z_re or 0.0, config.z_im or 0.0)))
        columns.extend(["meanG_closed", "meanG_closed_dev"])
        row.extend([closed, abs(closed - v["meanG"])])
    _emit(config, meta, columns, [tuple(row)])
    return EXIT_WARN if state.under_truncated else EXIT_OK


def cmd_verify(config):
    params = config.params()
    names = None
    if config.suite and "all" not in config.suite:
        names = list(config.suite)
    reports = run_suite(params, names)
    overrides = dict(config.tolerances)
    unknown = set(overrides) - {r.check_name for r in reports}
    if unknown:
        raise ValueError(
            f"tolerance override(s) for checks not in this run: {sorted(unknown)}"
        )
    reports = [
        dataclasses.replace(r, tolerance=overrides[r.check_name])
        if r.check_name in overrides
        else r
        for r in reports
    ]
    meta = _base_meta(config)
    del meta["dim"]  # the checks run at their own fixed budgets
    meta["checks"] = len(reports)
    columns = ("check_name", "max_deviation", "tolerance", "passed", "details")
    rows = []
    for r in reports:
        detail_text = ";".join(
            f"{k}={_fmt(v)}" for k, v in sorted(r.details.items())
        )
        rows.append((r.check_name, r.max_deviation, r.tolerance, r.passed, detail_text))
    _emit(config, meta, columns, rows)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NUMERIC


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "state": cmd_state,
    "wavefunction": cmd_wavefunction,
    "uncertainty": cmd_uncertainty,
    "verify": cmd_verify,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pt-cs",
        description="Coherent states of the trigonometric Poschl-Teller well.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--kappa", type=float, required=True, help="well strength, > 1")
        p.add_argument("--kappap", type=float, required=True, help="well strength, > 1")
        p.add_argument("--a", type=float, default=1.0, help="half-width scale, > 0")
        p.add_argument("--alpha", type=float, default=0.0, help="ladder phase parameter")
        p.add_argument("--dim", type=int, default=120, help="truncation dimension")
        p.add_argument("--grid", type=int, default=400, help="position grid size")
        p.add_argument("--format", choices=("json", "csv"), default="csv")
        p.add_argument("--out", default=None, help="output path (PT_CS_OUT_DIR overrides the directory)")
        p.add_argument("--zeta-re", type=float, default=None)
        p.add_argument("--zeta-im", type=float, default=None)
        p.add_argument("--z-re", type=float, default=None)
        p.add_argument("--z-im", type=float, default=None)
        p.add_argument("--lambda-re", type=float, default=None)
        p.add_argument("--lambda-im", type=float, default=None)
        p.add_argument("--t", type=float, default=0.0, help="evolution time")
        p.add_argument("--autocorr", action="store_true",
                       help="add the |<Psi(0)|Psi(t)>| column (wavefunction)")
        p.add_argument("--suite", default="all",
                       help="comma-separated check names, or 'all' (verify)")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="override one check's tolerance (verify; repeatable)")
    return parser


def _parse_tolerance(spec):
    name, sep, value = spec.partition("=")
    if not sep or not name:
        raise ValueError(f"tolerance override must look like NAME=VALUE, got {spec!r}")
    return name, float(value)


def config_from_args(args):
    return RunConfig(
        command=args.command,
        kappa=args.kappa,
        kappap=args.kappap,
        a=args.a,
        alpha=args.alpha,
        dim=args.dim,
        grid=args.grid,
        output_format=args.format,
        out=args.out,
        zeta_re=args.zeta_re,
        zeta_im=args.zeta_im,
        z_re=args.z_re,
        z_im=args.z_im,
        lambda_re=args.lambda_re,
        lambda_im=args.lambda_im,
        t=args.t,
        autocorr=args.autocorr,
        suite=tuple(s for s in args.suite.split(",") if s),
        tolerances=tuple(_parse_tolerance(spec) for spec in args.tol),
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if config.dim < 1:
            raise ValueError(f"--dim must be >= 1, got {config.dim}")
        config.params()  # validate bounds before doing any work
        config.label()  # validates the label flags too
        return _COMMANDS[config.command](config)
    except (ValueError, KeyError) as exc:
        print(f"pt-cs: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # ConvergenceError included
        print(f"pt-cs: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
