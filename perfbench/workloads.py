"""The four closed-loop workloads.

Each workload generates its inputs from the seed in blocks (one
``numpy.random.Generator`` per block, keyed by ``[seed, tag, block]``), so
input ``i`` is the same however far a run gets.  Draws are balanced inside
a block (stratified ranges, every family or subcommand equally often), so
runs with different seeds see the same mix of work.  No draw is ever
filtered or redrawn after a failure.

Interface used by ``run.py``:

* ``prepare()`` rebuilds the static inputs; ``warm_up()`` runs a fixed
  operation.  Both count towards set-up time.
* ``input(i)``, ``op(inp)``: one operation through the public API.
* ``traced_op(inp, tracer)``: the same operation with spans recorded,
  returning ``(output, [OpProfile])``.
* ``check(inp, out)`` -> ``Outcome``; ``digest(out)`` -> bytes that must
  match between the traced and the untraced run.
"""

import cmath
import hashlib
import json
import math
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from tracer import OpProfile

# an output value must match its identity to this relative accuracy
IDENTITY_TOL = 1e-8

# Two known program defects fail operations outside these ranges; the draws
# stop short of them because every operation of a run must pass.
# * On the float path, cn-triple-agreement's deviation grows with
#   s = kappa + kappa': 2.6e-11 at s = 6, 8.8e-11 at 7.5, over its 1e-10
#   gate from s = 7.6.  Float strengths stay at or below 3, so s <= 6.
FLOAT_KAPPA_MAX = 3.0
# * The `is` tail bound uses a one-step ratio although the recursion decays
#   in parity pairs, so for Re(lambda) below about 0.2 a state that is
#   under-truncated at dim 120 is not flagged and misses saturation (up to
#   3e-6 relative).  From Re(lambda) = 0.3 the residual is at most 5e-13.
#   At dim 2000 the truncated mass is below 1e-99 either way.
IS_RE_LAMBDA_MIN_DIM120 = 0.3


@dataclass(frozen=True)
class Outcome:
    ok: bool
    flagged: bool = False  # the state reported under-truncation
    checks_failed: int = 0  # verify checks that did not pass
    why: str = ""


def _block_rng(seed, tag, block):
    return np.random.default_rng([seed, tag, block])


def _strata(rng, m):
    """m draws in [0, 1), one in each of m equal strata, in random order."""
    return (rng.permutation(m) + rng.uniform(size=m)) / m


def _disc(rng, radius):
    return cmath.rect(float(rng.uniform(0.0, radius)), float(rng.uniform(0.0, 2.0 * math.pi)))


def _all_finite(*values):
    return all(bool(np.all(np.isfinite(v))) for v in values)


class _Blocks:
    """Inputs generated block by block; only the current block is kept.

    ``tail_pct`` is the percentile reported as ``op_tail_ms``: the highest
    of p60, p75, p90 and p95 with at least 10 samples beyond it at the op
    count of a 25-second run at the seed commit.  It is fixed, not derived
    from each run's op count, so that a faster commit is not judged at a
    higher percentile than its parent.
    """

    def __init__(self, seed):
        self.seed = seed
        self._cached = (None, None)

    def input(self, i):
        b, j = divmod(i, self.block)
        if self._cached[0] != b:
            self._cached = (b, self.make_block(_block_rng(self.seed, self.tag, b)))
        return self._cached[1][j]

    def prepare(self):
        self._cached = (None, None)
        self.input(0)

    def traced_op(self, inp, tracer):
        tracer.begin_op()
        try:
            out = self.op(inp)
        finally:
            profile = tracer.end_op()
        return out, [profile]


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


class VerifySuite(_Blocks):
    """run_suite(params) with all ten checks at fresh (kappa, kappa', alpha)."""

    name = "verify-suite"
    tag = 1
    # one exact-rational and one float draw per block: the integer-s suite
    # takes about 1.35 times as long, so the run must hold both equally
    block = 2
    tail_pct = 60  # 20-34 ops per run
    in_process = True
    must_call = (
        "specfun.bessel_k", "specfun.bessel_i", "specfun.log_gamma",
        "specfun.jacobi_fn_ss", "operators.build_matrices",
        "states.kp_coefficients", "states.gk_coefficients",
        "states.gk_annihilation_residual", "states.evolve_coefficients",
        "verify.run_suite", "verify.pi_table", "verify.cn_series",
        "verify.gk_moment_oracle", "verify.taylor_expm_apply",
    )
    must_not_call = (
        "position.eigenfunction_table", "position.gauss_legendre_grid",
        "operators.variance_pair", "states.is_coefficients",
    )

    def __init__(self, ptcs, seed):
        super().__init__(seed)
        self.ptcs = ptcs

    def make_block(self, rng):
        uk, ukp, ua = (_strata(rng, self.block) for _ in range(3))
        out = []
        for j in range(self.block):
            if j % 2 == 0:
                # integer strengths in [1.1, 4]: s is an integer, so the
                # exact-rational pi_table / cn_series path runs
                kappa = 2.0 + math.floor(3.0 * uk[j])
                kappap = 2.0 + math.floor(3.0 * ukp[j])
            else:
                kappa = 1.1 + (FLOAT_KAPPA_MAX - 1.1) * float(uk[j])
                kappap = 1.1 + (FLOAT_KAPPA_MAX - 1.1) * float(ukp[j])
            out.append(self.ptcs.PotentialParams(kappa=kappa, kappap=kappap, alpha=float(ua[j])))
        return out

    def warm_up(self):
        cheap = ["pi-recursion", "kp-identity", "kp-reconstruction", "gk-action", "temporal-stability"]
        self.ptcs.run_suite(self.ptcs.PotentialParams(kappa=2.0, kappap=2.0), cheap)

    def op(self, params):
        return self.ptcs.run_suite(params)

    def traced_op(self, params, tracer):
        # verify._SUITE holds the check functions captured at import, so
        # per-check spans come from one run_suite call per name
        tracer.begin_op()
        try:
            out = [r for name in self.ptcs.SUITE_NAMES for r in self.ptcs.run_suite(params, [name])]
        finally:
            profile = tracer.end_op()
        return out, [profile]

    def check(self, params, reports):
        names = tuple(r.check_name for r in reports)
        if names != tuple(self.ptcs.SUITE_NAMES):
            return Outcome(False, why=f"checks run: {names}")
        bad = [r.check_name for r in reports if not math.isfinite(r.max_deviation)]
        if bad:
            return Outcome(False, why=f"non-finite max_deviation in {bad}")
        failed = [r.check_name for r in reports if not r.passed]
        if failed:
            return Outcome(False, checks_failed=len(failed), why=f"failed checks {failed} at {params}")
        return Outcome(True)

    def digest(self, reports):
        return repr([r.as_dict() for r in reports]).encode()

    def builds_state(self, params):
        return False


# ---------------------------------------------------------------------------
# states-dim120 / states-dim2000
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatesInput:
    params: object
    family: str
    label: object
    t: float


@dataclass(frozen=True)
class StatesOutput:
    state: object
    variances: dict
    psi0: np.ndarray
    psit: np.ndarray
    autocorr: float


class StatesPipeline(_Blocks):
    """Build a state, take its variances, evolve it, synthesise it twice."""

    block = 6  # one (kappa, kappa', alpha) per block; two labels per family
    in_process = True
    must_call = (
        "states.kp_coefficients", "states.gk_coefficients", "states.is_coefficients",
        "states.evolve_coefficients", "operators.variance_pair",
        "operators.build_matrices", "position.wavefunction",
        "position.eigenfunction_table", "position.norm_constant",
        "position.grid_inner_product", "specfun.jacobi_poly_all",
        "specfun.log_gamma", "specfun.bessel_i",
    )
    must_not_call = (
        "specfun.bessel_k", "verify.run_suite", "verify.pi_table",
        "position.gauss_legendre_grid",
    )

    def __init__(self, ptcs, seed, name, tag, tail_pct, dim, nodes, kp_radius, gk_radius, is_radius,
                 is_re_lambda_min):
        super().__init__(seed)
        self.ptcs = ptcs
        self.name = name
        self.tag = tag
        self.tail_pct = tail_pct
        self.dim = dim
        self.nodes = nodes
        self.radii = {"kp": kp_radius, "gk": gk_radius, "is": is_radius}
        self.is_re_lambda_min = is_re_lambda_min
        self.grid = None

    def prepare(self):
        # the grid depends on the well width only (a = 1 throughout)
        self.grid = self.ptcs.gauss_legendre_grid(self.ptcs.PotentialParams(2.0, 2.0), self.nodes)
        super().prepare()

    def make_block(self, rng):
        p = self.ptcs
        kappa, kappap = (float(v) for v in rng.uniform(1.1, 4.0, 2))
        alpha = float(rng.uniform(0.0, 1.0))
        params = p.PotentialParams(kappa=kappa, kappap=kappap, alpha=alpha)
        families = rng.permutation(["kp", "gk", "is"] * (self.block // 3))
        out = []
        for family in families:
            family = str(family)
            radius = self.radii[family]
            if family == "kp":
                label = p.KPLabel(zeta=_disc(rng, radius), alpha=alpha)
            elif family == "gk":
                label = p.GKLabel(z=_disc(rng, radius), alpha=alpha)
            else:
                lam = complex(rng.uniform(self.is_re_lambda_min, 3.0), rng.uniform(-1.0, 1.0))
                label = p.ISLabel(z=_disc(rng, radius), lam=lam, alpha=alpha)
            out.append(StatesInput(params, family, label, float(rng.uniform(0.1, 2.0))))
        return out

    def warm_up(self):
        p = self.ptcs
        params = p.PotentialParams(kappa=2.0, kappap=2.0)
        self.op(StatesInput(params, "gk", p.GKLabel(z=1.0 + 0.5j), 0.5))

    def op(self, inp):
        p = self.ptcs
        build = getattr(p, f"{inp.family}_coefficients")
        state = build(inp.params, inp.label, self.dim)
        variances = p.variance_pair(state)
        evolved = p.evolve_coefficients(state, inp.t)
        psi0 = p.wavefunction(state.params, state, self.grid)
        psit = p.wavefunction(evolved.params, evolved, self.grid)
        autocorr = abs(p.position.grid_inner_product(self.grid, psi0, psit))
        return StatesOutput(state, variances, psi0, psit, autocorr)

    def check(self, inp, out):
        p = self.ptcs
        state, v = out.state, out.variances
        scalars = [v["dW2"], v["dP2"], v["meanG"], v["meanF"], out.autocorr]
        if not _all_finite(state.coeffs, out.psi0, out.psit, scalars):
            return Outcome(False, why=f"non-finite output for {inp}")
        density = p.position.grid_inner_product(self.grid, out.psit, out.psit).real
        expected = 1.0 - state.norm_deficit()
        if abs(density - expected) > IDENTITY_TOL:
            return Outcome(False, why=f"density {density!r} != 1 - deficit {expected!r} for {inp}")
        if out.autocorr > 1.0 + IDENTITY_TOL:
            return Outcome(False, why=f"|autocorrelation| {out.autocorr!r} > 1 for {inp}")
        if state.under_truncated:
            return Outcome(True, flagged=True)
        if inp.family == "is":
            bound = 0.25 * (v["meanG"] ** 2 + v["meanF"] ** 2)
            if abs(v["dW2"] * v["dP2"] - bound) > IDENTITY_TOL * bound:
                return Outcome(False, why=f"uncertainty product not saturated for {inp}")
        if inp.family == "gk":
            closed = p.gk_mean_g(inp.params, abs(complex(inp.label.z)))
            if abs(v["meanG"] - closed) > IDENTITY_TOL * closed:
                return Outcome(False, why=f"<G> {v['meanG']!r} != closed form {closed!r} for {inp}")
        return Outcome(True)

    def builds_state(self, inp):
        return True

    def digest(self, out):
        h = hashlib.sha256()
        for arr in (out.state.coeffs, out.psi0, out.psit):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr((out.variances, out.autocorr, out.state.tail_bound)).encode())
        return h.digest()


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    stdout: bytes
    stderr: bytes
    extra: bytes  # what the child wrote to the extra pipe, if any
    wall_s: float
    maxrss_kb: int


def run_child(argv, cwd, env, extra_pipe=False, timeout=120.0):
    """Run one process to completion; return its output, wall time and peak RSS.

    Output pipes are drained together so no pipe can fill and stall the
    child; the child is reaped with ``wait4`` to read its own peak RSS.
    With ``extra_pipe`` the child inherits the write end of one more pipe,
    whose number replaces the argument ``"{fd}"``.
    """
    read_fd = write_fd = None
    if extra_pipe:
        read_fd, write_fd = os.pipe()
        argv = [str(write_fd) if a == "{fd}" else a for a in argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(write_fd,) if extra_pipe else (),
        )
    finally:
        if extra_pipe:
            os.close(write_fd)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    if extra_pipe:
        chunks[read_fd] = []
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = timeout - (time.perf_counter() - t0)
            if left <= 0.0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if extra_pipe:
        os.close(read_fd)
    if timed_out:
        raise TimeoutError(f"{argv[:4]} did not finish in {timeout} s")
    out, err = b"".join(chunks[out_fd]), b"".join(chunks[err_fd])
    extra = b"".join(chunks[read_fd]) if extra_pipe else b""
    return ChildRun(proc.returncode, out, err, extra, wall, usage.ru_maxrss)


def _parse_table(text, fmt):
    """(meta, columns, rows) of one pt-cs table; CSV values stay strings."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["meta"], payload["columns"], payload["rows"]
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("CSV output lacks its metadata line")
    meta = dict(item.split("=", 1) for item in lines[0][2:].split(" "))
    return meta, lines[1].split(","), [line.split(",") for line in lines[2:]]


def _close(a, b, scale=1.0):
    return abs(a - b) <= IDENTITY_TOL * max(abs(scale), 1e-300)


CHEAP_CHECKS = ("pi-recursion", "kp-identity", "kp-reconstruction", "gk-action", "temporal-stability")
SUBCOMMANDS = ("spectrum", "state", "wavefunction", "uncertainty", "verify")


@dataclass(frozen=True)
class CliInput:
    command: str
    argv: tuple
    fmt: str
    expected: dict  # what the check needs: strength sum, dim, selected checks


class CliMix(_Blocks):
    """One ``python -m ptcs.cli`` process per operation."""

    name = "cli-mix"
    tag = 4
    block = len(SUBCOMMANDS)  # every subcommand once per block
    tail_pct = 75  # 70-120 ops per run
    in_process = False
    must_call = (
        "cli.main", "position.gauss_legendre_grid", "position.wavefunction",
        "verify.run_suite", "operators.variance_pair", "operators.energy",
        "states.evolve_coefficients",
    )
    must_not_call = ("specfun.bessel_k",)

    def __init__(self, root, seed, env):
        super().__init__(seed)
        self.root = str(root)
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        self.env = env

    def make_block(self, rng):
        return [self._draw(rng, str(cmd)) for cmd in rng.permutation(SUBCOMMANDS)]

    def _draw(self, rng, cmd):
        kappa, kappap = (float(v) for v in rng.uniform(1.1, 4.0, 2))
        if cmd == "verify" and rng.uniform() < 0.5:
            kappa, kappap = (float(v) for v in rng.integers(2, 5, 2))
        alpha = float(rng.uniform(0.0, 1.0))
        fmt = str(rng.choice(["csv", "json"]))
        # --flag=value keeps argparse from reading "-1e-05" as an option
        argv = [cmd, f"--kappa={kappa!r}", f"--kappap={kappap!r}", f"--alpha={alpha!r}", f"--format={fmt}"]
        expected = {"s": kappa + kappap, "dim": 120}
        if cmd == "spectrum":
            expected["dim"] = int(rng.integers(8, 201))
        elif cmd == "uncertainty":
            expected["dim"] = int(rng.integers(120, 501))
        elif cmd == "verify":
            mask = rng.uniform(size=len(CHEAP_CHECKS)) < 0.5
            mask[int(rng.integers(len(CHEAP_CHECKS)))] = True
            expected["checks"] = [c for c, m in zip(CHEAP_CHECKS, mask) if m]
            argv.append("--suite=" + ",".join(expected["checks"]))
        if cmd in ("spectrum", "uncertainty"):
            argv.append(f"--dim={expected['dim']}")
        if cmd in ("state", "wavefunction", "uncertainty"):
            family = str(rng.choice(["kp", "gk", "is"]))
            expected["family"] = family
            if family == "kp":
                zeta = _disc(rng, 0.7)
                argv += [f"--zeta-re={zeta.real!r}", f"--zeta-im={zeta.imag!r}"]
            else:
                z = _disc(rng, 6.0 if family == "gk" else 3.0)
                argv += [f"--z-re={z.real!r}", f"--z-im={z.imag!r}"]
                if family == "is":
                    lam = complex(rng.uniform(IS_RE_LAMBDA_MIN_DIM120, 3.0), rng.uniform(-1.0, 1.0))
                    argv += [f"--lambda-re={lam.real!r}", f"--lambda-im={lam.imag!r}"]
        if cmd == "wavefunction":
            argv += [f"--t={float(rng.uniform(0.1, 2.0))!r}", "--autocorr"]
        return CliInput(cmd, tuple(argv), fmt, expected)

    def warm_up(self):
        run_child([sys.executable, "-m", "ptcs.cli", "spectrum", "--kappa=2", "--kappap=2", "--dim=8"],
                  self.root, self.env)

    def op(self, inp):
        return run_child([sys.executable, "-m", "ptcs.cli", *inp.argv], self.root, self.env)

    def traced_op(self, inp, tracer):
        run = run_child([sys.executable, self.child, "{fd}", "--", *inp.argv], self.root, self.env, extra_pipe=True)
        report = json.loads(run.extra)
        profile = OpProfile.from_json(report["profile"])
        # what the child did outside cli.main: interpreter start and exit,
        # `import ptcs`, and its own tracing code
        outside = run.wall_s - report["script_s"]
        profile.by_name.update({
            "child.interpreter": [1, outside, 0],
            "child.import": [1, report["import_s"], 0],
            "bench.child": [1, report["script_s"] - report["import_s"] - profile.op_s, 0],
            "child.output": [1, 0.0, len(run.stdout)],
        })
        profile.op_s = run.wall_s
        return run, [profile]

    def check(self, inp, run):
        if run.returncode not in (0, 3):
            return Outcome(False, why=f"exit {run.returncode} for {inp.argv}: {run.stderr[-300:]!r}")
        try:
            meta, columns, rows = _parse_table(run.stdout.decode(), inp.fmt)
            why = getattr(self, f"_check_{inp.command}")(inp.expected, meta, columns, rows)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return Outcome(False, why=f"unparsable output for {inp.argv}: {exc!r}")
        flagged = False
        checks_failed = 0
        if inp.command in ("state", "wavefunction", "uncertainty"):
            flagged = float(meta["tail_bound"]) > 1e-10
        if inp.command == "verify":
            checks_failed = sum(r[3] not in (True, "true") for r in rows)
        expected_exit = 3 if flagged else 0
        if not why and run.returncode != expected_exit:
            why = f"exit {run.returncode}, expected {expected_exit}"
        if why:
            return Outcome(False, checks_failed=checks_failed, why=f"{why} for {inp.argv}")
        return Outcome(True, flagged=flagged)

    @staticmethod
    def _check_spectrum(exp, meta, columns, rows):
        s = exp["s"]
        if len(rows) != exp["dim"]:
            return f"{len(rows)} levels, expected {exp['dim']}"
        for n, (idx, e_n, g_n) in enumerate(rows):
            if int(idx) != n:
                return f"level {idx} at row {n}"
            if not (_close(float(e_n), n * (n + s), n * (n + s) + 1) and _close(float(g_n), 2 * n + s + 1, 2 * n + s + 1)):
                return f"e_{n} = {e_n} or g_{n} = {g_n} off n(n+s) = {n * (n + s)!r}"
        return ""

    @staticmethod
    def _check_state(exp, meta, columns, rows):
        mass = 0.0
        for row in rows:
            re, im, abs2 = (float(v) for v in row[1:4])
            if not _close(abs2, re * re + im * im, abs2):
                return f"abs2_c {abs2!r} != |c|^2"
            mass += abs2
        if len(rows) != exp["dim"]:
            return f"{len(rows)} coefficients, expected {exp['dim']}"
        deficit = float(meta["norm_deficit"])
        if abs(mass - (1.0 - deficit)) > IDENTITY_TOL and abs(mass - (1.0 + deficit)) > IDENTITY_TOL:
            return f"sum |c|^2 = {mass!r} disagrees with norm_deficit {deficit!r}"
        if float(meta["tail_bound"]) <= 1e-10 and abs(mass - 1.0) > IDENTITY_TOL:
            return f"state not unit norm: {mass!r}"
        return ""

    @staticmethod
    def _check_wavefunction(exp, meta, columns, rows):
        if len(rows) != 400:
            return f"{len(rows)} grid nodes, expected 400"
        density = float(meta["density_integral"])
        if float(meta["tail_bound"]) <= 1e-10 and abs(density - 1.0) > IDENTITY_TOL:
            return f"density integral {density!r} != 1"
        auto = float(meta["autocorr_abs"])
        if not 0.0 <= auto <= 1.0 + IDENTITY_TOL:
            return f"|autocorrelation| {auto!r} outside [0, 1]"
        return ""

    @staticmethod
    def _check_uncertainty(exp, meta, columns, rows):
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        v = dict(zip(columns, (float(x) for x in rows[0])))
        if not _all_finite(list(v.values())):
            return f"non-finite functionals {v}"
        if float(meta["tail_bound"]) > 1e-10:
            return ""
        bound = 0.25 * (v["meanG"] ** 2 + v["meanF"] ** 2)
        if v["rs_residual"] < -IDENTITY_TOL * bound:
            return f"Robertson-Schroedinger product violated: residual {v['rs_residual']!r}"
        if exp["family"] == "is" and abs(v["rs_residual"]) > IDENTITY_TOL * bound:
            return f"uncertainty product not saturated: residual {v['rs_residual']!r}"
        if exp["family"] == "gk" and v["meanG_closed_dev"] > IDENTITY_TOL * v["meanG_closed"]:
            return f"<G> off its closed form by {v['meanG_closed_dev']!r}"
        return ""

    @staticmethod
    def _check_verify(exp, meta, columns, rows):
        names = [str(r[0]) for r in rows]
        if names != exp["checks"] or int(meta["checks"]) != len(exp["checks"]):
            return f"ran {names}, expected {exp['checks']}"
        failed = [r[0] for r in rows if r[3] not in (True, "true")]
        return f"failed checks {failed}" if failed else ""

    def digest(self, run):
        return repr((run.returncode, run.stdout)).encode()

    def builds_state(self, inp):
        return inp.command in ("state", "wavefunction", "uncertainty")

    def determinism_failures(self):
        """Two runs of one invocation per subcommand must print the same bytes."""
        seen = {}
        for i in range(self.block):
            inp = self.input(i)
            seen.setdefault(inp.command, inp)
        failures = []
        for cmd, inp in seen.items():
            first, second = self.op(inp), self.op(inp)
            if first.stdout != second.stdout or first.returncode != second.returncode:
                failures.append(f"{cmd}: two runs of {inp.argv} differ")
        return failures


def make(name, root, seed, ptcs, child_env):
    """The named workload; ``child_env`` is the environment of CLI processes."""
    if name == "verify-suite":
        return VerifySuite(ptcs, seed)
    if name == "states-dim120":
        # 2000-4800 ops per run; p99 of this 10 ms op moved 1.8x between
        # runs with the host's stalls, p95 does not
        return StatesPipeline(ptcs, seed, name, 2, tail_pct=95, dim=120, nodes=400,
                              kp_radius=0.7, gk_radius=6.0, is_radius=3.0,
                              is_re_lambda_min=IS_RE_LAMBDA_MIN_DIM120)
    if name == "states-dim2000":
        # 42-54 ops per run.  As many grid nodes as levels: with 1000 nodes
        # the density of |zeta| ~ 0.98 states misses its integral by 1e-6
        return StatesPipeline(ptcs, seed, name, 3, tail_pct=75, dim=2000, nodes=2000,
                              kp_radius=0.99, gk_radius=40.0, is_radius=20.0,
                              is_re_lambda_min=0.1)
    if name == "cli-mix":
        return CliMix(root, seed, child_env)
    raise ValueError(f"unknown workload {name!r}")

