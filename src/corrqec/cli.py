"""Deterministic command-line front end.

Every subcommand reads an optional INI-style config (section named after the
subcommand, flat key=value), applies CLI flags on top, and emits CSV with a
mandatory header, comma separators, \\n line endings and 17-significant-digit
floats.  Identical config + seed gives byte-identical output; worker pools
only change wall time, never bytes, because rows are written in grid order.

Exit status: 0 success, 1 domain/usage error, 2 numerical non-convergence
(or an oracle/formula disagreement beyond tolerance).

The bath, residual and scalability names are bound layer by layer, only by
the subcommands that call them: gamma binds bath; scalability binds
scalability, which loads bath; fig1 and residual bind residual; oracle and
beta bind bath only when given r or tau.  No layer imports scipy, so every
subcommand runs on numpy alone, on any bath.
"""
from __future__ import annotations

import argparse
import configparser
import importlib
import math
import os
import sys

import numpy as np

from .codes import CssCodePair, load_code_pair, meets_rate_bound, sample_random_css, \
    steane_code
from .dephasing import DecoherencePair, alpha_matrix, beta, log_beta
from .errors import ConvergenceError, DomainError, SizeLimitError
from .oracle import encode, fidelity_formula, random_state, residual_exact

_FIG1_GAMMAR = "0.01,0.005,0.0025,0.00125,0"
_FIG1_TGRID = "1,2,5,10,20,50,100,200,350,500"

# what this module uses of the lazily loaded layers
_LAYER_NAMES = {
    "bath": ("BathParams", "GeometryParams", "gamma_detailed", "gamma_pair",
             "scaling_identity_sides"),
    "residual": ("ResidualQuery", "asymptotic_residual", "code_avg_residual",
                 "independent_residual"),
    "scalability": ("ScalingScenario", "geometric_grid", "scalability_row",
                    "scalability_summary"),
}


def _bind(layer: str) -> None:
    """Bind the _LAYER_NAMES of one layer as globals of this module.

    Every function that uses them calls this first, worker tasks included:
    a spawn or forkserver worker imports this module afresh.  A name that
    is already bound, say wrapped through setattr by a profiler, is kept.
    """
    mod = importlib.import_module(f".{layer}", __package__)
    for name in _LAYER_NAMES[layer]:
        globals().setdefault(name, getattr(mod, name))


def __getattr__(name):
    # PEP 562: getattr, hasattr and monkeypatching see the layer names too
    for layer, names in _LAYER_NAMES.items():
        if name in names:
            _bind(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for numerical failures; usage errors are 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _emit(out_path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _floats(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise DomainError(f"empty numeric list {text!r}")
    return vals


class Settings:
    """One subcommand's key=value view of the config file."""

    def __init__(self, section: dict):
        self._section = dict(section)

    def has(self, key: str) -> bool:
        return key in self._section

    def get(self, key: str, cast, default):
        if key in self._section:
            try:
                return cast(self._section[key])
            except ValueError as exc:
                raise DomainError(f"bad value for config key '{key}': {exc}") from exc
        if default is _REQUIRED:
            raise DomainError(f"missing required config key '{key}'")
        return default


_REQUIRED = object()


def _load_settings(path, name: str) -> Settings:
    if not path:
        return Settings({})
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if parser.has_section(name):
        return Settings(dict(parser.items(name)))
    return Settings({})


def _resolve_tol(args, settings: Settings):
    """Flag beats config key 'tol' beats CORRQEC_TOL beats library default."""
    if args.tol is not None:
        return args.tol
    if settings.has("tol"):
        return settings.get("tol", float, None)
    env = os.environ.get("CORRQEC_TOL")
    return float(env) if env else None


def _resolve_seed(args, settings: Settings, required: bool):
    seed = args.seed if args.seed is not None else settings.get("seed", int, None)
    if seed is None:
        if required:
            raise DomainError("this subcommand is stochastic: provide --seed "
                              "(or a 'seed' config key)")
        return None
    if not 0 <= seed < 2 ** 64:
        raise DomainError(f"seed must fit in an unsigned 64-bit value, got {seed}")
    return seed


def _bath_from(settings: Settings) -> BathParams:
    _bind("bath")
    return BathParams(settings.get("coupling", float, 1.0),
                      settings.get("s", float, 1.0),
                      settings.get("omega", float, 10.0),
                      settings.get("temp", float, 1.0))


def _pair_from(settings: Settings) -> tuple[DecoherencePair, str]:
    """The pair from raw (gamma0, gammar) keys or from bath + geometry keys.

    A config that gives a raw key and a geometry key (r or tau) is a
    DomainError.  With neither present the stock demonstration pair
    (0.01, 0.005) is used.
    """
    if settings.has("r") or settings.has("tau"):
        if settings.has("gamma0") or settings.has("gammar"):
            raise DomainError("give either gamma0/gammar or the geometry r/tau, "
                              "not both")
        bath = _bath_from(settings)
        pair = gamma_pair(bath, settings.get("r", float, _REQUIRED),
                          settings.get("tau", float, _REQUIRED))
        return pair, "bath"
    pair = DecoherencePair(settings.get("gamma0", float, 0.01),
                           settings.get("gammar", float, 0.005))
    return pair, "pair"


def _pmap(fn, payloads, jobs: int) -> list:
    items = list(payloads)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(p) for p in items]
    # loads multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------- gamma

def _gamma_task(payload):
    _bind("bath")
    bath, r, tau, scale = payload
    est0 = gamma_detailed(bath, GeometryParams(0.0, tau))
    estr = est0 if r == 0.0 else gamma_detailed(bath, GeometryParams(r, tau))
    row = [r, tau, est0.value, estr.value,
           est0.error_estimate + estr.error_estimate]
    if scale is not None:
        lhs, rhs = scaling_identity_sides(bath, GeometryParams(r, tau), scale)
        row += [lhs.value, rhs.value, lhs.error_estimate + rhs.error_estimate]
    return row


def cmd_gamma(args, settings: Settings, tol) -> int:
    bath = _bath_from(settings)
    r_grid = _floats(settings.get("r_grid", str, "0.0"))
    tau_grid = _floats(settings.get("tau_grid", str, "1.0"))
    scale = settings.get("scale", float, None)
    header = ["r", "tau", "gamma0", "gammaR", "err_estimate"]
    if scale is not None:
        header += ["scaled_lhs", "scaled_rhs", "scaled_err"]
    payloads = [(bath, r, tau, scale) for r in r_grid for tau in tau_grid]
    _emit(args.out, header, _pmap(_gamma_task, payloads, args.jobs))
    return 0


# ---------------------------------------------------------------- fig1

def _fig1_task(payload):
    _bind("residual")
    pair, t, q, tol = payload
    n = round(t / q)
    kwargs = {"rel_tol": tol} if tol is not None else {}
    delta = code_avg_residual(ResidualQuery(n, t, pair), **kwargs)
    asym = asymptotic_residual(q, pair).exact if pair.gammaR > 0.0 else None
    return [t, n, pair.gammaR, delta, asym]


def cmd_fig1(args, settings: Settings, tol) -> int:
    gamma0 = settings.get("gamma0", float, 0.01)
    gammar_list = _floats(settings.get("gammar_list", str, _FIG1_GAMMAR))
    t_grid = [int(v) for v in _floats(settings.get("t_grid", str, _FIG1_TGRID))]
    q = settings.get("q", float, 0.05)
    payloads = [(DecoherencePair(gamma0, gr), t, q, tol)
                for gr in gammar_list for t in sorted(t_grid)]
    rows = _pmap(_fig1_task, payloads, args.jobs)
    _emit(args.out, ["t", "n", "gammaR", "delta", "delta_asymptote"], rows)
    return 0


# ---------------------------------------------------------------- oracle

def _load_code(settings: Settings) -> CssCodePair:
    name = settings.get("code", str, "steane")
    return steane_code() if name == "steane" else load_code_pair(name)


def cmd_oracle(args, settings: Settings, tol) -> int:
    code = _load_code(settings)
    pair, source = _pair_from(settings)
    states = settings.get("states", int, 20)
    seed = _resolve_seed(args, settings, required=states > 0)
    alpha = alpha_matrix(code.n, pair)
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for i in range(states):
        psi = random_state(code.k, rng)
        exact = residual_exact(psi, pair, code)
        formula = 1.0 - fidelity_formula(encode(psi.amplitudes, code), alpha, code)
        diff = abs(exact - formula)
        worst = max(worst, diff)
        rows.append([i, exact, formula, diff])
        print(f"state {i}: exact={_fmt(exact)} formula={_fmt(formula)} "
              f"diff={diff:.3e}")
    if args.out:
        _emit(args.out, ["state", "delta_exact", "delta_formula", "abs_diff"], rows)
    print(f"source: {source}")
    print(f"max |difference| over {states} states: {worst:.3e}")
    if worst >= 1e-10:
        print("oracle and formula disagree beyond 1e-10", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- codes

def _codes_task(payload):
    n, k, seed, index, eps = payload
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    pair = sample_random_css(n, k, rng)
    return [index, n, k, pair.d1, pair.d1perp, pair.d,
            meets_rate_bound(pair, eps)]


def _wilson(hits: int, total: int) -> tuple[float, float]:
    z = 1.959963984540054
    phat = hits / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return center - half, center + half


def cmd_codes(args, settings: Settings, tol) -> int:
    n = settings.get("n", int, 15)
    k = settings.get("k", int, 1)
    samples = settings.get("samples", int, 200)
    eps = settings.get("epsilon", float, 0.1)
    seed = _resolve_seed(args, settings, required=True)
    payloads = [(n, k, seed, i, eps) for i in range(samples)]
    rows = _pmap(_codes_task, payloads, args.jobs)
    _emit(args.out, ["sample_id", "n", "k", "d1", "d1perp", "d", "meets_bound"], rows)
    hits = sum(1 for row in rows if row[6])
    lo, hi = _wilson(hits, samples)
    print(f"fraction meeting the rate bound at epsilon={_fmt(eps)}: "
          f"{hits}/{samples} = {hits / samples:.4f}, wilson95=[{lo:.4f}, {hi:.4f}]")
    if settings.has("epsilon_grid"):
        from .codes import r_css
        for e in _floats(settings.get("epsilon_grid", str, _REQUIRED)):
            cnt = sum(1 for row in rows
                      if k / n >= (1.0 - e) * r_css(min(row[5] / n, 0.5)))
            print(f"epsilon={_fmt(e)}: fraction={cnt / samples:.4f}")
    return 0


# ---------------------------------------------------------------- scalability

def _scal_task(payload):
    _bind("scalability")
    scen, nv = payload
    return scalability_row(scen, nv)


def cmd_scalability(args, settings: Settings, tol) -> int:
    _bind("scalability")
    scen = ScalingScenario(
        s=settings.get("s", float, 1.0),
        y=settings.get("y", float, 1.0 / 3.0),
        r0=settings.get("r0", float, 0.5),
        tau0=settings.get("tau0", float, 1.0),
        n0=settings.get("n0", float, 100.0),
        T=settings.get("temp", float, 1.0),
        Omega=settings.get("omega", float, 10.0),
        q=settings.get("q", float, 0.05),
        mu=settings.get("mu", float, 1.0),
        b=settings.get("b", float, 1.0),
        # default coupling places the base point inside the budget so the
        # s-dichotomy is visible on the default grid
        coupling=settings.get("coupling", float, 0.002),
    )
    if settings.has("n_grid"):
        grid = _floats(settings.get("n_grid", str, _REQUIRED))
    else:
        grid = geometric_grid(scen.n0,
                              settings.get("n_max", float, 1e9),
                              settings.get("points", int, 29))
    rows = _pmap(_scal_task, [(scen, nv) for nv in sorted(grid)], args.jobs)
    report = scalability_summary(scen, rows)
    _emit(args.out, ["n", "a", "gammaR_eff", "gamma_budget", "satisfied"],
          [[r.n, r.a, r.gamma_r, r.budget, r.satisfied] for r in report.rows])
    line = f"verdict: {report.verdict}"
    if report.crossover_n is not None:
        line += f" (first violation at n = {_fmt(report.crossover_n)})"
    print(line)
    return 0


# ---------------------------------------------------------------- beta

def _beta_task(payload):
    n, w, pair, source, tol = payload
    kwargs = {"log_tol": tol} if tol is not None else {}
    return [n, w, pair.gamma0, pair.gammaR, beta(n, w, pair, **kwargs),
            log_beta(n, w, pair, **kwargs), source]


def cmd_beta(args, settings: Settings, tol) -> int:
    pair, source = _pair_from(settings)
    n = settings.get("n", int, 6)
    w_text = settings.get("w_list", str, "all")
    ws = list(range(n + 1)) if w_text == "all" else [int(v) for v in _floats(w_text)]
    payloads = [(n, w, pair, source, tol) for w in ws]
    rows = _pmap(_beta_task, payloads, args.jobs)
    _emit(args.out, ["n", "w", "gamma0", "gammaR", "beta", "log_beta", "source"], rows)
    return 0


# ---------------------------------------------------------------- residual

def _residual_task(payload):
    _bind("residual")
    n, t, pair, source, tol = payload
    kwargs = {"rel_tol": tol} if tol is not None else {}
    query = ResidualQuery(n, t, pair)
    asym = asymptotic_residual(query.q, pair) if pair.gammaR > 0.0 else None
    return [n, t, pair.gamma0, pair.gammaR, source,
            code_avg_residual(query, **kwargs),
            independent_residual(n, t, pair.gamma0),
            asym.exact if asym else None,
            asym.erfc_approx if asym else None]


def cmd_residual(args, settings: Settings, tol) -> int:
    pair, source = _pair_from(settings)
    if settings.has("n") or settings.has("t"):
        if settings.has("n_grid"):
            raise DomainError("give either an explicit (n, t) or an n_grid with q, "
                              "not both")
        pts = [(settings.get("n", int, _REQUIRED), settings.get("t", int, _REQUIRED))]
    else:
        q = settings.get("q", float, 0.05)
        pts = [(int(round(nv)), max(0, int(round(q * nv)) - 1))
               for nv in _floats(settings.get("n_grid", str, "250,500,1000,2000,4000"))]
    payloads = [(n, t, pair, source, tol) for n, t in pts]
    rows = _pmap(_residual_task, payloads, args.jobs)
    _emit(args.out, ["n", "t", "gamma0", "gammaR", "source", "delta_avg",
                     "delta_independent", "asym_exact", "asym_erfc"], rows)
    return 0


# ---------------------------------------------------------------- driver

# name: (help, command); --help lists the subcommands in this order
_COMMANDS = {
    "gamma": ("decoherence integrals over an (r, tau) grid", cmd_gamma),
    "fig1": ("code-averaged residual curves over t with asymptotes", cmd_fig1),
    "oracle": ("exact vs formula residual on a small code", cmd_oracle),
    "codes": ("sample random CSS pairs and report distances", cmd_codes),
    "scalability": ("budget condition along a size grid with verdict", cmd_scalability),
    "beta": ("diagonal channel coefficients beta_w", cmd_beta),
    "residual": ("code-averaged residual with limits at chosen sizes", cmd_residual),
}


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--seed", metavar="U64", type=int,
                        help="RNG seed (required for stochastic subcommands)")
    common.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    common.add_argument("--jobs", metavar="N", type=int, default=1,
                        help="worker processes for scans")
    common.add_argument("--tol", metavar="REAL", type=float,
                        help="relative tolerance override (else CORRQEC_TOL)")
    parser = _Parser(prog="corrqec",
                     description="correlated-dephasing noise vs CSS codes")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND", required=True)
    for name, (text, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _load_settings(args.config, args.command)
        return _COMMANDS[args.command][1](args, settings, _resolve_tol(args, settings))
    except ConvergenceError as exc:
        print(f"corrqec: numerical non-convergence: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SizeLimitError, OSError, ValueError,
            configparser.Error) as exc:
        print(f"corrqec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
