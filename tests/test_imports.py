"""Which costly modules a process loads, checked in fresh interpreters.

scipy is a test-only dependency: scipy.special would cost about 0.35 s and
scipy.linalg about 0.1 s of a CLI process's start, and the library needs
neither.  A fresh interpreter whose import of scipy raises still runs the
package and every subcommand, on every bath branch.  The process pool
(multiprocessing) loads only when --jobs starts one, and scalability
starts none.
"""
import os
import subprocess
import sys
import textwrap

import pytest

import corrqec
from corrqec import bath, codes, dephasing, errors, oracle, residual, scalability

SRC = os.path.dirname(os.path.dirname(os.path.abspath(corrqec.__file__)))


def run_python(code: str, cwd) -> str:
    """stdout of a fresh interpreter running code with this checkout's corrqec."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("CORRQEC_TOL", None)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_and_numpy_only_subcommands_load_no_scipy_special(tmp_path):
    # one interpreter: the import, then oracle (with --tol), codes and beta as
    # python -m corrqec.cli runs them
    (tmp_path / "small.ini").write_text(
        "[oracle]\nstates = 2\n[codes]\nn = 10\nk = 1\nsamples = 4\n[beta]\nn = 8\n",
        encoding="utf-8")
    out = run_python("""
        import runpy, sys
        import corrqec
        print("import", "scipy.special" in sys.modules, "corrqec.bath" in sys.modules)
        for command in ("oracle", "codes", "beta"):
            sys.argv = ["corrqec", command, "--config", "small.ini", "--seed", "5",
                        "--tol", "1e-9", "--out", command + ".csv"]
            try:
                runpy.run_module("corrqec.cli", run_name="__main__")
            except SystemExit as exc:
                assert exc.code == 0, (command, exc.code)
            print(command, "scipy.special" in sys.modules)
    """, tmp_path)
    assert out.split("\n")[0] == "import False False"
    assert [line for line in out.split("\n") if line.startswith(("oracle ", "codes ", "beta "))] \
        == ["oracle False", "codes False", "beta False"]
    for command in ("oracle", "codes", "beta"):
        assert (tmp_path / f"{command}.csv").read_text(encoding="ascii").count("\n") > 1


def test_cli_layer_names_patchable_and_gamma_loads_no_scipy_linalg(tmp_path):
    # a profiler wraps corrqec.cli's names through hasattr/setattr before main
    # runs; the default gamma scan is one gamma_detailed call
    out = run_python("""
        import sys
        from corrqec import cli
        calls = []
        for name in ("gamma_detailed", "code_avg_residual"):
            assert hasattr(cli, name)
            inner = getattr(cli, name)
            setattr(cli, name, lambda *a, _f=inner, _n=name, **k: calls.append(_n) or _f(*a, **k))
        assert cli.main(["gamma", "--out", "g.csv"]) == 0
        print("scipy.linalg" in sys.modules)
        assert cli.main(["residual", "--out", "r.csv"]) == 0
        print(calls.count("gamma_detailed"), calls.count("code_avg_residual"))
    """, tmp_path)
    assert out.split() == ["False", "1", "5"]


def test_gamma_and_scalability_load_no_scipy_special(tmp_path):
    # one interpreter: the bath import, then gamma and scalability (in this
    # process and with two workers), then fig1 and residual, which sum the
    # binomial tail in numpy
    (tmp_path / "small.ini").write_text(
        "[fig1]\ngammar_list = 0.005\nt_grid = 1,2\n[residual]\nn_grid = 250\n",
        encoding="utf-8")
    out = run_python("""
        import sys
        import corrqec.bath
        print("bath", any(name.split(".")[0] == "scipy" for name in sys.modules))
        from corrqec import cli
        runs = (("gamma",), ("scalability",), ("scalability", "--jobs", "2"),
                ("fig1",), ("residual",))
        for i, run in enumerate(runs):
            assert cli.main([*run, "--config", "small.ini", "--out", f"{i}.csv"]) == 0
            print(" ".join(run), "scipy.special" in sys.modules)
    """, tmp_path)
    assert [line for line in out.split("\n") if not line.startswith("verdict")] == [
        "bath False", "gamma False", "scalability False", "scalability --jobs 2 False",
        "fig1 False", "residual False", ""]
    for i in range(5):
        assert (tmp_path / f"{i}.csv").read_text(encoding="ascii").count("\n") > 1


def test_scalability_with_jobs_starts_no_pool(tmp_path):
    # scalability evaluates its grid in one closed-form batch in this
    # process, whatever --jobs says
    out = run_python("""
        import sys
        from corrqec import cli
        assert cli.main(["scalability", "--jobs", "2", "--out", "s.csv"]) == 0
        pool = ("concurrent.futures.process", "multiprocessing")
        print("pool", [name for name in pool if name in sys.modules])
    """, tmp_path)
    assert [line for line in out.split("\n") if line.startswith("pool")] == ["pool []"]
    assert (tmp_path / "s.csv").read_text(encoding="ascii").count("\n") == 30


def test_package_and_every_subcommand_run_without_scipy(tmp_path):
    # a meta-path finder makes any import of scipy raise; gamma then takes
    # the head rule's beta != 0 branch (s = 1.5, and T = 0) and the tail
    # bound's s > 2 branch (s = 2.5), and scalability the Filon body, whose
    # Legendre rule is typed in, so numpy.polynomial does not load either
    (tmp_path / "small.ini").write_text(
        "[fig1]\ngammar_list = 0.005,0\nt_grid = 1,20\n"
        "[oracle]\nstates = 2\n[codes]\nn = 10\nk = 1\nsamples = 4\n[beta]\nn = 8\n"
        "[residual]\nn_grid = 250,20000\n[scalability]\nb = 1.0\n",
        encoding="utf-8")
    for name, text in (("s15", "s = 1.5\n"), ("s25", "s = 2.5\nr_grid = 0,0.5\n"),
                       ("cold", "temp = 0\n")):
        (tmp_path / f"{name}.ini").write_text(f"[gamma]\n{text}", encoding="utf-8")
    out = run_python("""
        import sys

        class NoScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"blocked import of {name}")

        sys.meta_path.insert(0, NoScipy())
        try:
            import scipy
        except ImportError:
            print("blocked")
        import corrqec
        namespace = {}
        exec("from corrqec import *", namespace)
        from corrqec import cli
        runs = [(command, "small") for command in
                ("gamma", "fig1", "oracle", "codes", "scalability", "beta", "residual")]
        runs += [("gamma", "s15"), ("gamma", "s25"), ("gamma", "cold")]
        for command, config in runs:
            code = cli.main([command, "--config", config + ".ini", "--seed", "5",
                             "--out", f"{command}-{config}.csv"])
            print("ran", command, config, code)
        print("scipy loaded", any(name.split(".")[0] == "scipy" for name in sys.modules))
        print("polynomial loaded", "numpy.polynomial" in sys.modules)
    """, tmp_path)
    # the subcommands' own stdout (verdicts, oracle diffs) is left out
    lines = [line for line in out.split("\n")
             if line.startswith(("blocked", "ran ", "scipy ", "polynomial "))]
    assert lines == ["blocked", "ran gamma small 0", "ran fig1 small 0", "ran oracle small 0",
                     "ran codes small 0", "ran scalability small 0", "ran beta small 0",
                     "ran residual small 0", "ran gamma s15 0", "ran gamma s25 0",
                     "ran gamma cold 0", "scipy loaded False", "polynomial loaded False"]
    for csv in tmp_path.glob("*.csv"):
        assert csv.read_text(encoding="ascii").count("\n") > 1


def test_serial_cli_loads_no_process_pool_and_package_no_polynomials(tmp_path):
    # the pool machinery loads only when --jobs starts a pool; quadrature
    # and bath type in their rules, so nothing loads numpy.polynomial
    out = run_python("""
        import sys
        import corrqec
        print("package", "numpy.polynomial" in sys.modules)
        from corrqec import cli
        pool = ("concurrent.futures.process", "multiprocessing")
        print("cli", any(name in sys.modules for name in pool))
        assert cli.main(["gamma", "--jobs", "1", "--out", "g.csv"]) == 0
        print("gamma", any(name in sys.modules for name in pool))
    """, tmp_path)
    assert out.split("\n") == ["package False", "cli False", "gamma False", ""]
    assert (tmp_path / "g.csv").read_text(encoding="ascii").count("\n") > 1


def test_lazy_names_match_the_layers():
    assert corrqec._LAZY == {"bath": tuple(bath.__all__), "residual": tuple(residual.__all__),
                             "scalability": tuple(scalability.__all__)}
    modules = (errors, bath, dephasing, codes, oracle, residual, scalability)
    expected = {name for mod in modules for name in mod.__all__} | {"__version__"}
    assert len(corrqec.__all__) == len(expected) == 61
    assert set(corrqec.__all__) == expected
    assert set(corrqec.__all__) <= set(dir(corrqec))
    namespace = {}
    exec("from corrqec import *", namespace)
    assert namespace["gamma_pair"] is bath.gamma_pair
    assert namespace["code_avg_residual"] is residual.code_avg_residual
    assert namespace["gamma_budget"] is scalability.gamma_budget
    # the budget and verdict names still resolve through residual
    for name in residual._MOVED:
        assert getattr(residual, name) is getattr(scalability, name)
    assert expected <= set(namespace)
    with pytest.raises(AttributeError):
        corrqec.no_such_name  # noqa: B018
    with pytest.raises(AttributeError):
        residual.no_such_name  # noqa: B018
