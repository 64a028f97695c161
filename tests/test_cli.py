import concurrent.futures

import pytest

from corrqec import cli
from corrqec.cli import main
from corrqec.errors import ConvergenceError
from test_imports import run_python


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def write_config(tmp_path, section: str, **keys) -> str:
    lines = [f"[{section}]"] + [f"{k} = {v}" for k, v in keys.items()]
    path = tmp_path / "run.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_gamma_zero_coupling_grid(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "gamma", coupling=0.0, r_grid="0.0,1.0", tau_grid="0.5,1.0,2.0"
    )
    code, out = run(capsys, "gamma", "--config", cfg)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,tau,gamma0,gammaR,err_estimate"
    assert len(lines) == 1 + 2 * 3
    for line in lines[1:]:
        _, _, g0, gr, _ = line.split(",")
        assert float(g0) == 0.0 and float(gr) == 0.0


def test_gamma_scaling_flag_adds_columns(tmp_path, capsys):
    cfg = write_config(tmp_path, "gamma", scale=2.0, r_grid="0.5", tau_grid="1.0")
    code, out = run(capsys, "gamma", "--config", cfg)
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.endswith("scaled_lhs,scaled_rhs,scaled_err")
    cells = row.split(",")
    assert len(cells) == 8
    lhs, rhs, err = map(float, cells[5:])
    assert abs(lhs - rhs) <= 10.0 * err


def test_fig1_default_grid(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["fig1", "--out", str(out_a)]) == 0
    assert main(["fig1", "--out", str(out_b)]) == 0
    data = out_a.read_bytes()
    assert data == out_b.read_bytes()  # byte-identical reruns
    assert data.endswith(b"\n") and b"\r" not in data
    lines = data.decode().strip().split("\n")
    assert lines[0] == "t,n,gammaR,delta,delta_asymptote"
    assert len(lines) == 1 + 5 * 10  # five curves, ten t values
    zero_rows = [ln.split(",") for ln in lines[1:] if float(ln.split(",")[2]) == 0.0]
    assert len(zero_rows) == 10
    deltas = [float(r[3]) for r in zero_rows]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert all(r[4] == "" for r in zero_rows)  # no asymptote column for gammaR=0


def test_fig1_positive_gamma_r_has_asymptote(tmp_path):
    cfg = write_config(tmp_path, "fig1", gammar_list="0.01", t_grid="5,10")
    out = tmp_path / "c.csv"
    assert main(["fig1", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    for row in rows:
        t, n, gr, delta, asym = row.split(",")
        assert int(t) in (5, 10)
        assert int(n) == int(t) * 20
        assert float(asym) > 0.0


def test_oracle_steane_agreement(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    code, text = run(capsys, "oracle", "--seed", "11", "--out", str(out))
    assert code == 0
    assert "source: pair" in text
    assert "max |difference|" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "state,delta_exact,delta_formula,abs_diff"
    assert len(lines) == 21
    assert max(float(ln.split(",")[3]) for ln in lines[1:]) < 1e-10


def test_oracle_seed_reproducible(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["oracle", "--seed", "4", "--out", str(a)]) == 0
    assert main(["oracle", "--seed", "4", "--out", str(b)]) == 0
    assert main(["oracle", "--seed", "5", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_oracle_requires_seed(capsys):
    code, _ = run(capsys, "oracle")
    assert code == 1


def test_codes_summary_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, "codes", n=10, k=2, samples=12)
    out = tmp_path / "codes.csv"
    code, text = run(capsys, "codes", "--config", cfg, "--seed", "9", "--out", str(out))
    assert code == 0
    assert "fraction" in text and "wilson95" in text
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "sample_id,n,k,d1,d1perp,d,meets_bound"
    assert len(lines) == 13
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[1] == "10" and cells[2] == "2"
        assert cells[6] in ("true", "false")
    rerun = tmp_path / "codes2.csv"
    assert main(["codes", "--config", cfg, "--seed", "9", "--out", str(rerun)]) == 0
    assert out.read_bytes() == rerun.read_bytes()


def test_codes_epsilon_grid_report(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "codes", n=14, k=2, samples=20, epsilon_grid="0.1,0.5,1.0"
    )
    code, text = run(capsys, "codes", "--config", cfg, "--seed", "2")
    assert code == 0
    fracs = [
        float(line.split("fraction=")[1])
        for line in text.strip().split("\n")
        if line.startswith("epsilon=")
    ]
    assert len(fracs) == 3
    # slack grows with epsilon, so the meeting fraction cannot drop
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


def test_scalability_verdicts(tmp_path, capsys):
    code, text = run(capsys, "scalability")
    assert code == 0
    assert "verdict: not scalable" in text
    assert "first violation at n = " in text

    cfg = write_config(tmp_path, "scalability", s=2.5)
    code, text = run(capsys, "scalability", "--config", cfg)
    assert code == 0
    assert "verdict: scalable" in text

    cfg0 = write_config(tmp_path, "scalability", coupling=0.0)
    code, text = run(capsys, "scalability", "--config", cfg0)
    assert code == 0
    assert "verdict: scalable (no noise)" in text
    rows = [ln for ln in text.strip().split("\n") if ln and ln[0].isdigit()]
    assert all(ln.split(",")[4] == "true" for ln in rows)


def test_scalability_linear_geometry_growth(tmp_path, capsys):
    # y = 1 takes the geometry to a = 1e7 (r = 5e6, tau = 1e7)
    cfg = write_config(tmp_path, "scalability", s=2.5, y=1.0, points=8)
    code, text = run(capsys, "scalability", "--config", cfg)
    assert code == 0
    rows = [ln for ln in text.strip().split("\n") if ln and ln[0].isdigit()]
    assert len(rows) == 8
    assert "verdict: scalable" in text


def test_beta_sources(tmp_path, capsys):
    code, out = run(capsys, "beta")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,w,gamma0,gammaR,beta,log_beta,source"
    assert len(lines) == 8  # default n = 6, all weights
    assert all(ln.split(",")[6] == "pair" for ln in lines[1:])

    cfg = write_config(tmp_path, "beta", r=1.0, tau=1.0, n=4)
    code, out = run(capsys, "beta", "--config", cfg)
    assert code == 0
    lines = out.strip().split("\n")
    assert all(ln.split(",")[6] == "bath" for ln in lines[1:])


@pytest.mark.parametrize("command", ["oracle", "beta", "residual"])
def test_noise_block_with_raw_and_geometry_keys_exits_one(tmp_path, capsys, command):
    cfg = write_config(tmp_path, command, gamma0=0.02, gammar=0.01, r=1.0, tau=1.0)
    assert main([command, "--config", cfg, "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not both" in captured.err


def test_residual_default_grid(capsys):
    code, out = run(capsys, "residual")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "n,t,gamma0,gammaR,source,delta_avg,delta_independent,asym_exact,asym_erfc"
    )
    assert len(lines) == 6
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [250, 500, 1000, 2000, 4000]


def test_residual_explicit_point(tmp_path, capsys):
    cfg = write_config(tmp_path, "residual", n=100, t=4, gamma0=0.01, gammar=0.0)
    code, out = run(capsys, "residual", "--config", cfg)
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 1
    cells = rows[0].split(",")
    assert cells[0] == "100" and cells[1] == "4"
    # with gammaR = 0 the averaged value equals the independent one exactly
    assert cells[5] == cells[6]


def test_tol_sources(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "residual", n=100, t=4, gamma0=0.01, gammar=0.005)
    code, _ = run(capsys, "residual", "--config", cfg, "--tol", "1e-7")
    assert code == 0
    monkeypatch.setenv("CORRQEC_TOL", "1e-7")
    code, _ = run(capsys, "residual", "--config", cfg)
    assert code == 0
    monkeypatch.setenv("CORRQEC_TOL", "not-a-number")
    code, _ = run(capsys, "residual", "--config", cfg)
    assert code == 1


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "oracle", seed=1, states=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["oracle", "--config", cfg, "--out", str(a)]) == 0
    assert main(["oracle", "--config", cfg, "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_jobs_do_not_change_output(tmp_path):
    cfg = write_config(tmp_path, "gamma", r_grid="0.0,0.5,1.0", tau_grid="0.5,1.0")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gamma", "--config", cfg, "--out", str(a)]) == 0
    assert main(["gamma", "--config", cfg, "--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_jobs_under_spawn_match_serial_bytes(tmp_path):
    # spawn (and forkserver) workers import corrqec.cli afresh, so the layer
    # names a task uses must be bound in the worker, not only in the parent
    (tmp_path / "small.ini").write_text(
        "[fig1]\ngammar_list = 0.005,0\nt_grid = 1,2,5\n"
        "[scalability]\nn_max = 1e5\npoints = 4\n", encoding="utf-8")
    run_python("""
        import multiprocessing
        multiprocessing.set_start_method("spawn")
        from corrqec.cli import main
        for name in ("fig1", "scalability"):
            for jobs in ("1", "2"):
                argv = [name, "--config", "small.ini", "--jobs", jobs,
                        "--out", f"{name}_{jobs}.csv"]
                assert main(argv) == 0, argv
    """, tmp_path)
    for name in ("fig1", "scalability"):
        serial = (tmp_path / f"{name}_1.csv").read_bytes()
        assert serial.count(b"\n") > 2
        assert (tmp_path / f"{name}_2.csv").read_bytes() == serial


def test_jobs_clamped_to_items_and_cores(monkeypatch):
    # a stand-in pool records the worker count and never starts a process
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # _pmap imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    assert cli._pmap(abs, [-1, -2, -3, -4, -5], 10_000) == [1, 2, 3, 4, 5]
    assert cli._pmap(abs, [-1, -2], 10_000) == [1, 2]
    assert cli._pmap(abs, [-1, -2, -3, -4], 2) == [1, 2, 3, 4]
    assert cli._pmap(abs, [-1], 10_000) == [1]
    assert asked == [3, 2, 2]


def test_nonconvergence_exits_two(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic tolerance failure", 0.0, 1.0)

    monkeypatch.setattr("corrqec.cli.gamma_detailed", boom)
    code, _ = run(capsys, "gamma")
    assert code == 2


def test_domain_error_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "gamma", s=5.0)
    code, _ = run(capsys, "gamma", "--config", cfg)
    assert code == 1
