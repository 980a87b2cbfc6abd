"""End-to-end tests of the command-line interface.

``main(argv)`` is exercised in-process (argparse SystemExits are asserted
where argparse owns the error); one subprocess test checks the installed
console script.  Sweep configs use single-digit grids whose nodes sit on
lattice-special points so the physics spot checks stay cheap.
"""
from __future__ import annotations

import csv
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from esst import _rk4_numpy, cli, experiments
from esst.areas import designed_pulses
from esst.cli import main
from esst.config import load_config, parse_config, resolve_grid
from esst.experiments import read_snapshot

MINIMAL = "[molecule]\npreset = cyclohexylmethanol\n"

# Nodes: phases {0, pi/2, pi}, single duration 35 ns, coincident stage-2
# delays at 3*tau0, detuning delta*tau0 = 1 with scales {1, exp(1/2)}.
TINY_SWEEP = """
[sweep]
phase_min_rad = 0.0
phase_max_rad = 3.141592653589793
phase_count = 3
tau_min_ns = 35.0
tau_max_ns = 35.0
tau_count = 1
delay1_min_ns = 105.0
delay1_max_ns = 105.0
delay1_count = 1
delay2_min_ns = 105.0
delay2_max_ns = 105.0
delay2_count = 1
delta_tau_products = 1.0
scale_min = 1.0
scale_max = 1.6487212707001282
scale_count = 2
engine = analytic
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL + TINY_SWEEP, encoding="utf-8")
    return str(path)


@pytest.fixture()
def chunked_config(tmp_path):
    """A tau0 = 0.5 ns design whose 4-level runs take more than one chunk."""
    path = tmp_path / "chunked.ini"
    path.write_text(MINIMAL + "[design]\ntau0_ns = 0.5\n", encoding="utf-8")
    assert resolve_grid(load_config(str(path)), 4).n_steps > 4096
    return str(path)


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return rows[0], list(csv.reader(rows[1:]))


# ---------------------------------------------------------------------------
# informational commands
# ---------------------------------------------------------------------------


def test_presets_lists_builtin_molecule(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("name,omega_ab_mhz")
    rows = {line.split(",")[0]: line for line in out[1:]}
    assert "cyclohexylmethanol" in rows
    assert rows["cyclohexylmethanol"].endswith("yes")


def test_design_prints_resolved_pulse_table(config_path, capsys):
    assert main(["design", "--config", config_path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == (
        "channel,area_param,center_time_ns,duration_ns,"
        "carrier_mhz,phase_rad,convention"
    )
    assert len(out) == 4
    spec = load_config(config_path)
    row_a = out[1].split(",")
    assert row_a[0] == "a"
    assert float(row_a[1]) == spec.pulses["a"].area_param
    assert float(row_a[5]) == spec.pulses["a"].phase
    assert row_a[6] == "envelope"


def test_design_convention_flag_propagates(config_path, capsys):
    assert main(
        ["design", "--config", config_path, "--convention", "absolute"]
    ) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(line.endswith("absolute") for line in out[1:])


def test_areas_prints_residual_row(config_path, capsys):
    assert main(["areas", "--config", config_path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    header = out[0].split(",")
    values = dict(zip(header, map(float, out[1].split(","))))
    assert values["theta_abs_a"] == pytest.approx(math.pi / 4, abs=1e-4)
    # The envelope-referenced phases wrap thousands of carrier radians at the
    # stage-2 center, so the realized-phase floor is ~1e-7 here (it reaches
    # 1e-9 only for phases realized at small center times).
    assert abs(values["phase_resid"]) < 1e-6
    # Window truncation of the stage-1 tail dominates the amplitude residual.
    assert values["amp_resid_a"] < 1e-4
    assert values["predicted_P_target"] > 1 - 1e-6


# ---------------------------------------------------------------------------
# propagation commands
# ---------------------------------------------------------------------------


def test_trace_both_hands_writes_two_csvs(config_path, tmp_path, capsys):
    out = str(tmp_path / "results")
    code = main(
        ["trace", "--config", config_path, "--out", out, "--levels", "3",
         "--hand", "both"]
    )
    assert code == 0
    left = os.path.join(out, "trace_left.csv")
    right = os.path.join(out, "trace_right.csv")
    assert os.path.exists(left) and os.path.exists(right)
    header, rows = _csv_rows(left)
    assert header == "t_ns,hand,P_A,P_Bprime,P_B,P_C,norm_err"
    assert rows[0][1] == "left"

    stdout = capsys.readouterr().out.strip().splitlines()
    assert stdout[0] == "hand,P_A,P_Bprime,P_B,P_C,norm_drift"
    summary = {line.split(",")[0]: line.split(",") for line in stdout[1:]}
    assert float(summary["left"][4]) > 0.999
    assert float(summary["right"][4]) < 1e-3
    assert float(summary["left"][5]) < 1e-8


def test_trace_summary_row_matches_csv_last_row(config_path, tmp_path, capsys):
    # At 3 levels the left hand's P_C reads ...172 through scalar abs(z)**2
    # and ...17 in the CSV; the printed row must carry the CSV's digits.
    out = str(tmp_path / "row")
    assert main(
        ["trace", "--config", config_path, "--out", out, "--levels", "3",
         "--hand", "left"]
    ) == 0
    header, printed = capsys.readouterr().out.strip().splitlines()
    columns, rows = _csv_rows(os.path.join(out, "trace_left.csv"))
    last = dict(zip(columns.split(","), rows[-1]))
    summary = dict(zip(header.split(","), printed.split(",")))
    pops = [c for c in header.split(",") if c.startswith("P_")]
    assert pops == ["P_A", "P_Bprime", "P_B", "P_C"]
    assert [summary[c] for c in pops] == [last[c] for c in pops]


def test_trace_snapshot_reproduces_config(config_path, tmp_path):
    out = str(tmp_path / "snap")
    assert main(
        ["trace", "--config", config_path, "--out", out, "--levels", "3",
         "--hand", "left"]
    ) == 0
    snapshot = read_snapshot(os.path.join(out, "trace_left.csv"))
    assert parse_config(snapshot) == load_config(config_path)


def test_propagate_single_hand_writes_one_csv(config_path, tmp_path, capsys):
    out = str(tmp_path / "prop")
    code = main(
        ["propagate", "--config", config_path, "--out", out, "--levels", "3",
         "--hand", "left"]
    )
    assert code == 0
    files = sorted(os.listdir(out))
    assert files == ["propagate_left.csv"]
    capsys.readouterr()


def test_trace_and_propagate_differ_only_in_names(config_path, tmp_path, capsys):
    # One handler serves both commands; only the CSV names follow the command.
    stdout = {}
    for command in ("trace", "propagate"):
        assert main([command, "--config", config_path, "--out",
                     str(tmp_path / command), "--levels", "3"]) == 0
        stdout[command] = capsys.readouterr().out
    assert stdout["trace"] == stdout["propagate"]
    for hand in ("left", "right"):
        trace = (tmp_path / "trace" / f"trace_{hand}.csv").read_bytes()
        assert trace == (tmp_path / "propagate" / f"propagate_{hand}.csv").read_bytes()
    assert len(os.listdir(tmp_path / "trace")) == len(os.listdir(tmp_path / "propagate")) == 2


def test_output_dir_from_config_section(tmp_path, capsys):
    outdir = tmp_path / "from_config"
    path = tmp_path / "run.ini"
    path.write_text(
        MINIMAL + TINY_SWEEP + f"\n[output]\ndir = {outdir}\n", encoding="utf-8"
    )
    assert main(
        ["propagate", "--config", str(path), "--levels", "3", "--hand", "right"]
    ) == 0
    assert os.path.exists(outdir / "propagate_right.csv")
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sweep commands
# ---------------------------------------------------------------------------


def test_sweep_phase_spot_value(config_path, tmp_path, capsys):
    out = str(tmp_path / "sp")
    code = main(
        ["sweep-phase", "--config", config_path, "--out", out, "--levels", "3"]
    )
    assert code == 0
    path = os.path.join(out, "sweep_phase.csv")
    assert f"wrote {path}" in capsys.readouterr().out
    header, rows = _csv_rows(path)
    assert header == "axis1,axis2,hand,P_target"
    assert len(rows) == 3 * 1 * 2
    payload = {
        (round(float(r[0]), 12), r[2]): float(r[3]) for r in rows
    }
    spot = payload[(round(math.pi / 2, 12), "left")]
    assert spot > 0.999
    assert payload[(round(math.pi / 2, 12), "right")] < 1e-3
    assert all(0.0 <= v <= 1 + 1e-6 for v in payload.values())


def test_sweep_delay_writes_both_conventions(config_path, tmp_path, capsys):
    out = str(tmp_path / "sd")
    code = main(
        ["sweep-delay", "--config", config_path, "--out", out, "--levels", "3"]
    )
    assert code == 0
    envelope = os.path.join(out, "sweep_delay_envelope.csv")
    absolute = os.path.join(out, "sweep_delay_absolute.csv")
    assert os.path.exists(envelope) and os.path.exists(absolute)
    stdout = capsys.readouterr().out
    assert envelope in stdout and absolute in stdout

    # The absolute-phase plateau keeps the designed transfer at the
    # coincident-delay point; the envelope run is a valid population too.
    _, rows = _csv_rows(absolute)
    abs_left = [float(r[3]) for r in rows if r[2] == "left"]
    assert abs_left[0] > 0.999
    _, rows = _csv_rows(envelope)
    assert all(0.0 <= float(r[3]) <= 1 + 1e-6 for r in rows)

    # Each file's embedded snapshot records the convention it was run under,
    # in its [design] and in the pulses designed from it.
    for path, convention in ((absolute, "absolute"), (envelope, "envelope")):
        spec = parse_config(read_snapshot(path))
        assert spec.design.convention.value == convention
        assert spec.pulses == designed_pulses(spec.molecule, spec.design)


def test_sweep_detuning_analytic_compensation(config_path, tmp_path, capsys):
    out = str(tmp_path / "sdet")
    code = main(["sweep-detuning", "--config", config_path, "--out", out])
    assert code == 0
    path = os.path.join(out, "sweep_detuning.csv")
    header, rows = _csv_rows(path)
    assert header == "delta,scale,engine,hand,P_target"
    assert len(rows) == 1 * 2 * 2
    assert all(r[2] == "analytic" for r in rows)
    left = {float(r[1]): float(r[4]) for r in rows if r[3] == "left"}
    compensated = left[max(left)]
    assert compensated > 1 - 1e-6
    assert compensated > left[min(left)]
    capsys.readouterr()


def test_sweep_detuning_engine_flag_overrides_config(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(
        MINIMAL + TINY_SWEEP.replace("engine = analytic", "engine = exact"),
        encoding="utf-8",
    )
    out = str(tmp_path / "sdet2")
    code = main(
        ["sweep-detuning", "--config", str(path), "--out", out,
         "--engine", "analytic"]
    )
    assert code == 0
    _, rows = _csv_rows(os.path.join(out, "sweep_detuning.csv"))
    assert all(r[2] == "analytic" for r in rows)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["sweep-phase", "sweep-delay", "sweep-detuning"])
@pytest.mark.parametrize("section,override", [
    ("pulse.b", "carrier_mhz = 7060.0"),
    ("grid", "drift_tol = 1e-12"),
])
def test_sweeps_reject_settings_they_would_ignore(
    tmp_path, capsys, command, section, override
):
    # Sweeps design their pulses and grid per point, so these settings
    # would be ignored; they are rejected before any point runs.
    path = tmp_path / "run.ini"
    text = MINIMAL + TINY_SWEEP + f"\n[{section}]\n{override}\n"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: [{section}]" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_missing_config_file_exits_2(capsys):
    assert main(["design", "--config", "/nonexistent/run.ini"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(MINIMAL + "\n[grid]\nwavelength = 3\n", encoding="utf-8")
    assert main(["design", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[grid] wavelength" in err


@pytest.mark.parametrize("command", [
    ["trace", "--levels", "3", "--hand", "left"], ["sweep-phase", "--levels", "3"],
])
@pytest.mark.parametrize("flags,section,named", [
    ([], "\n[output]\ndir =\n", "[output] dir: "),
    (["--out", "taken"], "", "[output] --out: "),
])
def test_unusable_output_location_exits_2(
    tmp_path, monkeypatch, capsys, command, flags, section, named
):
    # An empty [output] dir, or an --out that names a file, is a
    # configuration error: one line on stderr, exit 2 and no file written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("kept\n", encoding="utf-8")
    (tmp_path / "run.ini").write_text(MINIMAL + TINY_SWEEP + section, encoding="utf-8")
    assert main([*command, "--config", "run.ini", *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {named}")
    assert sorted(os.listdir(tmp_path)) == ["run.ini", "taken"]
    assert (tmp_path / "taken").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("command,taken", [
    pytest.param(["trace", "--hand", "left"], "trace_left.csv", id="trace"),
    # the second file sweep-delay writes
    pytest.param(["sweep-delay"], "sweep_delay_absolute.csv", id="sweep-delay"),
])
def test_result_path_that_is_not_a_file_exits_2(
    tmp_path, monkeypatch, capsys, command, taken
):
    # A result CSV path held by a directory is a configuration error found
    # before the first run, not an OSError once the work is done.
    calls = []
    for module in (cli, experiments):
        monkeypatch.setattr(module, "propagate", lambda *a, **k: calls.append(a))
    (tmp_path / "run.ini").write_text(MINIMAL + TINY_SWEEP, encoding="utf-8")
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    argv = [*command, "--config", str(tmp_path / "run.ini"), "--out", str(out), "--levels", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    path = str(out / taken)
    assert err == [f"config error: [output] --out: cannot write {path!r}: not a regular file"]
    assert calls == []
    assert os.listdir(out) == [taken]


@pytest.mark.parametrize("grid", [
    pytest.param("t_start_ns = 10\nt_end_ns = 5", id="end-before-start"),
    pytest.param("dt_ns = -1", id="negative-dt"),
    pytest.param("dt_ns = 0", id="zero-dt"),
    # past the automatic end, about 420 ns
    pytest.param("t_start_ns = 1000", id="start-past-auto-end"),
])
def test_grid_that_makes_no_grid_exits_2(tmp_path, monkeypatch, capsys, grid):
    calls = []
    monkeypatch.setattr(cli, "propagate", lambda *a, **k: calls.append(a))
    path = tmp_path / "run.ini"
    path.write_text(f"{MINIMAL}\n[grid]\n{grid}\n", encoding="utf-8")
    argv = ["propagate", "--config", str(path), "--out", str(tmp_path), "--levels", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: [grid]: ")
    assert calls == []


@pytest.mark.parametrize("command,key,value,design", [
    ("sweep-phase", "tau_min_ns", "0.0", ""),
    ("sweep-detuning", "scale_min", "-1.0", ""),
    ("sweep-detuning", "delta_tau_products", "-40", "[design]\ntau0_ns = 0.3\n"),
])
def test_sweep_bounds_that_make_an_invalid_design_exit_2(
    tmp_path, monkeypatch, capsys, command, key, value, design
):
    # A bound that is bad only at the far end of its range fails at load
    # time, before any run.
    calls = []
    monkeypatch.setattr(experiments, "propagate", lambda *a, **k: calls.append(a))
    sweep = "\n".join(
        f"{key} = {value}" if line.startswith(f"{key} =") else line
        for line in TINY_SWEEP.splitlines()
    )
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL + design + sweep + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out), "--levels", "3"]
    if command == "sweep-detuning":
        argv += ["--engine", "exact"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: [sweep] {key}: ")
    assert calls == []
    assert not out.exists()


def test_non_finite_drift_tol_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text(MINIMAL + "\n[grid]\ndrift_tol = nan\n", encoding="utf-8")
    code = main(
        ["propagate", "--config", str(path), "--out", str(tmp_path),
         "--levels", "3", "--hand", "left"]
    )
    assert code == 2
    assert "[grid] drift_tol" in capsys.readouterr().err


def test_levels_4_without_spectator_exits_2(tmp_path, capsys):
    path = tmp_path / "threelevel.ini"
    path.write_text(
        "[molecule]\n"
        "omega_ab_mhz = 4711.0\nomega_bc_mhz = 2857.0\nomega_ac_mhz = 7568.0\n"
        "mu_a_debye = 1.2\nmu_b_debye = 0.9\nmu_c_debye = 1.7\n",
        encoding="utf-8",
    )
    code = main(["design", "--config", str(path), "--levels", "4"])
    assert code == 0  # design never propagates, so levels are not checked
    code = main(
        ["propagate", "--config", str(path), "--levels", "4", "--hand", "left"]
    )
    assert code == 2
    assert "no spectator" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["presets", "--frobnicate"], id="unknown-flag"),
    pytest.param(["design", "--config", "CONFIG", "--wavelength", "3"], id="unknown-design-flag"),
    pytest.param(["render"], id="unknown-subcommand"),
    pytest.param(["design"], id="missing-required-config-flag"),
    pytest.param(["trace", "--config", "CONFIG", "--hand", "up"], id="bad-hand"),
    pytest.param(["trace", "--config", "CONFIG", "--levels", "5"], id="bad-levels"),
])
def test_argparse_errors_exit_2(config_path, argv):
    with pytest.raises(SystemExit) as err:
        main([config_path if arg == "CONFIG" else arg for arg in argv])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


CONSOLE_SCRIPT = """
import sys
from {module} import {function}
sys.argv = ["esst", "presets"]
sys.exit({function}())
"""


def test_console_script_runs():
    # Without an installed ``esst`` script, run the function pyproject.toml
    # names for it the way the generated script does.
    exe = shutil.which("esst")
    if exe is None:
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["esst"]
        assert target == "esst.cli:main"
        module, function = target.split(":")
        argv = [sys.executable, "-c", CONSOLE_SCRIPT.format(module=module, function=function)]
    else:
        argv = [exe, "presets"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "cyclohexylmethanol" in proc.stdout


def test_python_dash_m_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "esst", "presets"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("name,")


def run_in_own_group(argv):
    """``python -m esst argv`` in a new session: its exit code and stderr,
    once no process is left in its process group."""
    with subprocess.Popen(
        [sys.executable, "-m", "esst", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            _, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no process is left in the run's group
    return proc.returncode, stderr


def test_propagate_leaves_no_process_behind(tmp_path, chunked_config):
    # A run of more than one chunk forks the kernel's worker processes; the
    # exiting CLI must reap every one of them and print nothing on stderr.
    assert run_in_own_group(
        ["propagate", "--config", chunked_config, "--out", str(tmp_path / "out")]
    ) == (0, "")


def test_sweep_phase_leaves_no_process_behind(tmp_path):
    # A sweep queues each run's chunk ranges on the workers while the run
    # before it is sampled; the exiting CLI must still reap every worker
    # and print nothing on stderr.
    path = tmp_path / "run.ini"
    path.write_text(
        MINIMAL + "[design]\ntau0_ns = 0.5\n[sweep]\nphase_count = 2\n"
        "tau_min_ns = 0.5\ntau_max_ns = 0.5\ntau_count = 1\n",
        encoding="utf-8",
    )
    assert resolve_grid(load_config(str(path)), 3).n_steps > 4096
    assert run_in_own_group(
        ["sweep-phase", "--config", str(path), "--out", str(tmp_path / "out"),
         "--levels", "3"]
    ) == (0, "")
    with open(tmp_path / "out" / "sweep_phase.csv", encoding="utf-8") as fh:
        assert sum(1 for line in fh if not line.startswith("#")) == 1 + 2 * 2


def test_a_dead_worker_exits_4_on_one_line(tmp_path, capsys, monkeypatch, chunked_config):
    # A kernel worker killed before a run: the CLI names it on one line of
    # stderr, with no traceback, and exits 4.
    monkeypatch.setattr(_rk4_numpy, "_worker_count", lambda: 2)
    pid = _rk4_numpy._pool().workers[0].pid
    os.kill(pid, signal.SIGKILL)
    assert main(["propagate", "--config", chunked_config, "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == (
        f"worker pool failed: kernel worker process {pid} was killed by SIGKILL "
        "before its range was built\n"
    )


def test_propagate_both_hands_match_single_hand_runs(tmp_path, capsys, chunked_config):
    # The right hand's build is queued while the left one is sampled and
    # written; both must come out as they do from single-hand runs.
    stdout = {}
    for hand in ("both", "left", "right"):
        assert main(["propagate", "--config", chunked_config, "--out",
                     str(tmp_path / hand), "--hand", hand]) == 0
        stdout[hand] = capsys.readouterr().out.splitlines()
    header, left, right = stdout["both"]
    assert stdout["left"] == [header, left]
    assert stdout["right"] == [header, right]
    for hand in ("left", "right"):
        name = f"propagate_{hand}.csv"
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / hand / name).read_bytes()


def test_trace_returns_each_hands_run_through_the_module_propagate(
    tmp_path, capsys, monkeypatch, chunked_config
):
    # The trace benchmark records what esst.cli.propagate returns and fails
    # a hand it never sees: each hand must be one call of that module
    # global, in BOTH_HANDS order, returning that hand's trajectory.
    real, calls = cli.propagate, []

    def recording(molecule, pulses, hand, **kwargs):
        calls.append((hand, real(molecule, pulses, hand, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "propagate", recording)
    argv = ["trace", "--config", chunked_config, "--out", str(tmp_path / "out"), "--hand", "both"]
    assert main(argv) == 0
    capsys.readouterr()
    assert [hand for hand, _ in calls] == list(experiments.BOTH_HANDS)
    for hand, traj in calls:
        assert traj.hand is hand and traj.grid.n_steps > _rk4_numpy.CHUNK_STEPS
