import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisyrk import (
    BoundKind, NoiseSpec, SpectrumSpec, cli, generate_system, load_system, read_matrix, read_vector, seeding,
    write_matrix, write_vector,
)
from noisyrk.cli import main
from noisyrk.experiments import build_noisy

SPECTRUM = {"m": 30, "n": 15, "r": 15, "sigma_min": 1.0, "sigma_max": 4.0}
RK = {"max_iterations": 2000, "trials": 4, "record_stride": 100, "seed": 5}
# one valid config per subcommand; solve and bounds add the "system_dir" of a system
CONFIGS = {
    "gen": {"spectrum": SPECTRUM, "seed": 3},
    "solve": {"rk": RK},
    "bounds": {"rk": RK, "bounds": ["additive"]},
    "precondition": {"spectrum": SPECTRUM, "tau": 50.0, "rk": RK, "master_seed": 7},
    "table2": {"spectrum": SPECTRUM, "rk": RK, "master_seed": 7, "grid": [[0.0, 0.0]]},
    "figure": {"spectrum": SPECTRUM, "rk": RK, "master_seed": 7, "grid": [[0.0, 0.0]], "bounds": ["additive"]},
}


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def config_for(subcommand, system_dir, /, **change):
    """The valid config of ``subcommand`` with ``change`` on top."""
    data = dict(CONFIGS[subcommand])
    if subcommand in ("solve", "bounds"):
        data["system_dir"] = str(system_dir)
    return {**data, **change}


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture()
def system_dir(tmp_path):
    """A serialized additive noisy system for solve/bounds commands."""
    cfg = write_config(
        tmp_path / "gen.json",
        {
            "spectrum": SPECTRUM,
            "noise": {"model": "additive", "sigma_a": 0.05, "sigma_b": 0.05},
            "seed": 3,
        },
    )
    out = tmp_path / "system"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_expected_layout(self, system_dir):
        names = {p.name for p in system_dir.iterdir()}
        assert {"A.mat", "b.vec", "xls.vec", "atilde.mat", "btilde.vec", "meta.json"} <= names

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(
            tmp_path / "gen.json",
            {"spectrum": SPECTRUM, "noise": {"model": "additive", "sigma_a": 0.1}, "seed": 3},
        )
        out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
        main(["gen", "--config", cfg, "--out", str(out1), "--seed", "9"])
        main(["gen", "--config", cfg, "--out", str(out2), "--seed", "9"])
        main(["gen", "--config", cfg, "--out", str(out3)])
        assert snapshot(out1) == snapshot(out2)
        assert (out1 / "A.mat").read_bytes() != (out3 / "A.mat").read_bytes()

    def test_missing_compiler_exit_1(self, tmp_path, kernel_cache, monkeypatch, capsys):
        # gen writes its tables through the kernel library
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        cfg = write_config(tmp_path / "gen.json", CONFIGS["gen"])
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "system")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("kernel build error:")
        assert "gcc -O2 -fPIC -shared -ffp-contract=off" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "noise",
        [{"model": "additive", "sigma_a": 0.1, "sigma_b": 0.2},
         {"model": "multiplicative", "sigma_a": 0.05, "sigma_b": 0.1, "use_f": False},
         {"model": "partial_consistent", "sigma_a": 0.3},
         {"model": "preconditioner"}],
        ids=lambda noise: noise["model"],
    )
    def test_same_system_as_build_noisy(self, tmp_path, noise):
        cfg = write_config(tmp_path / "gen.json", {"spectrum": SPECTRUM, "noise": noise, "seed": 3})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "system")]) == 0
        loaded = load_system(tmp_path / "system")
        magnitudes = (noise.get("sigma_a", 0.0), noise.get("sigma_b", 0.0))
        sys_ = generate_system(SpectrumSpec(**SPECTRUM), 3)
        spec = NoiseSpec.from_dict({k: v for k, v in noise.items() if k not in ("sigma_a", "sigma_b")})
        built = build_noisy(spec, sys_, *magnitudes, 3)
        assert np.array_equal(loaded.a_tilde, built.a_tilde)
        assert np.array_equal(loaded.b_tilde, built.b_tilde)

    @pytest.mark.parametrize(
        "noise, key",
        [({"model": "preconditioner", "sigma_a": 0.1}, "sigma_a"),
         ({"model": "preconditioner", "sigma_b": 0.1}, "sigma_b"),
         ({"model": "partial_consistent", "sigma_a": 0.3, "sigma_b": 0.1}, "sigma_b")],
    )
    def test_magnitude_the_model_does_not_take_exit_1(self, tmp_path, capsys, noise, key):
        cfg = write_config(tmp_path / "gen.json", {"spectrum": SPECTRUM, "noise": noise, "seed": 3})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "system")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"takes no {key}" in err


class TestSolve:
    def test_happy_path(self, tmp_path, system_dir):
        cfg = write_config(tmp_path / "solve.json", {"system_dir": str(system_dir), "rk": RK})
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "traj.csv").read_text().splitlines()
        assert lines[0].startswith("iteration,mean_sq_err,std_sq_err,trial_0")
        assert (out / "band.csv").exists()

    def test_does_not_mutate_inputs(self, tmp_path, system_dir):
        before = snapshot(system_dir)
        cfg = write_config(tmp_path / "solve.json", {"system_dir": str(system_dir), "rk": RK})
        main(["solve", "--config", cfg, "--out", str(tmp_path / "run")])
        assert snapshot(system_dir) == before

    def test_missing_compiler_exit_1(self, tmp_path, system_dir, kernel_cache, monkeypatch, capsys):
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        cfg = write_config(tmp_path / "solve.json", {"system_dir": str(system_dir), "rk": RK})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("kernel build error:") and not err.startswith("config error:")
        assert "gcc -O2" in err
        assert "Traceback" not in err

    def test_unusable_kernel_cache_exit_1(self, tmp_path, system_dir, kernel_cache, monkeypatch, capsys):
        # a cache location under a regular file cannot be created
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        cfg = write_config(tmp_path / "solve.json", {"system_dir": str(system_dir), "rk": RK})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("kernel build error:") and not err.startswith("config error:")
        assert str(blocker / "noisyrk") in err
        assert "Traceback" not in err


class TestBounds:
    def test_valid_kinds(self, tmp_path, system_dir):
        cfg = write_config(
            tmp_path / "bounds.json",
            {"system_dir": str(system_dir), "rk": RK, "bounds": ["additive"]},
        )
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "bound_additive.csv").exists()
        assert (out / "bound_additive.meta.json").exists()

    def test_failed_hypothesis_exit_2(self, tmp_path, system_dir, capsys):
        # additive matrix noise leaves the noisy system inconsistent
        cfg = write_config(
            tmp_path / "bounds.json",
            {"system_dir": str(system_dir), "rk": RK, "bounds": ["perturbation_doubly"]},
        )
        code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "consistency" in err

    def test_a_failing_kind_writes_no_file(self, tmp_path, system_dir, capsys):
        # additive evaluates; multiplicative fails its hypothesis on the additive system
        kinds = ["additive", "multiplicative"]
        cfg = write_config(tmp_path / "bounds.json", config_for("bounds", system_dir, bounds=kinds))
        out = tmp_path / "bounds"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 2
        assert "multiplicative" in capsys.readouterr().err
        assert list(out.glob("bound_*")) == []

    def test_unknown_kind_is_config_error(self, tmp_path, system_dir, capsys):
        cfg = write_config(
            tmp_path / "bounds.json",
            {"system_dir": str(system_dir), "rk": RK, "bounds": ["nope"]},
        )
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_initial_error_is_the_trial_mean_that_solve_starts_from(self, tmp_path, system_dir):
        for sub in ("solve", "bounds"):
            cfg = write_config(tmp_path / f"{sub}.json", config_for(sub, system_dir))
            assert main([sub, "--config", cfg, "--out", str(tmp_path / sub), "--seed", "1"]) == 0
        traj = np.loadtxt(tmp_path / "solve" / "traj.csv", delimiter=",", skiprows=1)
        meta = json.loads((tmp_path / "bounds" / "bound_additive.meta.json").read_text())
        assert meta["initial_error"] == pytest.approx(traj[0, 1], rel=1e-12)

    def test_one_factorization_of_the_noisy_matrix_for_two_kinds(self, tmp_path, factorizations):
        gen = write_config(
            tmp_path / "gen.json",
            {"spectrum": SPECTRUM, "noise": {"model": "multiplicative", "sigma_a": 0.01}, "seed": 3},
        )
        system = tmp_path / "system"
        assert main(["gen", "--config", gen, "--out", str(system)]) == 0
        assert factorizations == []  # generating the system and its noise factors nothing
        cfg = write_config(
            tmp_path / "bounds.json",
            {"system_dir": str(system), "rk": RK, "bounds": ["additive", "multiplicative"]},
        )
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "bounds")]) == 0
        # load_system factors nothing; both kinds share the one least-squares call on At
        assert factorizations == [("lstsq", (30, 15))]


class TestMalformedSystem:
    @pytest.mark.parametrize("subcommand", ["solve", "bounds"])
    def test_misshaped_atilde_exit_1(self, tmp_path, system_dir, capsys, subcommand):
        lines = (system_dir / "atilde.mat").read_text().splitlines()
        (system_dir / "atilde.mat").write_text("\n".join(["20 15"] + lines[1:21]) + "\n")
        cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, system_dir))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "atilde.mat: shape (20, 15) does not match (30, 15)" in err

    @pytest.mark.parametrize(
        "kind, noise",
        [("noiseless", {"model": "additive"}),
         ("rhs_noise", {"model": "additive"}),
         ("additive", {"model": "additive"}),
         ("perturbation_doubly", {"model": "additive"}),
         ("multiplicative", {"model": "multiplicative", "sigma_a": 0.05}),
         ("multiplicative_perturbation", {"model": "multiplicative", "sigma_a": 0.05}),
         ("perturbation_partial", {"model": "partial_consistent", "sigma_a": 0.3})],
        ids=lambda v: v if isinstance(v, str) else v["model"],
    )
    def test_zero_atilde_exit_2(self, tmp_path, capsys, kind, noise):
        # each kind on a model whose gate it passes, so the zero iteration matrix is what fails
        gen = write_config(tmp_path / "gen.json", {"spectrum": SPECTRUM, "noise": noise, "seed": 3})
        system = tmp_path / "system"
        assert main(["gen", "--config", gen, "--out", str(system)]) == 0
        write_matrix(system / "atilde.mat", np.zeros((SPECTRUM["m"], SPECTRUM["n"])))
        cfg = write_config(tmp_path / "bounds.json", config_for("bounds", system, bounds=[kind]))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "bounds")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hypothesis failed:")
        assert "Traceback" not in err

    def test_zero_a_multiplicative_perturbation_exit_2(self, tmp_path, capsys):
        # At stays nonzero and consistent, so only ||pinv(A)|| is undefined
        spectrum = {**SPECTRUM, "m": 15}
        noise = {"model": "multiplicative", "sigma_a": 0.05, "sigma_b": 0.0}
        gen = write_config(tmp_path / "gen.json", {"spectrum": spectrum, "noise": noise, "seed": 3})
        system = tmp_path / "system"
        assert main(["gen", "--config", gen, "--out", str(system)]) == 0
        write_matrix(system / "A.mat", np.zeros((15, 15)))
        cfg = write_config(tmp_path / "bounds.json",
                           config_for("bounds", system, bounds=["multiplicative_perturbation"]))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "bounds")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hypothesis failed:")
        assert "Traceback" not in err
        assert not (tmp_path / "bounds").exists()


@pytest.fixture(scope="module")
def generated_systems(tmp_path_factory):
    """30x15 ``gen`` directories of the additive and the multiplicative model."""
    root = tmp_path_factory.mktemp("generated")
    systems = {}
    for model in ("additive", "multiplicative"):
        noise = {"model": model, "sigma_a": 0.05, "sigma_b": 0.05}
        cfg = write_config(root / f"{model}.json", {"spectrum": SPECTRUM, "noise": noise, "seed": 3})
        assert main(["gen", "--config", cfg, "--out", str(root / model)]) == 0
        systems[model] = root / model
    return systems


@st.composite
def directory_mutations(draw):
    """(model, mutation, its arguments, command): one change to a ``gen`` directory, and what reads it."""
    model = draw(st.sampled_from(["additive", "multiplicative"]))
    files = ["A.mat", "b.vec", "xls.vec", "atilde.mat", "btilde.vec"]
    files += ["e.mat", "f.mat", "eps.vec"] if model == "multiplicative" else []
    mutation = draw(st.sampled_from(["scale", "zero_row", "nan", "drop_row", "spec", "delete"]))
    if mutation == "scale":
        args = (draw(st.sampled_from(files)), draw(st.sampled_from([0.0, 1e-300, 1e300])))
    elif mutation in ("nan", "drop_row"):
        args = (draw(st.sampled_from(files)), draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6)))
    elif mutation == "zero_row":
        args = (draw(st.integers(0, SPECTRUM["m"] - 1)),)
    elif mutation == "spec":
        args = (draw(st.sampled_from(["m", "n"])), draw(st.sampled_from([-1, 1])))
    else:
        args = (draw(st.sampled_from([*files, "meta.json"])),)
    command = draw(st.sampled_from(["solve", *(kind.value for kind in BoundKind)]))
    return model, mutation, args, command


def mutate(system, mutation, args):
    """Apply ``mutation`` to the directory ``system`` in place."""
    if mutation == "scale":
        name, factor = args
        table = (read_matrix if name.endswith(".mat") else read_vector)(system / name)
        with np.errstate(over="ignore"):  # 1e300 overflows to inf, which the reader must reject
            (write_matrix if name.endswith(".mat") else write_vector)(system / name, table * factor)
    elif mutation == "zero_row":
        a_tilde = read_matrix(system / "atilde.mat")
        a_tilde[args[0]] = 0.0
        write_matrix(system / "atilde.mat", a_tilde)
    elif mutation in ("nan", "drop_row"):
        name, row, column = args
        lines = (system / name).read_text().splitlines()
        row = 1 + row % (len(lines) - 1)  # a body line: the first line is the dims header
        if mutation == "drop_row":
            del lines[row]
        else:
            tokens = lines[row].split()
            tokens[column % len(tokens)] = "nan"
            lines[row] = " ".join(tokens)
        (system / name).write_text("\n".join(lines) + "\n")
    elif mutation == "spec":
        key, step = args
        meta = json.loads((system / "meta.json").read_text())
        meta["spec"][key] += step
        (system / "meta.json").write_text(json.dumps(meta))
    else:
        (system / args[0]).unlink()


@settings(max_examples=60, deadline=None)
@given(case=directory_mutations())
@example(case=("additive", "scale", ("atilde.mat", 0.0), "additive"))  # a saved zero At once exited 0
@example(case=("multiplicative", "scale", ("A.mat", 0.0), "multiplicative_perturbation"))  # once an IndexError
def test_a_mutated_directory_ends_in_its_exit_code(generated_systems, case):
    # solve and every bound kind on a gen directory with one change: exit 0 with finite numbers, or
    # 1 or 2, never a traceback or a numpy warning; on exit 2 one line and no bound file
    model, mutation, args, command = case
    with tempfile.TemporaryDirectory() as tmp:
        system, out = Path(tmp) / "system", Path(tmp) / "out"
        shutil.copytree(generated_systems[model], system)
        mutate(system, mutation, args)
        subcommand = "solve" if command == "solve" else "bounds"
        change = {"rk": {"max_iterations": 300, "trials": 2, "record_stride": 100, "seed": 5}}
        if subcommand == "bounds":
            change["bounds"] = [command]
        cfg = write_config(Path(tmp) / "cfg.json", config_for(subcommand, system, **change))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", cfg, "--out", str(out)])
        err = err.getvalue()
        written = [np.loadtxt(f, delimiter=",", skiprows=1) for f in out.glob("*.csv")] if code == 0 else []
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert written or code != 0
    assert all(np.isfinite(values).all() for values in written)
    if code == 2:
        assert err.startswith("hypothesis failed:") and err.count("\n") == 1
        assert not out.exists() or not list(out.glob("bound_*"))


@pytest.mark.parametrize(
    "subcommand, change, code",
    [("table2", {"spectrum": {**SPECTRUM, "sigma_min": 1e-200, "sigma_max": 1e-199}}, 1),  # sigma_min^2 underflows
     ("figure", {"spectrum": {**SPECTRUM, "sigma_min": 1e-170, "sigma_max": 4e-170}}, 1),
     # the sum of squared row norms of the noisy matrix overflows, whatever the start mode
     ("table2", {"grid": [[1e300, 0.0]]}, 2),
     ("table2", {"grid": [[1e300, 0.0]], "rk": {**RK, "x0_mode": "zero"}}, 2),
     ("figure", {"grid": [[1e200, 0.0]], "noise": {"model": "multiplicative"}}, 2),
     # a finite noisy system whose horizon (||eps|| / sigma_min)^2 overflows, as does the spread of its RK errors
     ("table2", {"spectrum": {**SPECTRUM, "sigma_min": 1e-3}, "grid": [[0.0, 1e152]]}, 2),
     ("figure", {"spectrum": {**SPECTRUM, "sigma_min": 1e-3}, "grid": [[0.0, 1e152]]}, 2)],
    ids=["table2-tiny", "figure-tiny", "table2-huge-noise", "table2-huge-noise-zero-start", "figure-huge-factors",
         "table2-huge-horizon", "figure-huge-spread"],
)
def test_extreme_scales_end_in_a_named_error(tmp_path, capsys, recwarn, subcommand, change, code):
    cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, None, **change))
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "1"]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(("config error:", "hypothesis failed:")[code - 1])
    assert "Traceback" not in err and "NaN" not in err
    if code == 2:
        assert err.rstrip().endswith("out of scale")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def fresh_python(code: str) -> str:
    """What ``code`` prints in a new interpreter whose environment sets no thread count."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestFreshProcess:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
    def test_cli_import_starts_no_blas_thread(self):
        assert fresh_python("import os, noisyrk.cli; print(len(os.listdir('/proc/self/task')))") == "1"

    def test_numpy_loaded_first_keeps_the_environment(self):
        code = "import os, numpy, noisyrk.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert fresh_python(code) == "None"

    def test_package_import_loads_no_numpy(self):
        assert fresh_python("import sys, noisyrk; print('numpy' in sys.modules)") == "False"

    def test_library_names_keep_the_environment(self):
        code = "import os, noisyrk; noisyrk.solve; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert fresh_python(code) == "None"


class TestTable2:
    def test_happy_path_and_determinism(self, tmp_path):
        cfg = write_config(
            tmp_path / "t2.json",
            {
                "spectrum": SPECTRUM,
                "rk": RK,
                "master_seed": 7,
                "grid": [[0.0, 0.0], [0.0, 1.0]],
            },
        )
        out = tmp_path / "t2"
        assert main(["table2", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        assert (out / "table2.csv").exists()
        first = snapshot(out)
        assert main(["table2", "--config", cfg, "--seed", "7", "--out", str(out)]) == 0
        assert snapshot(out) == first

    def test_rank_one_system(self, tmp_path):
        # at (0, 0) the scaled condition number is sigma^2 / sigma^2 = 1 exactly, so the rate is 0
        cfg = write_config(tmp_path / "t2.json", {
            "spectrum": {"m": 20, "n": 10, "r": 1, "sigma_min": 2.0, "sigma_max": 2.0},
            "grid": [[0.0, 0.0], [0.1, 0.1]], "rk": {"max_iterations": 1, "trials": 3}, "master_seed": 0,
        })
        out = tmp_path / "t2"
        assert main(["table2", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        header, first = [line.split(",") for line in (out / "table2.csv").read_text().splitlines()[:2]]
        row = dict(zip(header, first))
        assert (row["sigma_a"], row["sigma_b"], row["kappa"], row["r_tilde"]) == ("0", "0", "1", "1")


@pytest.mark.parametrize("subcommand", ["table2", "figure"])
def test_recorded_config_reads_back(tmp_path, subcommand):
    # meta.json's config, fed back unchanged, reruns the same experiment
    grid = [[0.0, 0.0], [0.1, 0.1]]
    cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, None, grid=grid))
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([subcommand, "--config", cfg, "--out", str(first), "--threads", "1"]) == 0
    recorded = json.loads((first / "meta.json").read_text())["config"]
    cfg = write_config(tmp_path / "recorded.json", recorded)
    assert main([subcommand, "--config", cfg, "--out", str(again), "--threads", "1"]) == 0
    assert json.loads((again / "meta.json").read_text())["config"] == {**recorded, "output_dir": str(again)}
    files, rerun = snapshot(first), snapshot(again)
    del files["meta.json"], rerun["meta.json"]  # they differ in output_dir only, checked above
    assert files and rerun == files


class TestFigure:
    def test_happy_path(self, tmp_path):
        cfg = write_config(
            tmp_path / "fig.json",
            {
                "spectrum": SPECTRUM,
                "rk": RK,
                "master_seed": 7,
                "grid": [[0.0, 0.0]],
                "bounds": ["noiseless"],
                "noise": {"model": "additive"},
            },
        )
        out = tmp_path / "fig"
        assert main(["figure", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        assert (out / "traj_0_0.csv").exists()
        assert (out / "bound_noiseless_0_0.csv").exists()

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # at 500x300 the SVDs and products are large enough for OpenBLAS to split
        # them over threads, which changes their rounding unless the CLI pins one
        cfg = write_config(tmp_path / "fig.json", {
            "spectrum": {"m": 500, "n": 300, "r": 300, "sigma_min": 1.0, "sigma_max": 10.0},
            "rk": {"max_iterations": 300, "trials": 2, "seed": 1},
            "master_seed": 1,
            "grid": [[0.05, 0.05]],
            "bounds": ["additive", "multiplicative"],
            "noise": {"model": "multiplicative"},
        })
        out = tmp_path / "fig"  # one path for both runs, as meta.json records it
        runs = []
        for threads in ("1", "2", None):  # None: no OPENBLAS_NUM_THREADS, as the benchmark runs it
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": str(Path(cli.__file__).parents[1])}
            if threads is None:
                del env["OPENBLAS_NUM_THREADS"]
            done = subprocess.run(
                [sys.executable, "-m", "noisyrk.cli", "figure", "--config", cfg, "--out", str(out), "--threads", "1"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            runs.append(snapshot(out))
            out.rename(tmp_path / f"blas{threads}")
        assert len(runs[0]) == 7
        assert runs[0] == runs[1]
        assert runs[0] == runs[2]


class TestPrecondition:
    def test_happy_path(self, tmp_path):
        cfg = write_config(
            tmp_path / "pre.json",
            {
                "spectrum": {**SPECTRUM, "m": 20, "n": 10, "r": 10, "spacing": "flat_top"},
                "tau": 5.0,
                "rk": RK,
                "master_seed": 3,
            },
        )
        out = tmp_path / "pre"
        assert main(["precondition", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "traj_noisy.csv").exists()
        assert (out / "preconditioner.json").exists()

    def test_unreachable_tolerance_exit_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "pre.json",
            {
                "spectrum": {**SPECTRUM, "m": 20, "n": 10, "r": 10, "spacing": "flat_top"},
                "tau": 1e-12,
                "rk": RK,
                "master_seed": 3,
            },
        )
        code = main(["precondition", "--config", cfg, "--out", str(tmp_path / "pre")])
        assert code == 1
        assert "unreachable" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_exit_1(self, tmp_path, capsys):
        assert main(["table2", "--config", "x.json", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_missing_config_exit_1(self, capsys):
        assert main(["table2", "--config", "/nonexistent/t2.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["table2", "--config", str(path)]) == 1

    def test_missing_subcommand_exit_1(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [["figure", "--threads", "0"], ["table2", "--threads", "-2"],
         ["gen", "--threads", "7"], ["gen", "--scale", "paper"], ["solve", "--threads", "1"],
         ["bounds", "--scale", "desk"], ["precondition", "--threads", "2"]],
    )
    def test_pool_flags_only_on_figure_and_table2(self, capsys, argv):
        # --threads and --scale act on figure/table2 only, and --threads is at least 1
        assert main([*argv, "--config", "x.json"]) == 1
        assert "usage" in capsys.readouterr().err.lower()


class TestConfigErrors:
    @pytest.mark.parametrize(
        "subcommand, key",
        [("gen", "spectrum"), ("solve", "system_dir"), ("bounds", "bounds"),
         ("precondition", "tau"), ("table2", "master_seed"), ("figure", "spectrum")],
    )
    def test_missing_key_exit_1(self, tmp_path, system_dir, capsys, subcommand, key):
        data = config_for(subcommand, system_dir)
        del data[key]
        cfg = write_config(tmp_path / "cfg.json", data)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"missing required key '{key}'" in err

    @pytest.mark.parametrize(
        "spectrum, message",
        [({**SPECTRUM, "rank": 3}, "spectrum: unknown key 'rank'"),
         ({"m": 30, "n": 15, "r": 15, "sigma_max": 4.0}, "spectrum: missing required key 'sigma_min'"),
         ({**SPECTRUM, "m": "30"}, "bad value for 'spectrum'"),
         ({**SPECTRUM, "m": 30.0}, "spectrum: bad value for 'm': expected int, got 30.0"),
         ({**SPECTRUM, "sigma_min": True}, "spectrum: bad value for 'sigma_min'"),
         ({**SPECTRUM, "sigma_max": "4.0"}, "spectrum: bad value for 'sigma_max'"),
         ({**SPECTRUM, "sigma_min": float("nan")}, "spectrum: bad value for 'sigma_min'")],
    )
    @pytest.mark.parametrize("subcommand", ["gen", "figure"])
    def test_bad_spectrum_exit_1(self, tmp_path, capsys, spectrum, message, subcommand):
        cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, None, spectrum=spectrum))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["model", "sigma_a", "sigma_b"])
    def test_meta_without_key_exit_1(self, tmp_path, system_dir, capsys, key):
        meta = json.loads((system_dir / "meta.json").read_text())
        del meta[key]
        (system_dir / "meta.json").write_text(json.dumps(meta))
        cfg = write_config(tmp_path / "cfg.json", {"system_dir": str(system_dir), "rk": RK})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert f"meta.json: missing required key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, change, message",
        [("gen", {"bogus": 1}, "config: unknown key 'bogus'"),
         ("solve", {"bogus": 1}, "config: unknown key 'bogus'"),
         ("bounds", {"bogus": 1}, "config: unknown key 'bogus'"),
         ("precondition", {"bogus": 1}, "config: unknown key 'bogus'"),
         ("table2", {"bogus": 1}, "config: unknown key 'bogus'"),
         ("figure", {"bogus": 1}, "config: unknown key 'bogus'"),
         ("solve", {"bounds": ["additive"]}, "config: unknown key 'bounds'"),
         # the system directory does not exist: the whole config is read before loading it
         ("solve", {"rk": {**RK, "tirals": 5}, "system_dir": "no/system"}, "rk: unknown key 'tirals'"),
         ("figure", {"rk": {**RK, "tirals": 5}}, "rk: unknown key 'tirals'"),
         ("precondition", {"spectrum": {**SPECTRUM, "rank": 3}}, "spectrum: unknown key 'rank'"),
         ("figure", {"noise": {"model": "additive", "sigma_a": 0.5}}, "noise: unknown key 'sigma_a'"),
         ("table2", {"noise": {"model": "additive", "sigma_b": 0.5}}, "noise: unknown key 'sigma_b'"),
         ("solve", "meta.json", "meta.json: unknown key 'bogus'"),
         ("table2", {"bounds": ["additive"]}, "config: unknown key 'bounds'")],
    )
    def test_unknown_key_exit_1(self, tmp_path, system_dir, capsys, subcommand, change, message):
        if change == "meta.json":
            meta = json.loads((system_dir / "meta.json").read_text())
            (system_dir / "meta.json").write_text(json.dumps({**meta, "bogus": 1}))
            change = {}
        cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, system_dir, **change))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err

    @pytest.mark.parametrize(
        "data", [[1, 2], config_for("figure", None, noise=[1]), config_for("figure", None, rk={"trials": None})]
    )
    def test_wrong_json_type_exit_1(self, tmp_path, capsys, data):
        cfg = write_config(tmp_path / "cfg.json", data)
        assert main(["figure", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, change, key",
        [("figure", {"grid": 5}, "grid"),
         ("figure", {"rk": {**RK, "record_stride": [5]}}, "record_stride"),
         ("figure", {"output_dir": 5}, "output_dir"),
         ("precondition", {"initial_sq_error": [1.0]}, "initial_sq_error"),
         ("gen", {"noise": {"model": "additive", "sigma_a": True}}, "sigma_a"),
         ("gen", {"noise": {"model": "additive", "sigma_b": "0.1"}}, "sigma_b"),
         ("gen", {"noise": {"model": "additive", "sigma_a": float("nan")}}, "sigma_a"),
         ("precondition", {"tau": "5"}, "tau"),
         ("precondition", {"tau": True}, "tau"),
         ("precondition", {"initial_sq_error": float("inf")}, "initial_sq_error"),
         ("figure", {"grid": [[True, 0.0]]}, "grid"),
         ("table2", {"grid": [[0.0, "0.1"]]}, "grid"),
         ("figure", {"grid": [[float("nan"), 0.0]]}, "grid"),
         ("figure", {"grid": [[0.1234561, 0.0], [0.1234562, 0.0]]}, "grid"),  # both tagged 0.123456_0
         ("table2", {"grid": [[0.1234561, 0.0], [0.1234562, 0.0]]}, "grid"),
         ("bounds", {"bounds": "additive", "system_dir": "no/system"}, "bounds"),
         ("figure", {"bounds": "additive"}, "bounds"),
         ("solve", {"rk": {**RK, "x0_mode": "rowspace"}}, "x0_mode"),
         ("bounds", {"rk": {**RK, "x0_mode": "given"}}, "x0_mode")],
        ids=["grid", "record_stride", "output_dir", "initial_sq_error",
             "sigma_a-true", "sigma_b-string", "sigma_a-nan", "tau-string", "tau-true", "initial_sq_error-inf",
             "grid-true", "grid-string", "grid-nan", "figure-grid-shared-tag", "table2-grid-shared-tag",
             "bounds-string", "figure-bounds-string",
             "x0_mode-rowspace", "x0_mode-given"],
    )
    def test_wrong_value_type_names_key(self, tmp_path, system_dir, capsys, subcommand, change, key):
        cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, system_dir, **change))
        # output_dir is only read from the config when --out is absent
        out = [] if key == "output_dir" else ["--out", str(tmp_path / "x")]
        assert main([subcommand, "--config", cfg, *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"bad value for '{key}'" in err

    @pytest.mark.parametrize(
        "noise, key",
        [({"model": "partial_consistent", "strength": 0.3}, "strength"),
         ({"model": "multiplicative", "use_f": "false"}, "use_f"),
         ({"model": "multiplicative", "use_e": 0}, "use_e")],
    )
    @pytest.mark.parametrize("subcommand", ["gen", "figure"])
    def test_bad_noise_key_exit_1(self, tmp_path, capsys, subcommand, noise, key):
        cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, None, noise=noise))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"noise: unknown key '{key}'" in err or f"noise: bad value for '{key}'" in err

    @pytest.mark.parametrize("noise", [{"model": "additive", "use_e": False, "sigma_a": 0.1},
                                       {"model": "partial_consistent", "use_f": False}], ids=["use_e", "use_f"])
    @pytest.mark.parametrize("subcommand", ["gen", "figure", "table2"])
    def test_switch_outside_the_multiplicative_model_exit_1(self, tmp_path, capsys, subcommand, noise):
        # only the multiplicative model has factors to switch off; elsewhere a switch was ignored
        if subcommand != "gen":
            noise = {k: v for k, v in noise.items() if k != "sigma_a"}  # the grid carries the magnitudes
        cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, None, noise=noise))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        key = "use_e" if "use_e" in noise else "use_f"
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"noise: bad value for '{key}': only the multiplicative model switches a factor off" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "subcommand, change, key",
        [("solve", {"rk": {**RK, "max_iterations": 100.9}}, "max_iterations"),
         ("solve", {"rk": {**RK, "trials": 2.7}}, "trials"),
         ("solve", {"rk": {**RK, "record_stride": 50.5}}, "record_stride"),
         ("figure", {"rk": {**RK, "seed": 5.5}}, "seed"),
         ("figure", {"master_seed": 7.5}, "master_seed"),
         ("precondition", {"master_seed": 7.5}, "master_seed"),
         ("gen", {"seed": 3.5}, "seed"),
         ("gen", {"seed": True}, "seed")],
    )
    def test_fractional_integer_exit_1(self, tmp_path, system_dir, capsys, subcommand, change, key):
        cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, system_dir, **change))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"bad value for '{key}'" in err

    def test_program_type_error_is_not_a_config_error(self, tmp_path, system_dir, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand type(s)")

        monkeypatch.setattr(cli, "solve", broken)
        cfg = write_config(tmp_path / "cfg.json", {"system_dir": str(system_dir), "rk": RK})
        with pytest.raises(TypeError, match="unsupported operand"):
            main(["solve", "--config", cfg, "--out", str(tmp_path / "x")])


class _Captured(Exception):
    pass


class TestRkParsing:
    # where each subcommand hands over its parsed RkConfig
    HANDOFF = {
        "solve": ("solve", lambda args, kwargs: args[1]),
        "bounds": ("initial_iterates", lambda args, kwargs: args[1]),
        "precondition": ("run_preconditioner_demo", lambda args, kwargs: kwargs["rk"]),
        "figure": ("run_figure_experiment", lambda args, kwargs: args[0].rk),
        "table2": ("run_table2", lambda args, kwargs: args[0].rk),
    }

    @pytest.mark.parametrize("seed_flag, seed", [([], 9), (["--seed", "11"], 11)])
    def test_every_subcommand_parses_rk_alike(
        self, tmp_path, system_dir, monkeypatch, seed_flag, seed
    ):
        rk = {"max_iterations": 40, "trials": 3, "record_stride": 8, "seed": 9, "x0_mode": "zero"}
        for sub, (name, pick) in self.HANDOFF.items():
            cfg = write_config(tmp_path / f"{sub}.json", config_for(sub, system_dir, rk=rk))
            def capture(*args, _pick=pick, **kwargs):
                raise _Captured(_pick(args, kwargs))

            monkeypatch.setattr(cli, name, capture)
            argv = [sub, "--config", cfg, "--out", str(tmp_path / sub), *seed_flag]
            with pytest.raises(_Captured) as got:
                main(argv)
            parsed = got.value.args[0]
            fields = (parsed.max_iterations, parsed.trials, parsed.record_stride,
                      parsed.seed, parsed.x0_mode.value)
            assert fields == (40, 3, 8, seed, "zero"), sub


def bench_workloads(monkeypatch):
    """The benchmark's ``bench/workloads.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestBenchmarkLookups:
    def test_every_benchmark_config_parses(self, tmp_path, monkeypatch):
        # each command stops at its first step after reading the config, so
        # reaching it means the whole config parsed; a stricter reader must
        # never turn a benchmark operation into a config error
        module = bench_workloads(monkeypatch)

        def capture(*args, **kwargs):
            raise _Captured()

        for name in ("generate_system", "load_system", "run_table2", "run_figure_experiment"):
            monkeypatch.setattr(cli, name, capture)
        commands = set()
        for name, workload in module.WORKLOADS.items():
            for argv in workload.commands(tmp_path / name, 1, workload.threads):
                with pytest.raises(_Captured):
                    main(argv)
                commands.add(argv[0])
        assert commands == {"gen", "solve", "bounds", "table2", "figure"}

    @pytest.mark.parametrize("name", ["table2-sweep", "figure-multiplicative", "system-roundtrip"])
    def test_every_benchmark_operation_passes_its_check(self, tmp_path, monkeypatch, name):
        # the benchmark's own output checks, on one in-process rep at seed 1 with one worker:
        # a changed file set or format must not fail an operation of the benchmark
        workload = bench_workloads(monkeypatch).WORKLOADS[name]
        for argv in workload.commands(tmp_path, 1, 1 if workload.threads else None):
            assert main(argv) == 0, argv
        ops = workload.check(tmp_path)
        assert ops and [(op.name, op.reasons) for op in ops if op.reasons] == []

    def test_every_traced_name_exists(self):
        # the benchmark's tracer patches these names where the CLI and the
        # experiment runners look them up; a missing one would break it
        path = Path(__file__).resolve().parents[1] / "bench" / "trace_pass.py"
        spec = importlib.util.spec_from_file_location("trace_pass", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for target, attr, _ in module.TARGETS:
            assert hasattr(target, attr), f"{target.__name__}.{attr}"
        # its sampler replay draws make_sampler(a, seed, trial).sample_block(count): the
        # inverse-CDF rows of the trial's stream, as numpy's searchsorted gives them
        a = np.arange(12.0).reshape(4, 3)
        idx = module.make_sampler(a, 1, 2).sample_block(5)
        assert idx.dtype == np.int64 and idx.shape == (5,)
        cum = np.cumsum(np.sum(a * a, axis=1))
        u = seeding.stream(1, seeding.SAMPLER, 2).random(5)
        assert np.array_equal(idx, np.searchsorted(cum, u * cum[-1], side="right"))
