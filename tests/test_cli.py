import contextlib
import importlib.util
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisyrk import (
    BoundKind, ExperimentConfig, NoiseSpec, RkConfig, SpectrumSpec, cli, experiments, generate_system, linalg,
    load_system, save_system, seeding,
)
from noisyrk.cli import main
from noisyrk.errors import HypothesisError
from noisyrk.experiments import build_noisy
from noisyrk.linalg import _read_table

from conftest import write_table

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
        spec = NoiseSpec(**{k: v for k, v in noise.items() if k not in ("sigma_a", "sigma_b")})
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

    def test_an_array_too_large_to_allocate_exit_1(self, tmp_path, capsys, monkeypatch):
        # the allocation is never made for real: a host that overcommits memory would start to fill it
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) and data type float64"

        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_system", too_large)
        spectrum = {**SPECTRUM, "m": 1_000_000, "n": 1_000_000, "r": 1}
        cfg = write_config(tmp_path / "cfg.json", config_for("gen", None, spectrum=spectrum))
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()


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
        write_table(system / "atilde.mat", np.zeros((SPECTRUM["m"], SPECTRUM["n"])))
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
        noisy = load_system(system)
        save_system(replace(noisy, base=replace(noisy.base, a=np.zeros((15, 15)))), system)
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
        table = _read_table(system / name, (None, None) if name.endswith(".mat") else (None,))
        with np.errstate(over="ignore"):  # 1e300 overflows to inf, which the reader must reject
            write_table(system / name, table * factor)
    elif mutation == "zero_row":
        a_tilde = _read_table(system / "atilde.mat", (None, None))
        a_tilde[args[0]] = 0.0
        write_table(system / "atilde.mat", a_tilde)
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
@example(case=("multiplicative", "scale", ("btilde.vec", 1e300), "multiplicative_perturbation"))  # ||bt|| overflowed
@example(case=("additive", "scale", ("atilde.mat", 0.0), "solve"))  # once a config error naming no file
def test_a_mutated_directory_ends_in_its_exit_code(generated_systems, case):
    # solve and every bound kind on a gen directory with one change: exit 0 with finite numbers, or
    # 1 naming a file of the directory, or 2, never a traceback or a numpy warning; on exit 2 one line
    # and no bound file
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
    if code == 1:
        assert f"{system}{os.sep}" in err
    if code == 2:
        assert err.startswith("hypothesis failed:") and err.count("\n") == 1
        assert not out.exists() or not list(out.glob("bound_*"))


_DROP = object()
# one value of each JSON type; a swap puts in one whose type differs from the value it replaces
_SWAPS = ["7", True, None, [7], {}, 7, 7.5]
# (subcommand, block, its replacement, the block and keys an exit-1 message names)
_OUT_OF_RANGE = [
    (subcommand, "spectrum", {**SPECTRUM, **values}, ("spectrum", (key,)))
    for subcommand in ("gen", "precondition", "table2", "figure")
    for values, key in [({"sigma_min": 5.0}, "sigma_min"), ({"r": 16}, "r"),
                        ({"sigma_min": 2.0, "sigma_max": 2.0}, "sigma_min"),
                        ({"spacing": "random_distinct", "sigma_min": 2.0, "sigma_max": 2.0 + 1e-7}, "sigma_max")]
]
_MODELS = ["additive", "multiplicative", "partial_consistent", "preconditioner"]
# (key, value) of an rk block: a count below 1 or past the kernel's int64, a negative seed
_RK_OUT_OF_RANGE = [("max_iterations", 0), ("max_iterations", 2**63), ("trials", 0), ("record_stride", 0),
                    ("seed", -1)]
# dropped, or the grid made null, these run their defaults: 10000 iterations, 10 trials, table2's ten points
_OVER_BUDGET = {("rk",), ("rk", "max_iterations"), ("rk", "trials"), ("grid",)}
# the keys a config cannot drop, as the README's schemas list them; a dropped one is exit 1
_REQUIRED = {"gen": {"spectrum"}, "solve": {"system_dir"}, "bounds": {"system_dir", "bounds"},
             "precondition": {"spectrum", "tau"}, "table2": {"spectrum", "master_seed"},
             "figure": {"spectrum", "master_seed"}}
_REQUIRED_SPECTRUM = {"m", "n", "r", "sigma_min", "sigma_max"}
# the keys whose value is any finite number (an integer too), and the keys that take null
_REAL = {"sigma_min", "sigma_max", "tau"}
_NULLABLE = {"record_stride", "grid"}


def _paths(data, prefix=()):
    """The key path of every value in ``data``, nested objects included."""
    for key, value in data.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _paths(value, (*prefix, key))


def _with(data, path, value):
    """A copy of ``data`` with the value at ``path`` replaced by ``value``, or dropped for ``_DROP``."""
    data = dict(data)
    if len(path) > 1:
        data[path[0]] = _with(data[path[0]], path[1:], value)
    elif value is _DROP:
        del data[path[0]]
    else:
        data[path[0]] = value
    return data


def _schema_code(subcommand, path, value):
    """The exit code the schema decides for ``value`` (``_DROP``: the key dropped) at ``path``, or None.

    A dropped required key and a value of a type the key does not take (a float where an integer goes) are
    exit 1; a dropped optional key, an integer where a real goes and a null where null is allowed may run.
    """
    if value is _DROP:
        required = {(key,) for key in _REQUIRED[subcommand]} | {("spectrum", key) for key in _REQUIRED_SPECTRUM}
        return 1 if path in required else None
    if type(value) is int and path[-1] in _REAL or value is None and path[-1] in _NULLABLE:
        return None
    return 1


@st.composite
def config_mutations(draw):
    """(subcommand, config, the block and keys an exit-1 message names, exit code or None, *extra flags).

    One change to a valid run: to the config, or a negative ``--seed`` flag, a usage error named by the flag.
    A change the schema rejects carries exit code 1; None is a change that may run, fail or be rejected.
    """
    subcommand = draw(st.sampled_from(sorted(CONFIGS)))
    data = config_for(subcommand, "system")
    kind = draw(st.sampled_from(["drop", "swap", "range", "flag"]))
    if kind == "flag":
        return subcommand, data, ("--seed", ("must be at least 0",)), 1, "--seed", "-1"
    if kind in ("drop", "swap"):
        path = draw(st.sampled_from([p for p in _paths(data) if kind == "swap" or p not in _OVER_BUDGET]))
        old = data
        for key in path:
            old = old[key]
        swaps = [v for v in _SWAPS if type(v) is not type(old) and not (v is None and path in _OVER_BUDGET)]
        value = _DROP if kind == "drop" else draw(st.sampled_from(swaps))
        names = (path[-2] if len(path) > 1 else "config", (path[-1],))
        return subcommand, _with(data, path, value), names, _schema_code(subcommand, path, value)
    # out of range: a spectrum rule, an rk value or a seed (exit 1), or magnitudes up to 1e300, q >= 1 among
    # them, under any model (any code)
    magnitude = st.one_of(st.sampled_from([0.0, 1e-300, 0.5, 1.0, 1e300]), st.floats(0.0, 1e300))
    cases = [(*case, 1) for case in _OUT_OF_RANGE if case[0] == subcommand]
    pair = [draw(magnitude), draw(magnitude)]
    model = draw(st.sampled_from(_MODELS))
    if subcommand == "gen":
        cases.append(("gen", "noise", {"model": model, "sigma_a": pair[0], "sigma_b": pair[1]},
                      ("noise", ("sigma_a", "sigma_b")), None))
    elif subcommand in ("figure", "table2"):  # table2 takes only the additive model
        cases.append((subcommand, "grid", [pair], ("grid", ("sigma_a", "sigma_b")), None))
    elif subcommand == "precondition":  # a tolerance at or below the horizon is unreachable
        cases.append(("precondition", "tau", pair[0], ("config", ("tau",)), None))
        cases.append(("precondition", "initial_sq_error", pair[1] - 1.0, ("config", ("initial_sq_error",)), None))
    if subcommand == "table2" and model != "additive":  # the sweep is defined for the additive model alone
        cases.append(("table2", "noise", {"model": model}, ("noise", ("model",)), 1))
    if subcommand == "table2":  # a point past the step ceiling, never one between 1e-4 and 1e-3 that would solve
        spectrum = {**SPECTRUM, "sigma_min": draw(st.sampled_from([1e-4, 1e-6])), "sigma_max": 1.0}
        cases.append(("table2", "spectrum", spectrum, ("spectrum", ("sigma_min",)), 2))
    if "rk" in data:
        cases += [(subcommand, "rk", {**RK, key: value}, ("rk", (key,)), 1) for key, value in _RK_OUT_OF_RANGE]
    cases += [(subcommand, key, -1, ("config", (key,)), 1) for key in ("seed", "master_seed") if key in data]
    _, block, value, names, code = draw(st.sampled_from(cases))
    if subcommand == "figure" and block == "grid":
        data = {**data, "noise": {"model": model}}
    if subcommand == "table2" and block == "noise" and model == "partial_consistent":
        data = {**data, "grid": [[0.5, 0.0]]}  # a point the model takes, so that the model is the one fault
    return subcommand, {**data, block: value}, names, code


def _expected_files(subcommand, data, meta) -> set:
    """The names of the files ``subcommand`` writes for the config ``data`` on exit 0.

    ``meta`` is the run's ``meta.json``, whose ``bound_errors`` name the kinds a figure point wrote no file for.
    """
    def bound_files(kinds, suffix=""):
        return {f"bound_{kind}{suffix}{ext}" for kind in kinds for ext in (".csv", ".meta.json")}

    if subcommand == "gen":
        noise = data.get("noise", {})
        names = {"A.mat", "b.vec", "xls.vec", "atilde.mat", "btilde.vec", "meta.json"}
        if noise.get("model") == "multiplicative":
            names |= {"eps.vec"} | {f"{key[-1]}.mat" for key in ("use_e", "use_f") if noise.get(key, True)}
        return names
    if subcommand == "bounds":
        return bound_files(data["bounds"])
    if subcommand == "figure":
        names = {"meta.json"}
        for sigma_a, sigma_b in data["grid"]:
            tag = f"{float(sigma_a):g}_{float(sigma_b):g}"
            failed = meta["bound_errors"].get(tag, {})
            names |= {f"traj_{tag}.csv", f"band_{tag}.csv"}
            names |= bound_files([kind for kind in data.get("bounds", []) if kind not in failed], f"_{tag}")
        return names
    return {"solve": {"traj.csv", "band.csv"}, "table2": {"table2.csv", "meta.json"},
            "precondition": {"traj_noiseless.csv", "traj_noisy.csv", "preconditioner.json"}}[subcommand]


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or np.isfinite(value)


@settings(max_examples=200, deadline=None)
@given(case=config_mutations())
# each once a config error naming neither the block nor the key, the spectrum rules from inside a run
@example(case=("gen", config_for("gen", None, spectrum={**SPECTRUM, "sigma_min": 2.0, "sigma_max": 2.0}),
               ("spectrum", ("sigma_min",)), 1))
@example(case=("table2", config_for("table2", None, spectrum={
    **SPECTRUM, "sigma_min": 2.0, "sigma_max": 2.0 + 1e-7, "spacing": "random_distinct"}), ("spectrum", ("sigma_max",)),
               1))
@example(case=("figure", config_for("figure", None, noise={"model": "partial_consistent"}),  # q = 0 at [0, 0]
               ("grid", ("sigma_a",)), 1))
@example(case=("gen", config_for("gen", None, noise={"model": "preconditioner", "sigma_b": 1e-300}),
               ("noise", ("sigma_b",)), 1))
@example(case=("precondition", config_for("precondition", None, tau=1e-300), ("config", ("tau",)), 1))
@example(case=("precondition", config_for("precondition", None, initial_sq_error=0.0),
               ("config", ("initial_sq_error",)), 1))
# each once a config error naming no block, raised by RkConfig or, for a seed, at the first draw
@example(case=("solve", config_for("solve", "system", rk={**RK, "max_iterations": 0}), ("rk", ("max_iterations",)),
               1))
@example(case=("bounds", config_for("bounds", "system", rk={**RK, "trials": 0}), ("rk", ("trials",)), 1))
@example(case=("figure", config_for("figure", None, rk={**RK, "record_stride": 0}), ("rk", ("record_stride",)), 1))
@example(case=("table2", config_for("table2", None, rk={**RK, "seed": -1}), ("rk", ("seed",)), 1))
@example(case=("gen", config_for("gen", None, seed=-1), ("config", ("seed",)), 1))
@example(case=("precondition", config_for("precondition", None, master_seed=-1), ("config", ("master_seed",)), 1))
@example(case=("figure", config_for("figure", None), ("--seed", ("must be at least 0",)), 1, "--seed", "-1"))
# each once exit 0 running a point or a kind twice, or a config error naming no key
@example(case=("table2", config_for("table2", None, grid=[[0.1, 0.1], [0.1, 0.1]]), ("config", ("'grid'",)), 1))
@example(case=("figure", config_for("figure", None, grid=[]), ("config", ("'grid'",)), 1))
@example(case=("bounds", config_for("bounds", "system", bounds=["additive", "additive"]),
               ("config", ("'bounds'",)), 1))
# a table2 point whose budget passes the step ceiling: exit 2 before it solves
@example(case=("table2", config_for("table2", None, spectrum={**SPECTRUM, "sigma_min": 1e-4, "sigma_max": 1.0}),
               ("spectrum", ("sigma_min",)), 2))
# each once a config error naming no block: the preconditioner's rank hypothesis, now exit 2
@example(case=("gen", config_for("gen", None, spectrum={**SPECTRUM, "r": 1}, noise={"model": "preconditioner"}),
               ("spectrum", ("r",)), 2))
@example(case=("figure", config_for("figure", None, spectrum={**SPECTRUM, "r": 1}, noise={"model": "preconditioner"}),
               ("spectrum", ("r",)), 2))
@example(case=("precondition", config_for("precondition", None, spectrum={**SPECTRUM, "r": 1}), ("spectrum", ("r",)),
               2))
def test_a_mutated_config_ends_in_its_exit_code(generated_systems, case):
    # each subcommand's valid config with one change: exit 0 with finite numbers and exactly the requested
    # files, 1 naming the block and the key, or 2 with one line; never a traceback or a numpy warning.  A
    # change whose code the schema decides must end in it
    subcommand, data, names, expected, *flags = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if data.get("system_dir") == "system":
            data = {**data, "system_dir": str(generated_systems["additive"])}
        cfg = write_config(Path(tmp) / "cfg.json", data)
        threads = ["--threads", "1"] if subcommand in ("table2", "figure") else []
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", cfg, "--out", str(out), *threads, *flags])
        err = err.getvalue()
        written = []
        if code == 0:
            meta = json.loads((out / "meta.json").read_text()) if subcommand == "figure" else None
            assert {p.name for p in out.iterdir()} == _expected_files(subcommand, data, meta)
            for file in sorted(out.rglob("*.*")):
                if file.suffix == ".json":
                    written.append(_finite(json.loads(file.read_text(), parse_constant=float)))
                else:
                    values = np.loadtxt(file, delimiter="," if file.suffix == ".csv" else None, skiprows=1)
                    written.append(bool(np.isfinite(values).all()))
    assert code in (0, 1, 2) if expected is None else code == expected, (code, err)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert all(written) and (written or code != 0)
    if code == 1:
        block, keys = names
        assert err.startswith("usage:" if flags else "config error:"), err
        assert block in err and any(key in err for key in keys), err
    if code == 2:
        assert err.startswith("hypothesis failed:") and err.count("\n") == 1, err


# each config record, the block of figure's config that it is read from with every key given, and the record's
# fields as Python builds it, a nested block given as its record
_BLOCKS = {
    "spectrum": (SpectrumSpec, {**SPECTRUM, "spacing": "even"}, SPECTRUM),
    "noise": (NoiseSpec, {"model": "additive", "use_e": True, "use_f": True}, {}),
    "rk": (RkConfig, {**RK, "x0_mode": "range"}, RK),
    "config": (ExperimentConfig, {**CONFIGS["figure"], "noise": {}}, {
        "spectrum": SpectrumSpec(**SPECTRUM), "rk": RkConfig(**RK), "master_seed": 7, "grid": ((0.0, 0.0),),
        "bounds": (BoundKind.ADDITIVE,)}),
}


def _rejected_changes():
    """(block, change): each value of the mutation vocabulary that the schema rejects, at a key of a record."""
    for block, (_, given_keys, _) in _BLOCKS.items():
        for key, old in given_keys.items():
            for value in _SWAPS:
                if type(value) is not type(old) and _schema_code(None, (key,), value) == 1:
                    yield block, {key: value}
    yield from (("spectrum", spectrum) for subcommand, _, spectrum, _ in _OUT_OF_RANGE if subcommand == "figure")
    yield from (("rk", {key: value}) for key, value in _RK_OUT_OF_RANGE)
    yield from [("spectrum", {"spacing": "7"}), ("noise", {"model": "7"}), ("noise", {"use_e": False}),
                ("rk", {"x0_mode": "7"}), ("config", {"master_seed": -1}), ("config", {"grid": []}),
                ("config", {"grid": [[0.1, 0.1], [0.1, 0.1]]}), ("config", {"bounds": ["additive", "additive"]}),
                ("config", {"bounds": [7]})]


@pytest.mark.parametrize("block, change", [
    pytest.param(block, change, id=f"{block}-{'-'.join(f'{k}={v!r}' for k, v in change.items())}")
    for block, change in _rejected_changes()
])
def test_python_and_json_reject_the_same_values(tmp_path, capsys, block, change):
    # a record built in Python takes what its config block takes: each value the CLI rejects, the record
    # rejects in the words the CLI prints
    data = config_for("figure", None)
    data = {**data, **change} if block == "config" else {**data, block: {**data.get(block, {}), **change}}
    cfg = write_config(tmp_path / "cfg.json", data)
    assert main(["figure", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    record, _, python_keys = _BLOCKS[block]
    with pytest.raises(ValueError) as info:
        record(**{**python_keys, **change})
    assert str(info.value).startswith(f"{block}: bad value for '") and str(info.value) in err, (str(info.value), err)


@pytest.mark.parametrize("build", [
    lambda: SpectrumSpec(m=30, n=15, r=15, sigma_min=1, sigma_max=4.0, spacing="random_distinct"),
    lambda: NoiseSpec("multiplicative", use_f=False),
    lambda: RkConfig(),
    lambda: RkConfig(max_iterations=np.int64(50), trials=np.int32(2), record_stride=7, seed=3, x0_mode="zero"),
    lambda: ExperimentConfig(**_BLOCKS["config"][2], noise=NoiseSpec("multiplicative", use_e=False)),
    lambda: ExperimentConfig(spectrum=SPECTRUM, rk=RkConfig(seed=7), master_seed=7),
], ids=["spectrum", "noise", "rk-defaults", "rk-numpy-integers", "config", "config-defaults"])
def test_a_record_survives_a_trip_through_json(build):
    # what asdict writes, the record reads back: a numpy integer is stored as int, an enum as its member
    record = build()
    assert type(record)(**json.loads(json.dumps(asdict(record)))) == record


@pytest.mark.parametrize("subcommand, rk", [("figure", None), ("table2", {"max_iterations": 300, "trials": 2})])
def test_an_rk_seed_left_out_is_master_seed_in_python_as_in_json(tmp_path, subcommand, rk):
    # the record a command reads, as its meta.json echoes it, is the one Python builds with the rk seed
    # set to master_seed (7); Python cannot leave rk out, so no record takes another seed silently
    data = {key: value for key, value in config_for(subcommand, None).items() if key != "rk"}
    cfg = write_config(tmp_path / "cfg.json", data if rk is None else {**data, "rk": rk})
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
    read = json.loads((tmp_path / "out" / "meta.json").read_text())["config"]
    del read["output_dir"]
    python = {"spectrum": SpectrumSpec(**SPECTRUM), "master_seed": 7, "grid": ((0.0, 0.0),)}
    if subcommand == "figure":
        python["bounds"] = (BoundKind.ADDITIVE,)
    assert ExperimentConfig(**read) == ExperimentConfig(**python, rk=RkConfig(**rk or {}, seed=7))
    with pytest.raises(TypeError, match="'rk'"):
        ExperimentConfig(**python)


@pytest.mark.parametrize(
    "subcommand, change, code",
    # every squared entry underflows, so the sum of squared row norms is 0
    [("table2", {"spectrum": {**SPECTRUM, "sigma_min": 1e-200, "sigma_max": 1e-199}}, 2),
     ("figure", {"spectrum": {**SPECTRUM, "sigma_min": 1e-170, "sigma_max": 4e-170}}, 2),
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


@pytest.mark.parametrize(
    "subcommand, change, code, named",
    [("table2", {"grid": [[0.1, 0.1], [0.1, 0.1]]}, 1, "'grid'"),
     ("figure", {"grid": [[0.1, 0.1], [0.1, 0.1]]}, 1, "'grid'"),
     ("table2", {"grid": []}, 1, "'grid'"),
     ("figure", {"bounds": ["additive", "additive"]}, 1, "'bounds'"),
     ("bounds", {"bounds": ["additive", "additive"]}, 1, "'bounds'"),
     ("gen", {"spectrum": {**SPECTRUM, "r": 1}, "noise": {"model": "preconditioner"}}, 2, "rank at least 2"),
     ("figure", {"spectrum": {**SPECTRUM, "r": 1}, "noise": {"model": "preconditioner"}}, 2, "rank at least 2"),
     ("precondition", {"spectrum": {**SPECTRUM, "r": 1}}, 2, "rank at least 2")],
)
def test_repeats_and_the_preconditioner_rank_end_in_their_codes(tmp_path, capsys, subcommand, change, code, named):
    # a repeated grid point or bound kind, or an empty grid, is a config error naming its key; the
    # preconditioner's rank is a hypothesis of the model, like the other construction checks
    cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, tmp_path / "system", **change))
    threads = ["--threads", "1"] if subcommand in ("table2", "figure") else []
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out"), *threads]) == code
    err = capsys.readouterr().err
    assert err.startswith(("config error:", "hypothesis failed:")[code - 1]) and err.count("\n") == 1, err
    assert named in err and not (tmp_path / "out").exists()


def assert_out_of_scale(err, recwarn):
    """``err`` is one ``hypothesis failed:`` line ending ``out of scale``, and no numpy warning was raised."""
    assert err.startswith("hypothesis failed:") and err.count("\n") == 1
    assert err.rstrip().endswith("out of scale")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("factor", [0.0, 1e-300, 1e300])
@pytest.mark.parametrize("command", ["solve", "additive", "multiplicative_perturbation"])
@pytest.mark.parametrize("model", ["additive", "multiplicative"])
def test_a_loaded_system_out_of_scale_fails_as_a_built_one(generated_systems, tmp_path, capsys, recwarn, model,
                                                           command, factor):
    # the admission of every noisy system: a loaded At whose squared row norms sum to 0 or overflow fails
    # the same hypothesis, in the same words, as one built at such magnitudes
    system = tmp_path / "system"
    shutil.copytree(generated_systems[model], system)
    mutate(system, "scale", ("atilde.mat", factor))
    subcommand = "solve" if command == "solve" else "bounds"
    cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, system, **(
        {"bounds": [command]} if subcommand == "bounds" else {})))
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert_out_of_scale(capsys.readouterr().err, recwarn)


def test_a_right_hand_side_whose_norm_overflows_is_out_of_scale(tmp_path, capsys, recwarn):
    # gen admits bt near 1e301, whose norm overflows: the bound names it, where a warning once came first
    noise = {"model": "multiplicative", "sigma_a": 0.05, "sigma_b": 1e300}
    gen = write_config(tmp_path / "gen.json", {"spectrum": SPECTRUM, "noise": noise, "seed": 3})
    system = tmp_path / "system"
    assert main(["gen", "--config", gen, "--out", str(system)]) == 0
    cfg = write_config(tmp_path / "bounds.json",
                       config_for("bounds", system, bounds=["multiplicative_perturbation"]))
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert_out_of_scale(capsys.readouterr().err, recwarn)


def test_an_adaptive_budget_past_the_kernel_count_is_a_failed_hypothesis(tmp_path, capsys):
    # R~ = 5.2e18 asks for 1.6e20 iterations, past the kernel's int64: the step ceiling, far below it, makes one line
    # naming the point, R~, the budget and the ceiling, not an OverflowError, and not a config error about an rk key
    # the config never set
    spectrum = {**SPECTRUM, "sigma_min": 1e-9, "sigma_max": 1.0}
    cfg = write_config(tmp_path / "cfg.json", config_for(
        "table2", None, spectrum=spectrum, rk={"max_iterations": 1, "trials": 2}, master_seed=1))
    assert main(["table2", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hypothesis failed: at grid point [0, 0]") and err.count("\n") == 1, err
    assert "5.17857e+18" in err and "161362376837570150400 iterations" in err and "10000000000" in err
    assert not (tmp_path / "out").exists()


class Reached(Exception):
    """Raised by a patched ``solve`` with the steps it was asked for, so a test never runs them."""


def reached(noisy, rk, x0s):
    raise Reached(rk.trials * rk.max_iterations)


def test_a_point_past_the_step_ceiling_is_a_failed_hypothesis_before_it_solves(tmp_path, capsys, monkeypatch):
    # sigma_min 1e-4 asks for 16 137 691 500 iterations over 2 trials, 3.2e10 steps (about 30 min at 50 ns a step)
    monkeypatch.setattr(experiments, "solve", reached)
    spectrum = {**SPECTRUM, "sigma_min": 1e-4, "sigma_max": 1.0}
    cfg = write_config(tmp_path / "cfg.json", config_for(
        "table2", None, spectrum=spectrum, rk={"max_iterations": 1, "trials": 2}, master_seed=1))
    assert main(["table2", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hypothesis failed: at grid point [0, 0]") and err.count("\n") == 1, err
    for part in ("5.17904e+08", "16137691500 iterations", "32275383000 steps", "the 10000000000 a grid point"):
        assert part in err, (part, err)
    assert not (tmp_path / "out").exists()


def test_a_point_below_the_step_ceiling_solves(tmp_path, monkeypatch):
    # sigma_min 1e-3: 161 507 885 iterations over 2 trials, 3.2e8 steps, reach the solve
    monkeypatch.setattr(experiments, "solve", reached)
    spectrum = {**SPECTRUM, "sigma_min": 1e-3, "sigma_max": 1.0}
    cfg = write_config(tmp_path / "cfg.json", config_for(
        "table2", None, spectrum=spectrum, rk={"max_iterations": 1, "trials": 2}, master_seed=1))
    with pytest.raises(Reached) as info:
        main(["table2", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "1"])
    assert info.value.args == (323015770,)


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

    @pytest.mark.skipif(not os.path.isfile("/proc/self/maps"), reason="reads /proc/self/maps")
    def test_a_cli_process_and_its_pool_workers_never_map_openssl(self, tmp_path):
        # each worker writes what it maps into a file named for its pid; hashlib is loaded for the kernel's key
        cfg = write_config(tmp_path / "fig.json", config_for("figure", None, grid=[[0.0, 0.0], [0.1, 0.1]]))
        code = f"""if True:
            import os, sys
            from pathlib import Path
            import noisyrk.cli as cli, noisyrk.experiments as experiments
            def crypto():
                return "libcrypto" in Path("/proc/self/maps").read_text()
            parent, run = os.getpid(), experiments._run_grid_point
            def mapped(*args):
                if os.getpid() != parent:
                    Path({str(tmp_path)!r}, str(os.getpid())).write_text(str(crypto()))
                return run(*args)
            experiments._run_grid_point = mapped
            for threads in ("1", "2"):
                assert cli.main(["figure", "--config", {cfg!r}, "--out", {str(tmp_path / "out")!r} + threads,
                                 "--threads", threads]) == 0
            print(sys.modules.get("_hashlib"), "hashlib" in sys.modules, "numpy.random" in sys.modules, crypto())
        """
        assert fresh_python(code) == "None True True False"
        workers = [path for path in tmp_path.iterdir() if path.name.isdigit()]
        assert workers and all(path.read_text() == "False" for path in workers)

    def test_numpy_loaded_first_keeps_openssl(self):
        assert fresh_python("import numpy, noisyrk.cli, _hashlib; print(_hashlib.__name__)") == "_hashlib"

    def test_a_warm_run_imports_neither_subprocess_nor_logging(self, tmp_path):
        linalg._kernel()  # the fresh process finds the library in the cache it inherits
        system = tmp_path / "system"
        runs = [("gen", config_for("gen", None), system)]
        runs += [(sub, config_for(sub, system), tmp_path / sub) for sub in ("solve", "bounds", "figure")]
        argvs = [[sub, "--config", write_config(tmp_path / f"{sub}.json", data), "--out", str(out)]
                 for sub, data, out in runs]
        argvs[-1] += ["--threads", "1"]
        code = f"""if True:
            import sys, noisyrk.cli as cli
            for argv in {argvs!r}:
                assert cli.main(argv) == 0, argv
            print(sorted({{"subprocess", "logging"}} & sys.modules.keys()))
        """
        assert fresh_python(code) == "[]"

    def test_the_kernel_library_name_does_not_depend_on_openssl(self):
        # the cache key is a SHA-256 digest, which the built-in and OpenSSL's implementations agree on
        code = "import sys, noisyrk.cli, noisyrk.linalg as lib; print(sys.modules['_hashlib'], lib._kernel()._name)"
        assert fresh_python(code) == f"None {linalg._kernel()._name}"


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

    def test_a_pool_workers_warning_reaches_meta_json(self, tmp_path, capsys, monkeypatch):
        # a budget of one step, in a pool worker only, leaves the geometric term: the warning can only come from one
        parent, budget = os.getpid(), experiments._adaptive_iterations
        monkeypatch.setattr(experiments, "_adaptive_iterations",
                            lambda *args: 1 if os.getpid() != parent else budget(*args))
        cfg = write_config(tmp_path / "t2.json", config_for("table2", None, grid=[[0.0, 0.0], [0.1, 0.1]]))
        assert main(["table2", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "2"]) == 0
        warnings = json.loads((tmp_path / "out" / "meta.json").read_text())["warnings"]
        assert set(warnings) == {"0_0", "0.1_0.1"}
        assert all(any("still carries a geometric term" in message for message in ms) for ms in warnings.values())
        err = capsys.readouterr().err
        assert sorted(err.splitlines()) == sorted(f"warning: {message}" for ms in warnings.values() for message in ms)

    def test_a_noiseless_point_past_its_zero_horizon_warns(self, tmp_path, capsys, monkeypatch):
        # a budget of one step at the first point, 0_0, leaves its error far above its horizon of 0
        budget, first = experiments._adaptive_iterations, iter([1])
        monkeypatch.setattr(experiments, "_adaptive_iterations", lambda *args: next(first, None) or budget(*args))
        cfg = write_config(tmp_path / "t2.json", config_for("table2", None, grid=[[0.0, 0.0], [0.1, 0.1]]))
        assert main(["table2", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
        warnings = json.loads((tmp_path / "out" / "meta.json").read_text())["warnings"]
        assert list(warnings) == ["0_0"] and len(warnings["0_0"]) == 2
        geometric, ordering = warnings["0_0"]
        assert "still carries a geometric term" in geometric
        assert "exceeds the theoretical horizon 0 at (0, 0)" in ordering
        assert capsys.readouterr().err.splitlines() == [f"warning: {geometric}", f"warning: {ordering}"]

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


FIVE_POINTS = [[0.0, 0.0], [0.01, 0.01], [0.05, 0.05], [0.1, 0.1], [0.5, 0.5]]


RUN_TABLE2_POINT = experiments._run_table2_point


def fails_twice(cfg, sys_, sigma_a, sigma_b):
    # the second point fails after a pause, the third at once
    if (sigma_a, sigma_b) in ((0.01, 0.01), (0.05, 0.05)):
        time.sleep(0.3 if sigma_a == 0.01 else 0.0)
        raise HypothesisError(f"point [{sigma_a:g}, {sigma_b:g}] fails")
    return RUN_TABLE2_POINT(cfg, sys_, sigma_a, sigma_b)


def killed_at_a_point(cfg, sys_, sigma_a, sigma_b):
    # the third point kills the process that runs it
    if (sigma_a, sigma_b) == (0.05, 0.05):
        os.kill(os.getpid(), signal.SIGKILL)
    return RUN_TABLE2_POINT(cfg, sys_, sigma_a, sigma_b)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedGrid:
    """``--threads`` above 1 runs the grid points in forks of the CLI process."""

    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path):
        # five points on up to three workers: more points than workers, and uneven adaptive budgets
        cfg = write_config(tmp_path / "t2.json", config_for("table2", None, grid=FIVE_POINTS))
        out, runs = tmp_path / "out", []
        for threads in ("1", "2", "3"):
            assert main(["table2", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
            runs.append(snapshot(out))
            shutil.rmtree(out)
        assert runs[0]["table2.csv"].count(b"\n") == 6 and runs[1] == runs[0] and runs[2] == runs[0]
        assert_no_child_left()

    def test_a_failed_first_point_stops_the_pool(self, tmp_path, capsys, monkeypatch):
        # the step ceiling just below the first point's budget fails it before it solves, and every other point
        # passes; each solve leaves a marker file and takes long enough that the failure empties the queue first
        cfg = write_config(tmp_path / "t2.json", config_for("table2", None, grid=FIVE_POINTS))
        assert main(["table2", "--config", cfg, "--out", str(tmp_path / "budgets"), "--threads", "1"]) == 0
        budgets = json.loads((tmp_path / "budgets" / "meta.json").read_text())["adaptive_iterations"]
        first = RK["trials"] * budgets.pop("0_0")
        assert RK["trials"] * max(budgets.values()) < first
        monkeypatch.setattr(experiments, "_MAX_STEPS", first - 1)
        markers, run = tmp_path / "solves", experiments.solve
        markers.mkdir()

        def marked(*args):
            (markers / f"{os.getpid()}-{len(list(markers.iterdir()))}").touch()
            time.sleep(0.3)
            return run(*args)

        monkeypatch.setattr(experiments, "solve", marked)
        errors = []
        for threads in ("1", "2"):
            assert main(["table2", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", threads]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("hypothesis failed: at grid point [0, 0]") and errors[1] == errors[0]
        assert len(list(markers.iterdir())) <= 1  # at most threads - 1 points solved
        assert not (tmp_path / "out").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_the_first_failed_point_in_grid_order_is_reported(self, tmp_path, capsys, monkeypatch, threads):
        # the second point fails late, the third at once: the second is still the one reported
        monkeypatch.setattr(experiments, "_run_table2_point", fails_twice)
        cfg = write_config(tmp_path / "t2.json", config_for("table2", None, grid=FIVE_POINTS))
        assert main(["table2", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", threads]) == 2
        assert capsys.readouterr().err == "hypothesis failed: point [0.01, 0.01] fails\n"
        assert_no_child_left()

    def test_a_killed_worker_is_one_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "_run_table2_point", killed_at_a_point)
        cfg = write_config(tmp_path / "t2.json", config_for("table2", None, grid=FIVE_POINTS))
        assert main(["table2", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: a grid worker ended") and err.count("\n") == 1, err
        assert "killed by signal 9" in err and "[0.05, 0.05]" in err
        assert not (tmp_path / "out").exists()
        assert_no_child_left()


@pytest.mark.parametrize(
    "subcommand, change",
    [("table2", {}), ("figure", {}),
     ("figure", {"noise": {"model": "multiplicative", "use_e": False}, "bounds": ["additive", "rhs_noise"]})],
    ids=["table2", "figure", "figure-multiplicative"],
)
def test_recorded_config_reads_back(tmp_path, subcommand, change):
    # meta.json's config, fed back unchanged, reruns the same experiment
    grid = [[0.0, 0.0], [0.1, 0.1]]
    cfg = write_config(tmp_path / "cfg.json", config_for(subcommand, None, grid=grid, **change))
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
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_failed_run_writes_nothing(self, tmp_path, capsys, threads):
        # the second point is out of scale: the first point's files must not be left behind
        cfg = write_config(tmp_path / "fig.json", config_for("figure", None, grid=[[0.1, 0.1], [1e300, 0.0]]))
        out = tmp_path / "fig"
        assert main(["figure", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hypothesis failed:") and err.count("\n") == 1
        assert err.rstrip().endswith("out of scale")
        assert not out.exists()

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


class TestThreadsDefault:
    def test_affinity_sets_the_default(self, monkeypatch):
        # a process bound to one core of eight runs one worker
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert cli._build_parser().parse_args(["figure", "--config", "x.json"]).threads == 1

    def test_an_unknown_core_count_runs_one_worker(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._build_parser().parse_args(["table2", "--config", "x.json"]).threads == 1
        cfg = write_config(tmp_path / "t2.json", config_for("table2", None, grid=[[0.0, 0.0], [0.1, 0.1]]))
        assert main(["table2", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


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
