import dataclasses
import json

import numpy as np
import pytest

from noisyrk import SpectrumSpec, cli, generate_system, kaczmarz, problems
from noisyrk.linalg import _write_table


@pytest.fixture(scope="session", autouse=True)
def hermetic_kernel_cache(tmp_path_factory):
    """The kernel is built into a temporary cache of this run, not the user's; subprocesses inherit it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg")))
        kaczmarz._kernel.cache_clear()
        yield
    kaczmarz._kernel.cache_clear()


@pytest.fixture(scope="session")
def small_system():
    """40x20 full-column-rank consistent system, condition number 4."""
    spec = SpectrumSpec(m=40, n=20, r=20, sigma_min=1.0, sigma_max=4.0)
    return generate_system(spec, seed=7)


@pytest.fixture(scope="session")
def rank_deficient_system():
    """60x30 system with rank 20, so the minimal-norm solution matters."""
    spec = SpectrumSpec(m=60, n=30, r=20, sigma_min=2.0, sigma_max=10.0)
    return generate_system(spec, seed=19)


@pytest.fixture()
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd`` during the test."""
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.fixture()
def svds_of(monkeypatch):
    """How many times ``np.linalg.svd`` is called on a matrix equal to its argument during the test."""
    inputs = []
    real_svd = np.linalg.svd

    def recording_svd(*args, **kwargs):
        inputs.append(np.array(args[0]))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return lambda a: sum(x.shape == a.shape and np.array_equal(x, a) for x in inputs)


@pytest.fixture()
def factorizations(monkeypatch):
    """``("svd" | "lstsq", shape)`` for every ``np.linalg.svd`` and ``np.linalg.lstsq`` call during the test.

    The process-wide cache of the unit noise draws starts empty, so the
    draws are made during the test too.
    """
    calls = []
    for name in ("svd", "lstsq"):
        def recording(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append((_name, args[0].shape))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    problems._unit_draw.cache_clear()
    return calls


@pytest.fixture()
def kernel_cache(monkeypatch, tmp_path):
    """An empty kernel cache directory under ``tmp_path``; the kernel is loaded afresh in it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    kaczmarz._kernel.cache_clear()
    yield tmp_path / "xdg" / "noisyrk"
    kaczmarz._kernel.cache_clear()


def make_matrix_with_rank(rng: np.random.Generator, m: int, n: int, r: int) -> np.ndarray:
    """Exact-rank-r matrix from a product of Gaussian factors."""
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def write_table(path, array) -> None:
    """Write ``array`` into a system directory's table as ``save_system`` does: its shape is the header."""
    array = np.asarray(array, dtype=float)
    _write_table(path, " ".join(map(str, array.shape)), array, " ")


def run_command(subcommand: str, cfg, out, threads: int = 1) -> dict:
    """Run the experiment ``cfg`` as ``noisyrk <subcommand>`` into ``out``; return its files' bytes by name.

    The config goes to ``out`` with ``.json`` appended, beside the output directory.
    """
    data = dataclasses.asdict(cfg)
    if subcommand == "table2":
        del data["bounds"]  # the sweep evaluates no bounds and rejects the key
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps(data))
    assert cli.main([subcommand, "--config", str(config), "--out", str(out), "--threads", str(threads)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}
