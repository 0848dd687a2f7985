"""Building, caching and loading the compiled kernels."""

import subprocess
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from topicforge import ValidationError, kernels

from conftest import SRC, copy_package, python_command

# A small layout whose bytes a child process prints.
LAYOUT = """
import hashlib
import numpy as np
from topicforge import kernels
rng = np.random.default_rng(40)
n, m = 300, 2000
heads = rng.integers(0, n, m)
tails = (heads + 1 + rng.integers(0, n - 1, m)) % n
coords = kernels.optimize_layout(
    rng.uniform(-10.0, 10.0, (n, 3)), heads, tails, rng.uniform(0.05, 1.0, m),
    30, 5, 1.5769434602697652, 0.8950608778515733, 41,
)
print(hashlib.sha256(coords.tobytes()).hexdigest())
"""


# A C driver that runs the layout at 2, 3 and 4 threads on 8 chunks of
# edges, for a ThreadSanitizer build.
THREADED_LAYOUT = r"""
#include "_kernels.c"

int main(void)
{
    enum { N = 300, M = 2000, DIM = 2 };
    static double coords[N * DIM], weights[M];
    static int64_t heads[M], tails[M];
    for (int64_t k = 0; k < N * DIM; k++)
        coords[k] = (double)(k * 7919 % 2000) / 100.0 - 10.0;
    for (int64_t e = 0; e < M; e++) {
        heads[e] = e % N;
        tails[e] = (e * 37 + 1) % N;
        weights[e] = 1.0;
    }
    for (int64_t threads = 2; threads <= 4; threads++)
        if (tf_optimize_layout(coords, N, DIM, heads, tails, weights, M, 10, 5,
                               1.5769434602697652, 0.8950608778515733, 7, threads))
            return 1;
    return 0;
}
"""


def run_layout(pythonpath):
    return subprocess.Popen(**python_command("-c", LAYOUT, pythonpath=pythonpath))


def finish(child):
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    return out.strip()


def built_library_digest():
    """The layout's digest with the package under test, built already."""
    kernels.load()
    return finish(run_layout(SRC))


class TestCache:
    def test_name_follows_source_and_flags(self):
        source = b"int f(void) { return 1; }\n"
        name = kernels.library_name(source)
        assert name == kernels.library_name(source, kernels.FLAGS)
        assert name != kernels.library_name(source + b" ")
        assert name != kernels.library_name(source, kernels.FLAGS + ("-g",))
        assert name != kernels.library_name(source, kernels.FLAGS[1:])

    def test_two_first_uses_at_once_leave_one_complete_library(self, tmp_path):
        path = copy_package(tmp_path)
        children = [run_layout(path) for _ in range(2)]
        digests = [finish(child) for child in children]
        assert digests == [built_library_digest()] * 2
        package = tmp_path / "topicforge"
        built = sorted(p.name for p in (package / "__pycache__").glob("_kernels*"))
        source = (package / "_kernels.c").read_bytes()
        assert built == [kernels.library_name(source)]

    def test_unwritable_cache_builds_in_a_private_directory(self, tmp_path):
        path = copy_package(tmp_path)
        # A file where the cache directory should be: nothing can be cached.
        (tmp_path / "topicforge" / "__pycache__").write_text("")
        assert finish(run_layout(path)) == built_library_digest()
        assert (tmp_path / "topicforge" / "__pycache__").read_text() == ""


class TestPackaging:
    def test_source_resolves_as_a_package_resource(self):
        source = resources.files("topicforge").joinpath("_kernels.c")
        assert source.is_file()
        assert b"tf_optimize_layout" in source.read_bytes()

    def test_source_compiles_without_warnings(self, tmp_path):
        source = resources.files("topicforge").joinpath("_kernels.c").read_bytes()
        done = subprocess.run(
            [kernels.COMPILER, *kernels.FLAGS, "-Wall", "-Wextra", "-Werror",
             "-x", "c", "-", "-o", str(tmp_path / "kernels.so")],
            input=source,
            capture_output=True,
        )
        assert done.returncode == 0, done.stderr.decode(errors="replace")

    def test_threaded_layout_is_free_of_data_races(self, tmp_path):
        probe = tmp_path / "probe.c"
        probe.write_text("int main(void) { return 0; }\n")
        linked = subprocess.run(
            [kernels.COMPILER, "-fsanitize=thread", "-pthread", str(probe),
             "-o", str(tmp_path / "probe")],
            capture_output=True,
        )
        if linked.returncode != 0:
            pytest.skip(f"{kernels.COMPILER} cannot link ThreadSanitizer")
        driver = tmp_path / "driver.c"
        driver.write_text(THREADED_LAYOUT)
        built = subprocess.run(
            [kernels.COMPILER, "-O1", "-g", "-ffp-contract=off", "-fsanitize=thread",
             "-pthread", f"-I{Path(kernels.__file__).parent}", str(driver),
             "-o", str(tmp_path / "driver"), "-lm"],
            capture_output=True,
            text=True,
        )
        assert built.returncode == 0, built.stderr
        done = subprocess.run(
            [str(tmp_path / "driver")], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert "ThreadSanitizer" not in done.stdout + done.stderr

    def test_source_is_declared_package_data(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = '[tool.setuptools.package-data]\ntopicforge = ["_kernels.c"]\n'
        assert declared in pyproject.read_text()


class TestArguments:
    def test_rejects_endpoints_outside_the_points(self):
        for heads in ([0, 3], [-1, 1]):
            with pytest.raises(ValidationError, match=r"\[0, 3\)"):
                kernels.optimize_layout(
                    np.zeros((3, 2)), np.array(heads), np.array([1, 2]),
                    np.ones(2), 5, 1, 1.0, 1.0, 0,
                )

    def test_spanning_tree_rejects_mismatched_shapes(self):
        with pytest.raises(ValidationError, match="columns must be"):
            kernels.mst_reachability(np.zeros((2, 5)), np.zeros(4))
        with pytest.raises(ValidationError, match="at least 2 points"):
            kernels.mst_reachability(np.zeros((2, 1)), np.zeros(1))

    def test_core_distances_reject_bad_shapes_and_counts(self):
        for columns in (np.zeros(5), np.zeros((0, 5))):
            with pytest.raises(ValidationError, match="columns must be"):
                kernels.core_distances(columns, 1)
        for k in (0, 5):
            with pytest.raises(ValidationError, match=r"k must be in \[1, 4\]"):
                kernels.core_distances(np.zeros((2, 5)), k)

    def test_neighbor_rows_reject_mismatched_shapes(self):
        unit = np.eye(4)
        sims = np.ones((2, 4), dtype=np.float32)
        with pytest.raises(ValidationError, match="similarities must be"):
            kernels.knn_rows(sims[0], unit, 0, 1)
        with pytest.raises(ValidationError, match="must fit 3 unit rows"):
            kernels.knn_rows(sims, unit[:3], 0, 1)
        with pytest.raises(ValidationError, match=r"rows \[3, 5\)"):
            kernels.knn_rows(sims, unit, 3, 1)
        for k in (0, 4):
            with pytest.raises(ValidationError, match="k must be in"):
                kernels.knn_rows(sims, unit, 0, k)

    def test_input_coordinates_are_not_changed(self):
        coords = np.random.default_rng(42).uniform(-1.0, 1.0, (4, 2))
        before = coords.copy()
        out = kernels.optimize_layout(
            coords, np.array([0, 1]), np.array([2, 3]), np.ones(2), 5, 1, 1.0, 1.0, 0
        )
        assert np.array_equal(coords, before)
        assert not np.array_equal(out, before)
