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

# A C driver that calls every kernel entry on 300 small random inputs, for
# an AddressSanitizer and UndefinedBehaviorSanitizer build.  Every buffer
# is malloc'd at its exact size, so a read or write past one is caught.
# One trial in three rounds the points to integers, so points repeat.
EVERY_KERNEL = r"""
#include "_kernels.c"
#include <stdio.h>

static uint64_t drv_state = 12345;

static uint64_t drv_next(void)
{
    uint64_t z = (drv_state += 0x9e3779b97f4a7c15u);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
    return z ^ (z >> 31);
}

/* Uniform in [lo, hi]. */
static int64_t drv_int(int64_t lo, int64_t hi)
{
    return lo + (int64_t)(drv_next() % (uint64_t)(hi - lo + 1));
}

static double drv_uniform(void)
{
    return (double)(drv_next() >> 11) * 0x1p-53;
}

static int drv_trial(int64_t trial)
{
    const int64_t n = drv_int(2, 60), dim = drv_int(1, 9), k = drv_int(1, n - 1);
    const int64_t m = drv_int(1, 10 * n);
    double *points = malloc(n * dim * sizeof(double));
    double *unit = malloc(n * dim * sizeof(double));
    float *sims = malloc(n * n * sizeof(float));
    double *core = malloc(n * sizeof(double));
    double *edges = malloc((n - 1) * 3 * sizeof(double));
    int64_t *indices = malloc(n * k * sizeof(int64_t));
    double *distances = malloc(n * k * sizeof(double));
    int64_t *heads = malloc(m * sizeof(int64_t)), *tails = malloc(m * sizeof(int64_t));
    double *weights = malloc(m * sizeof(double));
    for (int64_t i = 0; i < n * dim; i++) {
        points[i] = 4.0 * drv_uniform();
        if (trial % 3 == 0)
            points[i] = (double)(int64_t)points[i];
    }
    for (int64_t i = 0; i < n; i++) {
        double norm = 0.0;
        for (int64_t c = 0; c < dim; c++)
            norm += (points[i * dim + c] + 1.0) * (points[i * dim + c] + 1.0);
        for (int64_t c = 0; c < dim; c++)
            unit[i * dim + c] = (points[i * dim + c] + 1.0) / sqrt(norm);
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++) {
            float s = 0.0f;
            for (int64_t c = 0; c < dim; c++)
                s += (float)unit[i * dim + c] * (float)unit[j * dim + c];
            sims[i * n + j] = s;
        }
    for (int64_t e = 0; e < m; e++) {
        heads[e] = drv_int(0, n - 1);
        tails[e] = (heads[e] + drv_int(1, n - 1)) % n;
        weights[e] = 0.05 + 0.95 * drv_uniform();
    }
    const int64_t first = drv_int(0, n - 1), rows = drv_int(1, n - first);
    int status = tf_core_distances(points, n, dim, k, core)
                 || tf_mst_reachability(points, core, n, dim, edges)
                 || tf_knn_rows(sims + first * n, rows, first, unit, n, dim, k, indices,
                                distances)
                 || tf_optimize_layout(points, n, dim, heads, tails, weights, m, 5,
                                       drv_int(0, 5), 1.58, 0.9, (uint64_t)trial, 3);
    free(points);
    free(unit);
    free(sims);
    free(core);
    free(edges);
    free(indices);
    free(distances);
    free(heads);
    free(tails);
    free(weights);
    return status;
}

int main(void)
{
    for (int64_t trial = 0; trial < 300; trial++)
        if (drv_trial(trial)) {
            printf("trial %ld: a kernel returned non-zero\n", (long)trial);
            return 1;
        }
    return 0;
}
"""


def run_sanitized(tmp_path, source, sanitizers, *flags):
    """Build the C driver ``source`` with ``-fsanitize=<sanitizers>`` and
    ``flags``, run it, and return what it printed.  Skips when the compiler
    cannot link those sanitizers."""
    sanitize = f"-fsanitize={sanitizers}"
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    linked = subprocess.run(
        [kernels.COMPILER, sanitize, "-pthread", str(probe),
         "-o", str(tmp_path / "probe")],
        capture_output=True,
    )
    if linked.returncode != 0:
        pytest.skip(f"{kernels.COMPILER} cannot link -fsanitize={sanitizers}")
    driver = tmp_path / "driver.c"
    driver.write_text(source)
    built = subprocess.run(
        [kernels.COMPILER, "-O1", "-g", "-ffp-contract=off", sanitize, *flags,
         "-pthread", f"-I{Path(kernels.__file__).parent}", str(driver),
         "-o", str(tmp_path / "driver"), "-lm"],
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr
    done = subprocess.run(
        [str(tmp_path / "driver")], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout + done.stderr


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
        output = run_sanitized(tmp_path, THREADED_LAYOUT, "thread")
        assert "ThreadSanitizer" not in output

    def test_every_entry_is_free_of_memory_errors(self, tmp_path):
        output = run_sanitized(
            tmp_path, EVERY_KERNEL, "address,undefined", "-fno-sanitize-recover=all"
        )
        assert "Sanitizer" not in output and "runtime error" not in output

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
        with pytest.raises(ValidationError, match="points must be"):
            kernels.mst_reachability(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValidationError, match="at least 2 points"):
            kernels.mst_reachability(np.zeros((1, 2)), np.zeros(1))

    def test_core_distances_reject_bad_shapes_and_counts(self):
        for points in (np.zeros(5), np.zeros((5, 0))):
            with pytest.raises(ValidationError, match="points must be"):
                kernels.core_distances(points, 1)
        for k in (0, 5):
            with pytest.raises(ValidationError, match=r"k must be in \[1, 4\]"):
                kernels.core_distances(np.zeros((5, 2)), k)

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
