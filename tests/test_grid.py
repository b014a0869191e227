"""Grid construction and the normalized bracket weights."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phonon_inverse
from phonon_inverse import diagnostics, inverse, optimize, transport
from phonon_inverse.collision import mean_mu_omega
from phonon_inverse.grid import GridConfig, PhaseGrid, build_grid


def baseline_config(**overrides) -> GridConfig:
    base = dict(
        dt=0.005, dx=0.02, domega=0.4, n_mu=64,
        t_end=1.5, omega_min=0.4, omega_max=4.0,
    )
    base.update(overrides)
    return GridConfig(**base)


@pytest.fixture(scope="module")
def grid() -> PhaseGrid:
    return build_grid(baseline_config())


class TestBuildGrid:
    def test_baseline_node_counts(self, grid):
        assert grid.n_x == 51
        assert grid.n_t == 301
        assert grid.n_omega == 10
        assert grid.n_mu == 64

    def test_two_point_gauss_legendre_closed_form(self):
        g = build_grid(baseline_config(n_mu=2))
        assert g.mu_nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
        assert g.mu_weights == pytest.approx([1.0, 1.0], abs=1e-15)

    @pytest.mark.parametrize("n_mu", [2, 16, 64])
    def test_cached_rule_equals_direct_leggauss(self, n_mu):
        # The rule is computed once per node count; every grid must still
        # read exactly the symmetrized leggauss nodes and weights.
        nodes, weights = np.polynomial.legendre.leggauss(n_mu)
        for _ in range(2):
            g = build_grid(baseline_config(n_mu=n_mu))
            np.testing.assert_array_equal(g.mu_nodes, 0.5 * (nodes - nodes[::-1]))
            np.testing.assert_array_equal(g.mu_weights, 0.5 * (weights + weights[::-1]))

    def test_grids_share_no_writable_array(self):
        first = build_grid(baseline_config(n_mu=16))
        second = build_grid(baseline_config(n_mu=16))
        for name in ("mu_nodes", "mu_weights", "mu_mean", "mu_omega_mean"):
            a, b = getattr(first, name), getattr(second, name)
            assert not a.flags.writeable and not b.flags.writeable
            assert not np.shares_memory(a, b), name

    def test_mu_weights_sum_to_two(self, grid):
        assert grid.mu_weights.sum() == pytest.approx(2.0, rel=1e-12)

    def test_mu_nodes_symmetric_and_nonzero(self, grid):
        assert np.all(grid.mu_nodes[::-1] == -grid.mu_nodes)
        assert np.all(grid.mu_nodes != 0.0)

    def test_quadrature_of_mu_squared(self, grid):
        # Gauss-Legendre integrates mu^2 exactly; the raw integral over
        # (-1, 1) is 2/3.
        value = grid.mu_weights @ grid.mu_nodes**2
        assert value == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_quadrature_exactness_high_order(self):
        # n nodes are exact through degree 2n - 1: check odd and even powers
        # up to mu^9 with 8 nodes against the closed form 2/(k+1) or 0.
        g = build_grid(baseline_config(n_mu=8))
        for k in range(10):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            value = g.mu_weights @ g.mu_nodes**k
            assert value == pytest.approx(exact, rel=1e-12, abs=1e-14)

    def test_node_spacing_matches_config(self, grid):
        assert grid.dt == pytest.approx(0.005)
        assert grid.dx == pytest.approx(0.02)
        assert grid.domega == pytest.approx(0.4)
        assert grid.omega_nodes[0] == pytest.approx(0.4)
        assert grid.omega_nodes[-1] == pytest.approx(4.0)

    def test_rejects_odd_n_mu(self):
        with pytest.raises(ValueError, match="even"):
            build_grid(baseline_config(n_mu=63))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="dt"):
            build_grid(baseline_config(dt=0.0))

    @pytest.mark.parametrize("key, value, t_end", [
        ("dx", 5.0, 1.5), ("dx", 1.5, 1.5), ("dt", 10.0, 1.5), ("dt", 1.0, 0.5),
    ])
    def test_rejects_spacing_wider_than_its_span(self, key, value, t_end):
        # The axis would get a single node, and its spacing reads node 1.
        with pytest.raises(ValueError, match=f"{key} = {value} is wider than its span"):
            build_grid(baseline_config(**{key: value}, t_end=t_end))

    def test_spacing_equal_to_its_span_leaves_two_nodes(self):
        g = build_grid(baseline_config(dx=1.0, dt=0.5, t_end=0.5))
        assert (g.n_x, g.n_t) == (2, 2)

    def test_rejects_nonpositive_omega_min(self):
        with pytest.raises(ValueError, match="omega_min"):
            build_grid(baseline_config(omega_min=0.0))

    @pytest.mark.parametrize("field", [
        "dt", "dx", "domega", "t_end", "omega_min", "omega_max",
        "t_start", "x_start", "x_end", "epsilon",
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_parameter(self, field, value):
        # An infinite epsilon would freeze the march (c = r = 0), and a
        # nonfinite span would fail later, in the node count, naming nothing.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build_grid(baseline_config(**{field: value}))

    def test_nodes_are_immutable(self, grid):
        with pytest.raises(ValueError):
            grid.mu_nodes[0] = 0.0


class TestAverage:
    """The normalized weights every mean in the package reads."""

    def test_constant_field_any_axes(self, grid):
        for name in ("t_mean", "x_mean", "mu_mean", "omega_mean", "mu_omega_mean"):
            mean = getattr(grid, name)
            assert mean.sum() == pytest.approx(1.0, rel=1e-14)
            assert np.sum(np.full(mean.shape, 3.25) * mean) == pytest.approx(3.25, rel=1e-12)

    def test_odd_function_of_mu(self, grid):
        assert abs(grid.mu_mean @ grid.mu_nodes) <= 1e-15

    def test_mu_squared_times_omega(self, grid):
        # Normalized mean of mu^2 * omega over (mu, omega): mean(mu^2) is
        # exactly 1/3 under Gauss-Legendre and the channel mean of omega over
        # the uniform band is the midpoint 2.2, so the closed form is 11/15.
        values = grid.mu_nodes[:, None] ** 2 * grid.omega_nodes[None, :]
        assert np.sum(values * grid.mu_omega_mean) == pytest.approx(11.0 / 15.0, rel=1e-12)

    def test_time_average_trapezoid(self, grid):
        # <t>_t over [0, 1.5] is 0.75; linear functions are exact under trapezoid.
        assert grid.t_mean @ grid.t_nodes == pytest.approx(0.75, rel=1e-12)

    def test_mu_omega_table_is_outer_of_normalized_weights(self, grid):
        # The forward march's density, and through it every golden, depends
        # on the summation order fixed by this exact table.
        expected = np.outer(
            grid.mu_weights / grid.mu_weights.sum(),
            grid.omega_weights / grid.omega_weights.sum(),
        )
        assert np.array_equal(grid.mu_omega_mean, expected)

    def test_read_only(self, grid):
        for name in ("t_mean", "x_mean", "mu_mean", "omega_mean", "mu_omega_mean"):
            with pytest.raises(ValueError):
                getattr(grid, name)[0] = 0.0

    def test_scalar_return_type(self, grid):
        values = np.ones((grid.n_mu, grid.n_omega))
        assert isinstance(mean_mu_omega(values, grid), float)

    def test_batch_axis_untouched(self, grid):
        # Leading (t, x) axes pass through: a field constant in (mu, omega)
        # has its own value as its mean at every (t, x).
        levels = np.arange(3)[:, None] + grid.x_nodes[None, :]
        values = levels[..., None, None] * np.ones((grid.n_mu, grid.n_omega))
        np.testing.assert_allclose(mean_mu_omega(values, grid), levels, rtol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-10, 10, allow_nan=False),
        b=st.floats(-10, 10, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, a, b, seed):
        g = build_grid(baseline_config(n_mu=8, dt=0.05, dx=0.1))
        rng = np.random.default_rng(seed)
        f1 = rng.normal(size=(g.n_mu, g.n_omega))
        f2 = rng.normal(size=(g.n_mu, g.n_omega))
        lhs = mean_mu_omega(a * f1 + b * f2, g)
        rhs = a * mean_mu_omega(f1, g) + b * mean_mu_omega(f2, g)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# A weight vector divided by its own sum, or anything divided by an axis span.
_INLINE_NORMALIZATION = re.compile(r"_weights\s*/[^#\n]*\bsum\(|\bt_span\b")


def test_normalizations_live_in_grid_module():
    package = Path(phonon_inverse.__file__).parent
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "grid.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if _INLINE_NORMALIZATION.search(line)
    ]
    assert not offenders, "normalize through PhaseGrid's *_mean arrays:\n" + "\n".join(offenders)


def test_epsilon_lives_in_grid():
    # The Knudsen number is read from grid.epsilon only; another epsilon
    # means another grid, never a per-call argument.
    offenders = [
        f"{module.__name__}.{name}"
        for module in (transport, inverse, optimize, diagnostics)
        for name, member in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(member) or inspect.isclass(member))
        and member.__module__ == module.__name__
        and "epsilon" in inspect.signature(member).parameters
    ]
    assert not offenders, "read epsilon from the grid:\n" + "\n".join(offenders)


# Exports that no module, demo or benchmark script reads, each kept for the
# reason given.
_UNCALLED_EXPORTS_KEPT: dict[str, str] = {}


def _referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_export_has_a_caller():
    # Public API with no caller in the package, the demos or the benchmark
    # scripts goes, unless it is on the allowlist above.
    package = Path(phonon_inverse.__file__).resolve().parent
    root = package.parent.parent
    callers = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    callers += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    referenced = set().union(*(_referenced_names(path) for path in callers))
    uncalled = sorted(
        name for name in phonon_inverse.__all__
        if name not in referenced and name not in _UNCALLED_EXPORTS_KEPT
    )
    assert not uncalled, "exports with no caller:\n" + "\n".join(uncalled)
