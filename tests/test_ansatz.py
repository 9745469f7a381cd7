"""Spike configurations and the superposition ansatz with its error field."""

import numpy as np
import pytest

from fracspike import ansatz, kernels
from fracspike import spectral as sp
from fracspike.ansatz import SpikeConfig, build_ansatz, config_valid, default_mu
from fracspike.errors import ConfigError
from fracspike.grid import Grid
from fracspike.potentials import Potential, builtin_potentials


def test_default_mu_window():
    # midpoint of (N/2, (N+2s)/2), inside the enforced window (N/2, N+2s)
    assert default_mu(1, 0.5) == pytest.approx(0.75)
    assert default_mu(1, 0.75) == pytest.approx(0.875)
    assert default_mu(2, 0.5) == pytest.approx(1.25)


@pytest.mark.parametrize("edge", ["N/2", "N+2s"])
def test_build_ansatz_rejects_mu_outside_the_window(gs_store, edge):
    """The weight of the Y norm needs N/2 < mu < N+2s; both ends are out."""
    gs = gs_store(0.5, 2.0)
    mu = {"N/2": 0.5, "N+2s": 2.0}[edge]
    cfg = SpikeConfig(gs.grid, [[0.0]], epsilon=0.1)
    with pytest.raises(ConfigError, match="outside the window"):
        build_ansatz(builtin_potentials("constant", lam=1.0), cfg, gs, mu=mu)


def test_spike_config_basics(gs_store):
    grid = gs_store(0.5, 2.0).grid
    cfg = SpikeConfig(grid, [[-5.0], [5.0]], epsilon=0.1)
    assert cfg.k == 2
    np.testing.assert_allclose(cfg.xi, [[-0.5], [0.5]])
    assert cfg.separations()[0, 1] == pytest.approx(10.0)
    assert np.isinf(cfg.separations()[0, 0])
    # centers wrap into the box
    wrapped = SpikeConfig(grid, [[41.0]], epsilon=0.1)
    assert wrapped.centers[0, 0] == pytest.approx(-39.0)
    with pytest.raises(ConfigError):
        SpikeConfig(grid, np.empty((0, 1)), epsilon=0.1)
    with pytest.raises(ConfigError):
        SpikeConfig(grid, [[np.nan]], epsilon=0.1)
    with pytest.raises(ConfigError):
        SpikeConfig(grid, [[0.0]], epsilon=-0.1)


def test_config_valid_diagnostics(gs_store):
    grid = gs_store(0.5, 2.0).grid
    ok, diags = config_valid(SpikeConfig(grid, [[-1.0], [1.0]], 0.1,
                                         r_min=4.0))
    assert not ok and "separation" in diags[0]
    # admissible radius 1/(delta * eps) = 20 < |q| = 30
    ok, diags = config_valid(SpikeConfig(grid, [[30.0]], 0.1, delta=0.5))
    assert not ok and "radius" in diags[0]
    ok, diags = config_valid(SpikeConfig(grid, [[-8.0], [8.0]], 0.1))
    assert ok and not diags


def test_constant_potential_single_spike_error_vanishes(gs_store):
    """With V constant at the profile's lambda the ansatz is exact."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("constant", lam=1.0)
    cfg = SpikeConfig(gs.grid, [[3.0]], epsilon=0.1)
    bundle = build_ansatz(V, cfg, gs)
    # E = (lam - V) w + W_+^p - w^p = 0 pointwise up to translation rounding
    assert bundle.E_norm_Y < 1e-8
    assert bundle.E.sup < 1e-9


def test_ansatz_translation_consistency(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    c = 2.5
    bundle = build_ansatz(V, SpikeConfig(gs.grid, [[c]], 0.1), gs)
    # the spike profile is the lambda-rescaled ground state moved to c
    w_at = bundle.spikes[0]
    i = gs.grid.nearest_index(c)[0]
    assert float(w_at.values[i]) == pytest.approx(float(np.max(w_at.values)),
                                                  rel=1e-4)
    lam = float(V(0.1 * c))
    np.testing.assert_allclose(bundle.lambdas, [lam])
    # peak amplitude follows the lambda^(1/(p-1)) scaling
    assert float(np.max(w_at.values)) == pytest.approx(
        lam * float(np.max(gs.values)), rel=1e-2)


def test_mirror_pair_one_ulp_apart_shares_one_rescale(gs_store,
                                                      monkeypatch):
    """Two wells whose lambdas differ by one ulp get one rescaled profile,
    and E is built with the lambda that profile was rescaled to."""
    gs = gs_store(0.5, 2.0)
    wells = builtin_potentials("gaussian_bumps", a=2.0, bumps=[
        {"b": -0.9, "center": [c], "sigma": 0.5} for c in (-1.0, 1.0)])

    def nudged(x):  # one ulp up on the right half-line
        v = wells(x)
        return np.where(x > 0, np.nextafter(v, np.inf), v)

    V = Potential("nudged", {}, _eval=nudged, _grad=wells.grad)
    cfg = SpikeConfig(gs.grid, [[-10.0], [10.0]], epsilon=0.1)
    lam = cfg.lambdas(V)
    assert lam[1] == np.nextafter(lam[0], np.inf)
    calls = []
    inner = ansatz.rescale

    def counting(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(ansatz, "rescale", counting)
    bundle = build_ansatz(V, cfg, gs)
    assert calls == [lam[0]]
    np.testing.assert_array_equal(bundle.lambdas, [lam[0], lam[0]])
    w_stack = np.stack([w.values for w in bundle.spikes])
    np.testing.assert_array_equal(bundle.E.values, kernels.ansatz_error(
        w_stack, bundle.lambdas, bundle.V_grid, gs.params.p))


def test_kernel_basis_orthogonal_to_profile(gs_store):
    """<w_j, Z_jl> = 0: translation modes are odd around their spike."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    cfg = SpikeConfig(gs.grid, [[-6.0], [6.0]], 0.1)
    bundle = build_ansatz(V, cfg, gs)
    for j in range(2):
        w, z = bundle.spikes[j], bundle.Z[j][0]
        ip = sp.inner(w, z)
        scale = np.sqrt(sp.inner(w, w) * sp.inner(z, z))
        assert abs(ip) <= 1e-10 * scale
    # alphas hold the squared norms of the basis fields
    assert bundle.alphas[0, 0] == pytest.approx(
        sp.inner(bundle.Z[0][0], bundle.Z[0][0]))
    assert len(bundle.z_flat()) == 2


def test_cross_gram_decays_with_separation(gs_store):
    """<Z_1, Z_2> falls off algebraically as the spikes separate."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("constant", lam=1.0)
    overlaps = []
    for d in (10.0, 20.0, 40.0):
        cfg = SpikeConfig(gs.grid, [[-d / 2.0], [d / 2.0]], 0.1)
        b = build_ansatz(V, cfg, gs)
        overlaps.append(abs(sp.inner(b.Z[0][0], b.Z[1][0])))
    assert overlaps[0] > overlaps[1] > overlaps[2]
    # decay at least as fast as the d^-2 tail product would suggest
    assert overlaps[2] < 0.2 * overlaps[0]


def test_error_scales_with_epsilon(gs_store):
    """Potential mismatch drives E: halving eps must shrink ||E||_Y."""
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    norms = [build_ansatz(V, SpikeConfig(gs.grid, [[0.0]], e), gs).E_norm_Y
             for e in (0.2, 0.1, 0.05)]
    assert norms[0] > norms[1] > norms[2]


def test_build_ansatz_validation(gs_store):
    gs = gs_store(0.5, 2.0)
    V = builtin_potentials("well", a=2.0, b=1.0)
    with pytest.raises(ConfigError):  # separation violated
        build_ansatz(V, SpikeConfig(gs.grid, [[-1.0], [1.0]], 0.1), gs)
    from fracspike.ground_state import rescale
    gs2 = rescale(gs, 2.0)
    with pytest.raises(ConfigError):  # profile not at lambda = 1
        build_ansatz(V, SpikeConfig(gs.grid, [[0.0]], 0.1), gs2)
    other = Grid(1, 20.0, 512)
    with pytest.raises(ConfigError):  # grid mismatch
        build_ansatz(V, SpikeConfig(other, [[0.0]], 0.1), gs)


def test_2d_ansatz_parity(gs_store):
    gs = gs_store(0.5, 2.0, dim=2, L=10.0, M=128)
    V = builtin_potentials("well", a=2.0, b=1.0)
    cfg = SpikeConfig(gs.grid, [[0.0, 0.0]], 0.1)
    bundle = build_ansatz(V, cfg, gs)
    E = bundle.E.values
    # a centered spike in a radial potential keeps the error field radial
    np.testing.assert_allclose(E, E.T, atol=1e-12)
    np.testing.assert_allclose(E[1:, :], E[1:, :][::-1, :], atol=1e-12)
    assert bundle.alphas.shape == (1, 2)
