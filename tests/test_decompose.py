"""Grid decomposition into ramp components: round trips, uniqueness,
face-vanishing, linearity, and the sup bound."""

import hashlib

import numpy as np
import pytest

from unicube import (GridFunction, RampComponent, RandomStream, decompose, enumerate_subsets,
                     mask_members, ramp_values, reconstruct, tent_bound_constant,
                     uniform_sample)
from unicube.decompose import grid_coords
from unicube.tents import tent_eval


def random_grid_function(rng, p, m):
    values = rng.uniform(-1.0, 1.0, size=(m,) * p)
    for axis in range(p):
        index = [slice(None)] * p
        index[axis] = 0
        values[tuple(index)] = 0.0
    return GridFunction(values)


def product_grid(m, p):
    """g(t) = prod_j t_j on the lattice."""
    t = grid_coords(m)
    out = np.ones((m,) * p)
    for j in range(p):
        shape = tuple(m if a == j else 1 for a in range(p))
        out = out * t.reshape(shape)
    return out


class TestGridFunction:
    def test_rejects_nonvanishing_lower_boundary(self):
        values = np.ones((5, 5))
        with pytest.raises(ValueError):
            GridFunction(values)

    def test_accepts_valid(self):
        g = random_grid_function(np.random.default_rng(0), 2, 7)
        assert (g.m, g.p) == (7, 2)

    def test_rejects_ragged_shape(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros((4, 5)))


class TestDecompose:
    def test_pure_product_is_empty_ramp(self):
        m, p = 9, 3
        components = decompose(GridFunction(product_grid(m, p)))
        by_mask = {c.mask: c for c in components}
        assert by_mask[0].tent == pytest.approx(1.0, abs=1e-14)
        for mask in enumerate_subsets(p, p):
            assert np.max(np.abs(by_mask[mask].tent)) < 1e-13

    def test_1d_bridge_plus_ramp(self):
        # T_empty = g(1) and T_{1}(t) = g(t) - t g(1).
        rng = np.random.default_rng(1)
        m = 17
        g = random_grid_function(rng, 1, m)
        components = {c.mask: c for c in decompose(g)}
        t = grid_coords(m)
        g1 = g.values[-1]
        assert components[0].tent == pytest.approx(g1, abs=1e-15)
        np.testing.assert_allclose(components[1].tent, g.values - t * g1, atol=1e-14)

    def test_interior_bump_keeps_only_full_tent(self):
        m = 9
        t = grid_coords(m)
        g = np.outer(t * (1 - t), t * (1 - t))
        components = {c.mask: c for c in decompose(GridFunction(g))}
        assert abs(components[0].tent) < 1e-14
        assert np.max(np.abs(components[0b01].tent)) < 1e-14
        assert np.max(np.abs(components[0b10].tent)) < 1e-14
        np.testing.assert_allclose(components[0b11].tent, g, atol=1e-14)

    def test_rejects_bad_boundary(self):
        with pytest.raises(ValueError):
            decompose(np.ones((5, 5)))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_round_trip(self, p):
        rng = np.random.default_rng(10 + p)
        m = 9
        for _ in range(8):
            g = random_grid_function(rng, p, m)
            rebuilt = reconstruct(decompose(g), m)
            assert np.max(np.abs(rebuilt.values - g.values)) < 1e-12

    def test_single_ramp_recovered_exactly(self):
        # Uniqueness: decomposing one ramp returns it and nothing else.
        m, p = 9, 3
        rng = np.random.default_rng(3)
        mask = 0b011
        tent = np.zeros((m, m))
        tent[1:-1, 1:-1] = rng.uniform(-1, 1, size=(m - 2, m - 2))
        g = GridFunction(ramp_values(mask, tent, m, p))
        components = {c.mask: c for c in decompose(g)}
        np.testing.assert_allclose(components[mask].tent, tent, atol=1e-13)
        for other in [0] + enumerate_subsets(p, p):
            if other != mask:
                assert np.max(np.abs(components[other].tent)) < 1e-13

    def test_ramp_vanishes_on_same_cardinality_faces(self):
        # A ramp of H is zero on every face of equal dimension other than H's.
        m, p = 7, 3
        rng = np.random.default_rng(4)
        g = random_grid_function(rng, p, m)
        for component in decompose(g):
            k = component.mask.bit_count()
            if k == 0 or k == p:
                continue
            full = ramp_values(component.mask, component.tent, m, p)
            for other in enumerate_subsets(p, p):
                if other.bit_count() != k or other == component.mask:
                    continue
                members = mask_members(other)
                index = tuple(slice(None) if j in members else m - 1 for j in range(p))
                assert np.max(np.abs(full[index])) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(5)
        m, p = 9, 3
        g1 = random_grid_function(rng, p, m)
        g2 = random_grid_function(rng, p, m)
        a, b = 0.6, -2.5
        combo = GridFunction(a * g1.values + b * g2.values)
        direct = decompose(combo)
        parts1 = decompose(g1)
        parts2 = decompose(g2)
        for c, c1, c2 in zip(direct, parts1, parts2):
            assert c.mask == c1.mask == c2.mask
            np.testing.assert_allclose(c.tent, a * c1.tent + b * c2.tent, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_sup_bound(self, p):
        rng = np.random.default_rng(20 + p)
        bound = tent_bound_constant(p)
        for _ in range(10):
            g = random_grid_function(rng, p, 9)
            sup_g = np.max(np.abs(g.values))
            for component in decompose(g):
                assert np.max(np.abs(component.tent)) <= bound * sup_g + 1e-12

    def test_bound_constant_values(self):
        assert [tent_bound_constant(p) for p in range(1, 5)] == [2, 6, 32, 350]

    @pytest.mark.parametrize("seed,p,m,digest", [
        (31, 2, 7, "95d8d45381786c31d0c38f2ff31dc9e659c3dcb90abce2c59ce3cde055151c44"),
        (32, 3, 5, "f19bb6ae7185edaf80a4a8918c8266ef46b3759b56bd1d7f4190cf15c20d3e9f"),
    ], ids=["p2-m7", "p3-m5"])
    def test_tent_bits_pinned(self, seed, p, m, digest):
        # sha256 of the tents' bytes in component order.
        h = hashlib.sha256()
        for component in decompose(random_grid_function(np.random.default_rng(seed), p, m)):
            h.update(component.tent.tobytes())
        assert h.hexdigest() == digest


class TestRampComponent:
    def test_identity_equality_hash_and_read_only_tent(self):
        component = decompose(random_grid_function(np.random.default_rng(8), 2, 5))[-1]
        assert component == component
        assert component != RampComponent(component.mask, component.tent)
        assert hash(component) == hash(component)
        assert not component.tent.flags.writeable
        with pytest.raises(ValueError):
            component.tent[1, 1] = 0.0


class TestReconstruct:
    def test_rejects_duplicates_and_gaps(self):
        m, p = 5, 2
        components = decompose(random_grid_function(np.random.default_rng(6), p, m))
        with pytest.raises(ValueError):
            reconstruct(components[:-1], m)
        with pytest.raises(ValueError):
            reconstruct(components + [components[-1]], m)


class TestEmpiricalProcessCrossCheck:
    def test_decomposition_matches_tent_eval(self):
        # The tents of the empirical process recovered from the generic grid
        # sweep must agree with the direct evaluation formula.
        m, p, n = 9, 2, 6
        sample = uniform_sample(RandomStream(77), n, p)
        t = grid_coords(m)
        grids = np.meshgrid(t, t, indexing="ij")
        indicator = np.ones((m, m, n))
        for j, axis_vals in enumerate(grids):
            indicator *= (sample.data[:, j][None, None, :] <= axis_vals[..., None])
        w = (indicator.sum(axis=2) - n * grids[0] * grids[1]) / np.sqrt(n)
        components = {c.mask: c for c in decompose(GridFunction(w))}
        for mask in enumerate_subsets(p, p):
            members = mask_members(mask)
            tent = components[mask].tent
            it = np.ndindex(*tent.shape)
            for idx in it:
                point = np.ones(p)
                for axis, j in enumerate(members):
                    point[j] = t[idx[axis]]
                assert tent[idx] == pytest.approx(
                    tent_eval(sample, mask, point), abs=1e-10)
