"""Synthetic task generator: determinism, the logistic identity, prior statistics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit

from fbetamax.fmeasure import BetaParam, StatVec
from fbetamax.synth import (
    _BLOCK_ROWS,
    SUPPORTS,
    build_distribution,
    sample_batch,
    sample_point,
    to_dataset,
)

B1 = BetaParam(1.0)


class TestBuildDistribution:
    def test_shapes_full_support(self):
        dist = build_distribution(seed=3, s=3, d=12)
        assert dist.support_bits.shape == (8, 3)
        assert dist.support_stats.shape == (8, 10)
        assert dist.logit_map.shape == (10, 12)
        assert dist.logit_map_pinv.shape == (12, 10)
        assert dist.concentration.shape == (8,)

    def test_shapes_exclusive_support(self):
        dist = build_distribution(seed=3, s=4, d=20, support="exclusive")
        assert dist.support_bits.shape == (5, 4)
        assert dist.support_bits[0].sum() == 0
        np.testing.assert_array_equal(dist.support_bits[1:], np.eye(4, dtype=np.uint8))

    def test_pseudo_inverse_residual(self):
        dist = build_distribution(seed=7, s=4, d=30)
        resid = dist.logit_map @ dist.logit_map_pinv - np.eye(17)
        assert np.max(np.abs(resid)) <= 1e-8

    def test_rejects_too_few_features(self):
        with pytest.raises(ValueError, match="features"):
            build_distribution(seed=0, s=3, d=9)

    def test_rejects_unknown_support(self):
        with pytest.raises(ValueError, match="support"):
            build_distribution(seed=0, s=2, d=8, support="pairwise")
        assert SUPPORTS == ("full", "exclusive")

    def test_same_seed_same_distribution(self):
        d1 = build_distribution(seed=11, s=3, d=12)
        d2 = build_distribution(seed=11, s=3, d=12)
        assert np.array_equal(d1.logit_map, d2.logit_map)
        assert np.array_equal(d1.concentration, d2.concentration)
        d3 = build_distribution(seed=12, s=3, d=12)
        assert not np.array_equal(d1.logit_map, d3.logit_map)

    def test_arrays_are_frozen(self):
        dist = build_distribution(seed=1, s=2, d=6)
        with pytest.raises(ValueError):
            dist.logit_map[0, 0] = 0.0


class TestSampling:
    def test_deterministic_per_index(self):
        dist = build_distribution(seed=5, s=3, d=12)
        p1 = sample_point(dist, 9, stream=2)
        p2 = sample_point(dist, 9, stream=2)
        assert np.array_equal(p1.features, p2.features)
        assert p1.labeling == p2.labeling
        assert np.array_equal(p1.outcome_probs, p2.outcome_probs)

    def test_streams_and_indices_differ(self):
        dist = build_distribution(seed=5, s=3, d=12)
        a = sample_point(dist, 0, stream=0)
        b = sample_point(dist, 1, stream=0)
        c = sample_point(dist, 0, stream=1)
        assert not np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_batch_matches_pointwise(self):
        # batches are prefixes: growing n never changes earlier points
        dist = build_distribution(seed=5, s=3, d=12)
        small = sample_batch(dist, 4, stream=1)
        large = sample_batch(dist, 9, stream=1)
        np.testing.assert_array_equal(small.features, large.features[:4])
        assert small.labels == large.labels[:4]
        p = sample_point(dist, 3, stream=1)
        np.testing.assert_array_equal(large.features[3], p.features)

    def test_logistic_identity_holds(self):
        # sigmoid(W x) reproduces the true statistic means at every point
        dist = build_distribution(seed=2, s=4, d=40)
        batch = sample_batch(dist, 200)
        got = expit(batch.features @ dist.logit_map.T)
        assert np.max(np.abs(got - batch.stat_probs)) <= 1e-9

    def test_means_satisfy_count_mass(self):
        dist = build_distribution(seed=8, s=5, d=40)
        for i in range(25):
            q = sample_point(dist, i).stat_probs
            assert q.count_mass() == pytest.approx(1.0, abs=1e-12)
            assert q.entries.min() >= 0.0
            assert q.entries.max() <= 1.0

    def test_exclusive_support_structure(self):
        dist = build_distribution(seed=4, s=4, d=20, support="exclusive")
        batch = sample_batch(dist, 60)
        assert all(y.popcount <= 1 for y in batch.labels)
        q = StatVec(4, batch.stat_probs[0])
        for j in range(1, 5):
            for k in range(2, 5):
                assert q.pair(j, k) == 0.0

    def test_outcome_frequencies_match_prior_mean(self):
        # outcome marginal is the prior mean alpha / sum(alpha); 4 sigma gate
        dist = build_distribution(seed=6, s=2, d=8)
        n = 20000
        batch = sample_batch(dist, n)
        codes = np.array([sum(b << i for i, b in enumerate(y.bits)) for y in batch.labels])
        freq = np.bincount(codes, minlength=dist.n_outcomes) / n
        want = dist.concentration / dist.concentration.sum()
        se = np.sqrt(want * (1 - want) / n)
        assert np.all(np.abs(freq - want) <= 4 * se + 1e-12)

    def test_dirichlet_component_means(self):
        dist = build_distribution(seed=9, s=2, d=8)
        n = 20000
        probs = np.stack([sample_point(dist, i).outcome_probs for i in range(n)])
        alpha = dist.concentration
        a0 = alpha.sum()
        want = alpha / a0
        var = alpha * (a0 - alpha) / (a0 * a0 * (a0 + 1.0))
        se = np.sqrt(var / n)
        assert np.all(np.abs(probs.mean(axis=0) - want) <= 4 * se)

    @pytest.mark.parametrize("support,s,d", [("full", 3, 12), ("exclusive", 4, 20)])
    def test_batch_equals_points_across_block_edges(self, support, s, d):
        # the block algebra must give every point exactly what sample_point gives
        B = _BLOCK_ROWS
        dist = build_distribution(seed=12, s=s, d=d, support=support)
        points = [sample_point(dist, i, stream=3) for i in range(2 * B + 1)]
        for n in (B - 1, B, B + 1, 2 * B + 1):
            batch = sample_batch(dist, n, stream=3)
            np.testing.assert_array_equal(
                batch.features, np.stack([pt.features for pt in points[:n]])
            )
            np.testing.assert_array_equal(
                batch.stat_probs, np.stack([pt.stat_probs.entries for pt in points[:n]])
            )
            assert batch.labels == tuple(pt.labeling for pt in points[:n])

    def test_pinned_draws(self):
        # points 0-19 of the ladder's test stream, recorded before the sampler
        # was blocked: outcome codes (bit j-1 = tag j) exactly; per point the
        # empty-labeling mean, the sum of the means, the first feature and the
        # squared feature norm at rtol 1e-12 (BLAS kernels vary per CPU)
        dist = build_distribution(0, s=6, d=100)
        batch = sample_batch(dist, 20, stream=1)
        codes = [sum(b << j for j, b in enumerate(y.bits)) for y in batch.labels]
        assert codes == [38, 38, 60, 28, 12, 18, 40, 22, 40, 56,
                         16, 37, 45, 47, 9, 60, 28, 33, 12, 23]
        want = np.array([
            [0.07530286845276606, 3.005047967890855, -0.6938224922417097, 41.65845494630257],
            [0.014664560042624517, 3.095306752418562, -0.7877225644668654, 26.266561615250478],
            [0.0003640486533545228, 2.7652893482979346, -0.16517082965256122, 21.468136937701367],
            [0.02054357771418206, 2.689964181639075, -0.6467882854046598, 15.508829333058564],
            [0.020856558839489447, 2.757068449379048, -0.5037922386669109, 9.069277172820561],
            [0.0028262367115560886, 2.70650338931272, -1.5956535620865349, 142.56906597705827],
            [0.0025594753686341513, 2.5568690686710824, -1.182002869784544, 63.43495255250647],
            [0.08625639896012778, 2.514477769024313, -0.49888158399106214, 29.7778992003231],
            [0.003440988180965491, 2.8798853466189267, -0.5575495184037679, 16.029863333074548],
            [0.012327981567487083, 3.249336790423774, -0.32150126292099074, 31.073421258223497],
            [0.0006076259999551716, 3.196630931687383, -0.42108671944417103, 40.35958840252422],
            [0.018368882866322156, 2.9796553662523806, -0.39872496644310074, 35.09721236772648],
            [0.02292039965632178, 2.9929857068007317, -0.4072696594571673, 20.449581878945647],
            [5.099112253594528e-05, 3.1610228497235497, -0.29266768230187934, 17.238011982264172],
            [0.012544936944718869, 3.1059518230198164, -0.5926502029724733, 35.523427170042225],
            [0.029089253836305305, 3.093524792683284, -0.7395913295294722, 35.46385820325288],
            [0.005869836325259707, 2.6094944306920436, -0.7553476343350712, 30.69036429072679],
            [0.000297917018585367, 2.4801588788123636, -1.0771284905696568, 93.44789826709224],
            [0.010145314475567723, 3.0353235556432883, -0.8546700254904905, 73.44148014964439],
            [0.02512570421639608, 2.977443174270764, -0.5358639528825908, 20.152086265967807],
        ])
        q, x = batch.stat_probs, batch.features
        got = np.stack(
            [q[:, 0], q.sum(axis=1), x[:, 0], np.einsum("ij,ij->i", x, x)], axis=1
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_rejects_empty_batch(self):
        dist = build_distribution(seed=1, s=2, d=6)
        with pytest.raises(ValueError, match="batch"):
            sample_batch(dist, 0)


class TestToDataset:
    def test_roundtrip_fields(self):
        dist = build_distribution(seed=10, s=3, d=12)
        batch = sample_batch(dist, 15)
        data = to_dataset(dist, batch)
        assert data.m == 15
        assert (data.s, data.d) == (3, 12)
        np.testing.assert_allclose(data.features.toarray(), batch.features, atol=0)
        assert data.bits.tolist() == [list(y.bits) for y in batch.labels]
