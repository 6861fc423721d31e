//! Randomized property tests over the attack machinery, driven by the
//! in-tree seeded generator (deterministic case sweeps, no network deps).

use cnnre_attacks::structure::{
    fltr_size_matches, size_matches, solve_conv_layer, solve_fc_layer, LayerParams, ObservedLayer,
    PoolParams, SolverConfig,
};
use cnnre_attacks::weights::{
    full_weights, recover_bias, recover_fc_ratios, recover_ratios, FunctionalFcOracle,
    FunctionalOracle, LayerGeometry, MergedOrder, RecoveryConfig, SearchConfig,
};
use cnnre_nn::layer::{Conv2d, Linear};
use cnnre_tensor::rng::{Rng, SeedableRng, SmallRng};
use cnnre_tensor::{Shape3, Shape4};

/// A random *consistent* conv layer parameter vector, or `None` when the
/// draw collapses (the loop-based equivalent of the old strategy).
fn arb_layer_params(rng: &mut SmallRng) -> Option<LayerParams> {
    let w = rng.gen_range(8usize..64);
    let d_in = rng.gen_range(1usize..32);
    let d_out = rng.gen_range(1usize..48);
    let f = rng.gen_range(1usize..6);
    let s = rng.gen_range(1usize..4);
    let p = rng.gen_range(0usize..3);
    let pool = rng
        .gen_bool(0.5)
        .then(|| (rng.gen_range(2usize..4), rng.gen_range(1usize..3)));

    let f = f.min(w / 2).max(1);
    let s = if f == 1 { s } else { s.min(f) };
    let p = p.min(f.saturating_sub(1));
    let w_conv = cnnre_nn::geometry::conv_out(w, f, s, p)?;
    let (w_ofm, pool) = match pool {
        Some((pf, ps)) if pf <= w_conv => {
            let ps = ps.min(pf);
            let out = cnnre_nn::geometry::pool_out(w_conv, pf, ps, 0)?;
            if 2 * out > w_conv {
                (w_conv, None) // not a halving pool: drop it
            } else {
                (out, Some(PoolParams { f: pf, s: ps, p: 0 }))
            }
        }
        _ => (w_conv, None),
    };
    let candidate = LayerParams {
        w_ifm: w,
        d_ifm: d_in,
        w_ofm,
        d_ofm: d_out,
        f_conv: f,
        s_conv: s,
        p_conv: p,
        pool,
    };
    candidate.is_consistent().then_some(candidate)
}

/// Runs `body` over `cases` consistent random layer draws.
fn for_each_layer(cases: usize, mut body: impl FnMut(LayerParams)) {
    let mut rng = SmallRng::seed_from_u64(0x1A7E55);
    let mut produced = 0usize;
    while produced < cases {
        if let Some(truth) = arb_layer_params(&mut rng) {
            body(truth);
            produced += 1;
        }
    }
}

/// Elements per block of a 64-byte burst of `f32`s.
const EPB: u64 = 16;

fn observation_of(truth: &LayerParams, cfg: &SolverConfig, utilization: f64) -> ObservedLayer {
    let blocks = |e: u64| e.div_ceil(EPB);
    ObservedLayer {
        ifm_blocks: blocks(truth.size_ifm()),
        ofm_blocks: blocks(truth.size_ofm()),
        fltr_blocks: blocks(truth.size_fltr()),
        cycles: ((truth.macs() as f64 / (utilization * cfg.pe_count as f64)).ceil() as u64).max(1),
    }
}

/// Whatever consistent layer generated the observation, the per-layer
/// solver's candidate set contains it (up to the padding-degeneracy
/// representative), as long as the layer is compute-bound enough for the
/// utilization window.
#[test]
fn solver_always_contains_the_generating_layer() {
    for_each_layer(64, |truth| {
        let cfg = SolverConfig::default();
        let obs = observation_of(&truth, &cfg, 0.8);
        let candidates = solve_conv_layer(&obs, EPB, &[(truth.w_ifm, truth.d_ifm)], &cfg);
        let found = candidates.iter().any(|c| {
            *c == truth
                || (LayerParams {
                    p_conv: truth.p_conv,
                    ..*c
                } == truth
                    && c.conv_out_w() == truth.conv_out_w())
        });
        assert!(
            found,
            "missing {truth} among {} candidates",
            candidates.len()
        );
    });
}

/// Every candidate the solver returns reproduces the observation.
#[test]
fn solver_candidates_reproduce_the_observation() {
    for_each_layer(64, |truth| {
        let cfg = SolverConfig::default();
        let obs = observation_of(&truth, &cfg, 0.8);
        let candidates = solve_conv_layer(&obs, EPB, &[(truth.w_ifm, truth.d_ifm)], &cfg);
        for c in &candidates {
            assert!(c.is_consistent(), "{c}");
            assert!(size_matches(obs.ofm_blocks, c.size_ofm(), EPB), "{c}");
            assert!(
                fltr_size_matches(obs.fltr_blocks, c.size_fltr(), EPB),
                "{c}"
            );
            // The execution-time filter only applies to compute-bound layers.
            if obs.is_compute_bound() {
                assert!(cfg.macs_match(c.macs(), obs.cycles), "{c}");
            }
        }
    });
}

/// FC layers solve uniquely for exact observations.
#[test]
fn fc_solver_is_exact() {
    let mut rng = SmallRng::seed_from_u64(0xFC);
    for _ in 0..64 {
        let w = rng.gen_range(2usize..12);
        let d = rng.gen_range(1usize..16);
        let out = rng.gen_range(8usize..256);
        let in_features = (w * w * d) as u64;
        let blocks = |e: u64| e.div_ceil(EPB);
        let obs = ObservedLayer {
            ifm_blocks: blocks(in_features),
            ofm_blocks: blocks(out as u64),
            fltr_blocks: blocks(in_features * out as u64),
            cycles: 1_000,
        };
        let fcs = solve_fc_layer(&obs, EPB, &[(w, d)]);
        assert!(fcs.iter().any(|f| f.out_features == out));
        // All candidates' filter sizes reproduce the footprint.
        for f in &fcs {
            let fltr_elems = (f.in_features * f.out_features) as u64;
            assert!(fltr_size_matches(obs.fltr_blocks, fltr_elems, EPB));
        }
    }
}

/// The FC weight attack recovers every ratio of random layers.
#[test]
fn fc_weight_recovery_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xFCFC);
    for _ in 0..50 {
        let n_in = rng.gen_range(2usize..8);
        let n_out = rng.gen_range(1usize..6);
        let w: Vec<f32> = (0..n_in * n_out)
            .map(|_| rng.gen_range(-2.0..2.0f32))
            .collect();
        let b: Vec<f32> = (0..n_out)
            .map(|_| rng.gen_range(0.05..0.8f32) * if rng.gen_bool(0.5) { -1.0 } else { 1.0 })
            .collect();
        let layer = Linear::from_parts(n_in, n_out, w, b).expect("layer");
        let mut oracle = FunctionalFcOracle::new(layer.clone());
        let rec = recover_fc_ratios(&mut oracle, &SearchConfig::default());
        assert!(rec.max_ratio_error(&layer) < 2f64.powi(-10));
    }
}

/// With a max pool merged behind the conv, recovery stays *sound*: every
/// recovered ratio is within the paper's bound and every claimed zero is
/// (numerically) a zero.
#[test]
fn pooled_conv_weight_recovery_is_sound() {
    let mut rng = SmallRng::seed_from_u64(0xB00);
    for _ in 0..8 {
        let pf = rng.gen_range(2usize..4);
        let f = 3usize;
        let s = 1usize;
        let w = 4 * f + 2 * pf + 5;
        let geom = LayerGeometry {
            input: Shape3::new(1, w, w),
            d_ofm: 1,
            f,
            s,
            p: 0,
            pool: Some((cnnre_nn::layer::PoolKind::Max, pf, pf, 0)),
            order: MergedOrder::ActThenPool,
            threshold: 0.0,
        };
        let weights = cnnre_tensor::init::he_conv(&mut rng, Shape4::new(1, 1, f, f));
        let bias = vec![-rng.gen_range(0.05..0.5f32)];
        let conv = Conv2d::from_parts(weights, bias, s, 0).expect("victim");
        let mut oracle = FunctionalOracle::new(conv.clone(), geom);
        let rec = recover_ratios(&mut oracle, &RecoveryConfig::default());
        assert!(rec.max_ratio_error(conv.weights(), conv.bias()) < 2f64.powi(-10));
        for i in 0..f {
            for j in 0..f {
                if rec.filters[0].ratio(0, i, j) == Some(0.0) {
                    let truth = (conv.weights()[(0, 0, i, j)] / conv.bias()[0]).abs();
                    assert!(truth < 1e-3, "false zero at ({i},{j}): {truth}");
                }
            }
        }
    }
}

/// When the bias is positive (the §4 observable case), the threshold sweep
/// recovers the *exact* weights and biases, not just ratios.
#[test]
fn threshold_knob_recovers_exact_weights() {
    let mut rng = SmallRng::seed_from_u64(0x7E57);
    for _ in 0..10 {
        let geom = LayerGeometry {
            input: Shape3::new(1, 15, 15),
            d_ofm: 2,
            f: 3,
            s: 1,
            p: 0,
            pool: None,
            order: MergedOrder::ActThenPool,
            threshold: 0.0,
        };
        let weights = cnnre_tensor::init::he_conv(&mut rng, Shape4::new(2, 1, 3, 3));
        let bias: Vec<f32> = (0..2).map(|_| rng.gen_range(0.05..0.6f32)).collect();
        let conv = Conv2d::from_parts(weights, bias, 1, 0).expect("victim");
        let mut oracle = FunctionalOracle::new(conv.clone(), geom);
        let ratios = recover_ratios(&mut oracle, &RecoveryConfig::default());
        let biases = recover_bias(&mut oracle, 2.0, 60);
        let full = full_weights(&ratios, &biases);
        for (d, filt) in full.iter().enumerate() {
            let b_true = f64::from(conv.bias()[d]);
            let b_rec = biases.bias[d].expect("positive bias observable");
            assert!(
                (b_rec - b_true).abs() < 1e-3 * b_true.abs().max(1.0),
                "bias {d}"
            );
            let filt = filt.as_ref().expect("filter recovered");
            for i in 0..3 {
                for j in 0..3 {
                    let w_true = f64::from(conv.weights()[(d, 0, i, j)]);
                    let w_rec = filt[i * 3 + j];
                    assert!(
                        (w_rec - w_true).abs() < 2e-3 * w_true.abs().max(0.1),
                        "w[{d},{i},{j}]: {w_rec} vs {w_true}"
                    );
                }
            }
        }
    }
}

/// The conv weight attack never reports a wrong value: everything it
/// recovers is within the paper's 2^-10 bound, and every claimed zero is a
/// true zero.
#[test]
fn conv_weight_recovery_is_sound() {
    let mut rng = SmallRng::seed_from_u64(0x50D);
    for _ in 0..12 {
        let f = rng.gen_range(2usize..4);
        let s = rng.gen_range(1usize..3);
        let input = Shape3::new(1, 4 * f + 5, 4 * f + 5);
        let geom = LayerGeometry {
            input,
            d_ofm: 2,
            f,
            s,
            p: 0,
            pool: None,
            order: MergedOrder::ActThenPool,
            threshold: 0.0,
        };
        let weights = cnnre_tensor::init::he_conv(&mut rng, Shape4::new(2, 1, f, f));
        let bias: Vec<f32> = (0..2).map(|_| -rng.gen_range(0.05..0.5f32)).collect();
        let conv = Conv2d::from_parts(weights, bias, s, 0).expect("victim");
        let mut oracle = FunctionalOracle::new(conv.clone(), geom);
        let rec = recover_ratios(&mut oracle, &RecoveryConfig::default());
        assert!(rec.max_ratio_error(conv.weights(), conv.bias()) < 2f64.powi(-10));
        for (d, filt) in rec.filters.iter().enumerate() {
            for i in 0..f {
                for j in 0..f {
                    if filt.ratio(0, i, j) == Some(0.0) {
                        // He-initialized weights are never exactly zero, but a
                        // |w/b| below the search floor may be read as zero.
                        let truth = (conv.weights()[(d, 0, i, j)] / conv.bias()[d]).abs();
                        assert!(truth < 1e-3, "false zero at ({d},{i},{j}): {truth}");
                    }
                }
            }
        }
    }
}
