//! The functional zero-count model and the full accelerator-trace oracle
//! must agree on every query — this is what licenses running the paper's
//! §4 attack against the fast model. The accelerator path exercises the
//! whole stack: network lowering, tiled execution with zero pruning, and
//! the adversary's per-filter count of the engine's write transactions.

use cnnre_attacks::weights::{
    recover_ratios, AcceleratorOracle, FunctionalOracle, LayerGeometry, MergedOrder, Probe,
    RecoveryConfig, ZeroCountOracle,
};
use cnnre_nn::layer::{Conv2d, PoolKind};
use cnnre_tensor::rng::SmallRng;
use cnnre_tensor::rng::{Rng, SeedableRng};
use cnnre_tensor::{init, Shape3, Shape4};

fn victim(
    seed: u64,
    channels: usize,
    pool: Option<(PoolKind, usize, usize, usize)>,
) -> (Conv2d, LayerGeometry) {
    victim_of(
        seed,
        LayerGeometry {
            input: Shape3::new(channels, 13, 13),
            d_ofm: 3,
            f: 3,
            s: 1,
            p: 0,
            pool,
            order: MergedOrder::ActThenPool,
            threshold: 0.0,
        },
    )
}

/// A victim of geometry `geom` with He-initialized weights and negative
/// biases.
fn victim_of(seed: u64, geom: LayerGeometry) -> (Conv2d, LayerGeometry) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (d, c, f) = (geom.d_ofm, geom.input.c, geom.f);
    let weights = init::he_conv(&mut rng, Shape4::new(d, c, f, f));
    let bias: Vec<f32> = (0..d).map(|_| -rng.gen_range(0.05..0.4f32)).collect();
    let conv = Conv2d::from_parts(weights, bias, geom.s, geom.p).expect("victim");
    (conv, geom)
}

/// Padded and strided victims, `(w, f, s, p, pool)` with one input
/// channel and three filters: 3×3/s2/p1 unpooled, 5×5/s1/p2 under max
/// 2/2, and 3×3/s1/p1 under an overlapping max 3/2. A probe near the
/// border reaches outputs through the padding, and a stride skips
/// outputs, so these cover the conv's index arithmetic through the whole
/// accelerator on the sparse inputs the attack sends.
fn padded_and_strided_victims() -> Vec<(Conv2d, LayerGeometry)> {
    let max = |f, s| Some((PoolKind::Max, f, s, 0));
    [
        (25, 3, 2, 1, None),
        (13, 5, 1, 2, max(2, 2)),
        (13, 3, 1, 1, max(3, 2)),
    ]
    .into_iter()
    .enumerate()
    .map(|(n, (w, f, s, p, pool))| {
        victim_of(
            20 + n as u64,
            LayerGeometry {
                input: Shape3::new(1, w, w),
                d_ofm: 3,
                f,
                s,
                p,
                pool,
                order: MergedOrder::ActThenPool,
                threshold: 0.0,
            },
        )
    })
    .collect()
}

fn agree_on_probe_grid(conv: &Conv2d, geom: LayerGeometry, seed: u64) {
    let mut fast = FunctionalOracle::new(conv.clone(), geom);
    let mut real = AcceleratorOracle::new(conv.clone(), geom);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Empty probe set (baseline), single probes across the plane, and
    // random two-pixel probes (the Eq-(10) pin shape).
    let mut probe_sets: Vec<Vec<Probe>> = vec![Vec::new()];
    for y in (0..geom.input.h).step_by(4) {
        for x in (0..geom.input.w).step_by(4) {
            probe_sets.push(vec![Probe {
                c: 0,
                y,
                x,
                value: rng.gen_range(-2.0..2.0f32),
            }]);
        }
    }
    for _ in 0..10 {
        probe_sets.push(vec![
            Probe {
                c: rng.gen_range(0..geom.input.c),
                y: rng.gen_range(0..geom.input.h),
                x: rng.gen_range(0..geom.input.w),
                value: rng.gen_range(-3.0..3.0f32),
            },
            Probe {
                c: rng.gen_range(0..geom.input.c),
                y: rng.gen_range(0..geom.input.h),
                x: rng.gen_range(0..geom.input.w),
                value: rng.gen_range(-3.0..3.0f32),
            },
        ]);
    }
    for (n, probes) in probe_sets.iter().enumerate() {
        let a = fast.query(probes);
        let b = real.query(probes);
        assert_eq!(a, b, "probe set {n} ({probes:?})");
    }
}

#[test]
fn oracles_agree_without_pooling() {
    let (conv, geom) = victim(1, 1, None);
    agree_on_probe_grid(&conv, geom, 100);
}

#[test]
fn oracles_agree_with_max_pooling() {
    let (conv, geom) = victim(2, 1, Some((PoolKind::Max, 2, 2, 0)));
    agree_on_probe_grid(&conv, geom, 200);
}

#[test]
fn oracles_agree_on_multichannel_inputs() {
    let (conv, geom) = victim(3, 3, Some((PoolKind::Max, 2, 2, 0)));
    agree_on_probe_grid(&conv, geom, 300);
}

#[test]
fn oracles_agree_on_padded_and_strided_probe_grids() {
    for (n, (conv, geom)) in padded_and_strided_victims().into_iter().enumerate() {
        agree_on_probe_grid(&conv, geom, 400 + n as u64);
    }
}

#[test]
fn accelerator_oracle_counts_queries() {
    let (conv, geom) = victim(4, 1, None);
    let mut real = AcceleratorOracle::new(conv, geom);
    assert_eq!(real.query_count(), 0);
    let _ = real.query(&[]);
    let _ = real.query(&[Probe {
        c: 0,
        y: 1,
        x: 1,
        value: 1.0,
    }]);
    assert_eq!(real.query_count(), 2);
}

/// A functional oracle that keeps every probe set the attack sends it.
struct Recording {
    inner: FunctionalOracle,
    sent: Vec<Vec<Probe>>,
}

impl ZeroCountOracle for Recording {
    fn geometry(&self) -> LayerGeometry {
        self.inner.geometry()
    }

    fn query(&mut self, probes: &[Probe]) -> Vec<u64> {
        self.sent.push(probes.to_vec());
        self.inner.query(probes)
    }

    fn query_filter(&mut self, filter: usize, probes: &[Probe]) -> u64 {
        self.sent.push(probes.to_vec());
        self.inner.query_filter(filter, probes)
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }
}

/// Smallest `|value|` of a pin pixel: the attack drives pinned taps to
/// `-1e9` bias units, so its pins are many orders above a target probe.
const PIN_MAGNITUDE: f32 = 1e6;

/// Runs the weight attack against the functional model and replays the
/// probe sets it sent — every pinned one and every `stride`-th of the rest
/// — against both oracles: per-filter counts and query counts must agree.
/// Returns how many pinned probe sets were replayed.
fn agree_on_attack_probes(conv: &Conv2d, geom: LayerGeometry, stride: usize) -> usize {
    let mut recording = Recording {
        inner: FunctionalOracle::new(conv.clone(), geom),
        sent: Vec::new(),
    };
    let _ = recover_ratios(&mut recording, &RecoveryConfig::default());
    let pinned = |probes: &Vec<Probe>| probes.iter().any(|p| p.value.abs() >= PIN_MAGNITUDE);
    let replay: Vec<&Vec<Probe>> = recording
        .sent
        .iter()
        .enumerate()
        .filter(|&(n, probes)| pinned(probes) || n % stride == 0)
        .map(|(_, probes)| probes)
        .collect();
    let mut fast = FunctionalOracle::new(conv.clone(), geom);
    let mut real = AcceleratorOracle::new(conv.clone(), geom);
    for (n, probes) in replay.iter().enumerate() {
        assert_eq!(
            fast.query(probes),
            real.query(probes),
            "probe set {n} ({probes:?})"
        );
    }
    assert_eq!(real.query_count(), fast.query_count());
    assert_eq!(real.query_count(), replay.len() as u64);
    replay.iter().filter(|probes| pinned(probes)).count()
}

/// A victim whose filter `dead` has zero weights and a negative bias: its
/// output is fully pruned on every query, so it writes nothing and its
/// weight fetch sits right next to the following filter's.
fn victim_with_dead_filter(seed: u64, geom: LayerGeometry, dead: usize) -> Conv2d {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (d, c, f) = (geom.d_ofm, geom.input.c, geom.f);
    let mut weights = init::he_conv(&mut rng, Shape4::new(d, c, f, f));
    for w in &mut weights.as_mut_slice()[dead * c * f * f..(dead + 1) * c * f * f] {
        *w = 0.0;
    }
    let bias: Vec<f32> = (0..d).map(|_| -rng.gen_range(0.05..0.4f32)).collect();
    Conv2d::from_parts(weights, bias, geom.s, geom.p).expect("victim")
}

#[test]
fn oracles_agree_on_lenet_conv1_attack_probes() {
    let geom = LayerGeometry {
        input: Shape3::new(1, 32, 32),
        d_ofm: 6,
        f: 5,
        s: 1,
        p: 0,
        pool: Some((PoolKind::Max, 2, 2, 0)),
        order: MergedOrder::ActThenPool,
        threshold: 0.0,
    };
    let conv = victim_with_dead_filter(5, geom, 2);
    let pinned = agree_on_attack_probes(&conv, geom, 16);
    assert!(pinned > 0, "the attack sent no pinned probe set");
}

#[test]
fn oracles_agree_on_unpooled_strided_padded_attack_probes() {
    let geom = LayerGeometry {
        input: Shape3::new(2, 11, 11),
        d_ofm: 4,
        f: 3,
        s: 2,
        p: 1,
        pool: None,
        order: MergedOrder::ActThenPool,
        threshold: 0.0,
    };
    let conv = victim_with_dead_filter(6, geom, 1);
    agree_on_attack_probes(&conv, geom, 16);
}

#[test]
fn oracles_agree_on_padded_and_strided_attack_probes() {
    for (conv, geom) in padded_and_strided_victims() {
        agree_on_attack_probes(&conv, geom, 16);
    }
}
