//! **Figure 5** — top-5 validation accuracy of the SqueezeNet candidate
//! structures after three training epochs.
//!
//! Under the modularity assumption the fire modules and CONV10 collapse to
//! one configuration, so the surviving candidates differ in the stem
//! (CONV1) and the pooling design — exactly what this experiment trains and
//! ranks (depth-scaled, synthetic task; DESIGN.md §4).

use std::sync::Arc;

use cnnre_attacks::exec::{default_threads, map_ordered};
use cnnre_attacks::structure::{
    filter_modular, filter_modular_pools, recover_structures, CandidateStructure,
    NetworkSolverConfig,
};
use cnnre_nn::data::SyntheticSpec;
use cnnre_nn::models::{squeezenet, squeezenet_from_specs, ConvSpec, PoolSpec, SqueezeNetSpec};
use cnnre_nn::train::{evaluate_top_k, Trainer};
use cnnre_tensor::rng::SeedableRng;
use cnnre_tensor::rng::SmallRng;
use cnnre_tensor::Shape3;

use super::trace_of;

/// One trained candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Stem (CONV1) configuration summary.
    pub label: String,
    /// Whether this is the true stem (7×7/s2 + 3×3/s2 pooling).
    pub is_original: bool,
    /// Top-5 validation accuracy after short training.
    pub accuracy: f32,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// Scores, best-first.
    pub scores: Vec<CandidateScore>,
    /// Raw structure count before the modularity assumption.
    pub raw_candidates: usize,
}

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingConfig {
    /// Channel-depth divisor.
    pub depth_div: usize,
    /// Synthetic classes (top-5 needs comfortably more than 5).
    pub classes: usize,
    /// Training samples per class.
    pub samples_per_class: usize,
    /// Epochs — the paper uses three ("short training").
    pub epochs: usize,
}

impl RankingConfig {
    /// Default parameters.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            depth_div: 32,
            classes: 12,
            samples_per_class: 16,
            epochs: 3,
        }
    }

    /// Smoke-test parameters.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            depth_div: 64,
            classes: 8,
            samples_per_class: 4,
            epochs: 1,
        }
    }
}

/// Regenerates Figure 5.
///
/// # Panics
///
/// Panics when the attack fails or a candidate cannot be instantiated.
#[must_use]
pub fn run(cfg: &RankingConfig) -> Fig5 {
    let mut rng = SmallRng::seed_from_u64(0);
    let victim = squeezenet(1, 1000, &mut rng);
    let structures = recover_structures(
        &trace_of(&victim).trace,
        (227, 3),
        1000,
        &NetworkSolverConfig::default(),
    )
    .expect("squeezenet attack");
    let raw_candidates = structures.len();
    let conv_groups: Vec<Vec<usize>> = (0..3)
        .map(|role| (0..8).map(|m| 1 + 3 * m + role).collect())
        .collect();
    let pool_groups = vec![vec![8, 9, 20, 21]];
    let modular = filter_modular_pools(filter_modular(structures, &conv_groups), &pool_groups);

    // Shared dataset.
    let spec = SyntheticSpec::new(Shape3::new(3, 227, 227), cfg.classes)
        .samples_per_class(cfg.samples_per_class)
        .noise(1.2);
    let mut data_rng = SmallRng::seed_from_u64(99);
    let templates = spec.templates(&mut data_rng);
    let train = spec.generate_from_templates(&templates, &mut data_rng);
    let test = spec.generate_from_templates(&templates, &mut data_rng);

    // Seeded per candidate, so `--threads` workers train deterministically.
    let cfg = *cfg;
    let data = Arc::new((train, test));
    let train_one = move |_, s: CandidateStructure| {
        let (train, test) = &*data;
        let mut net_rng = SmallRng::seed_from_u64(7);
        let net_spec = spec_for_candidate(&s, cfg.depth_div, cfg.classes);
        let mut net =
            squeezenet_from_specs(&net_spec, &mut net_rng).expect("candidate instantiates");
        let trainer = Trainer::new(0.003).momentum(0.9).batch_size(12);
        let mut train_rng = SmallRng::seed_from_u64(11);
        let _ = trainer.train(&mut net, train, cfg.epochs, &mut train_rng);
        let stem = s.conv_layers()[0];
        let pool_of = |idx: usize| {
            s.conv_layers()[idx]
                .pool
                .map_or("-".to_string(), |p| format!("{}/{}", p.f, p.s))
        };
        CandidateScore {
            label: format!("{stem}; downsample pools {} & {}", pool_of(8), pool_of(20)),
            is_original: stem.f_conv == 7
                && stem.s_conv == 2
                && stem.pool.map(|p| (p.f, p.s)) == Some((3, 2)),
            accuracy: evaluate_top_k(&net, test, 5),
        }
    };
    let mut scores: Vec<CandidateScore> = map_ordered(default_threads(), modular, train_one);
    scores.sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).expect("finite"));
    if cnnre_obs::enabled() {
        let reg = cnnre_obs::global();
        reg.counter("fig5.candidates_total")
            .add(raw_candidates as u64);
        reg.counter("fig5.candidates_trained")
            .add(scores.len() as u64);
        let series = reg.series("fig5.candidate_accuracy");
        for s in &scores {
            series.push(f64::from(s.accuracy));
        }
    }
    Fig5 {
        scores,
        raw_candidates,
    }
}

/// Builds a trainable (depth-scaled) SqueezeNet from a recovered candidate:
/// the stem and down-sampling pools come from the candidate, the fire
/// geometry is the modularity-pinned canonical one.
fn spec_for_candidate(s: &CandidateStructure, depth_div: usize, classes: usize) -> SqueezeNetSpec {
    let mut spec = SqueezeNetSpec::v1_0(depth_div, classes);
    let convs = s.conv_layers();
    let stem = convs[0];
    spec.conv1 = ConvSpec::new(spec.conv1.d_ofm, stem.f_conv, stem.s_conv, stem.p_conv);
    if let Some(p) = stem.pool {
        spec.conv1 = spec.conv1.with_pool(PoolSpec {
            kind: cnnre_nn::layer::PoolKind::Max,
            f: p.f,
            s: p.s,
            p: p.p,
        });
    }
    // Down-sampling pools after fire4/fire8 (conv layers 8/9 and 20/21 are
    // the pooled expand pairs).
    if let Some(p) = convs[8].pool {
        let pool = PoolSpec {
            kind: cnnre_nn::layer::PoolKind::Max,
            f: p.f,
            s: p.s,
            p: p.p,
        };
        spec.fires[2].pool_after = Some(pool);
    }
    if let Some(p) = convs[20].pool {
        let pool = PoolSpec {
            kind: cnnre_nn::layer::PoolKind::Max,
            f: p.f,
            s: p.s,
            p: p.p,
        };
        spec.fires[6].pool_after = Some(pool);
    }
    spec
}

/// Renders the ranking.
#[must_use]
pub fn render(fig: &Fig5) -> String {
    let mut out = format!(
        "Figure 5: top-5 accuracy of {} modular candidates after short training\n\
         (raw structure space before the modularity assumption: {}; paper: 329 -> 9)\n\n",
        fig.scores.len(),
        fig.raw_candidates
    );
    for (rank, s) in fig.scores.iter().enumerate() {
        let bar = "#".repeat((s.accuracy * 40.0).round() as usize);
        let tag = if s.is_original {
            " <= ORIGINAL SqueezeNet stem"
        } else {
            ""
        };
        out.push_str(&format!(
            "  #{:<2} {:>5.1}% |{bar}  [{}]{tag}\n",
            rank + 1,
            100.0 * s.accuracy,
            s.label
        ));
    }
    out
}
