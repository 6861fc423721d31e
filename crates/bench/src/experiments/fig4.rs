//! **Figure 4** — top-1 validation accuracy of the recovered AlexNet
//! candidate structures after short training.
//!
//! The paper trains its 24 candidates on ImageNet; we train depth-scaled
//! candidates on a seeded synthetic task (DESIGN.md §4). The *shape* under
//! test: candidates differ measurably in achievable accuracy and the true
//! structure ranks near the top.

use std::sync::Arc;

use cnnre_attacks::exec::{default_threads, map_ordered};
use cnnre_attacks::structure::{recover_structures, CandidateStructure, NetworkSolverConfig};
use cnnre_nn::data::SyntheticSpec;
use cnnre_nn::models::{alexnet, alexnet_from_specs, ConvSpec, ALEXNET_CONV_SPECS};
use cnnre_nn::train::{evaluate_top_k, Trainer};
use cnnre_tensor::rng::SeedableRng;
use cnnre_tensor::rng::SmallRng;
use cnnre_tensor::Shape3;

use super::trace_of;

/// One trained candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Conv-geometry summary.
    pub label: String,
    /// Whether this is the true AlexNet geometry.
    pub is_original: bool,
    /// Top-1 validation accuracy after training.
    pub accuracy: f32,
}

/// The regenerated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// Scores, sorted best-first.
    pub scores: Vec<CandidateScore>,
    /// Total candidates the attack produced (before capping).
    pub total_candidates: usize,
}

impl Fig4 {
    /// Best-minus-worst accuracy (the paper reports 12.3%).
    #[must_use]
    pub fn spread(&self) -> f32 {
        match (self.scores.first(), self.scores.last()) {
            (Some(a), Some(b)) => a.accuracy - b.accuracy,
            _ => 0.0,
        }
    }

    /// 1-based rank of the original structure (paper: 4th of 24).
    #[must_use]
    pub fn original_rank(&self) -> Option<usize> {
        self.scores
            .iter()
            .position(|s| s.is_original)
            .map(|p| p + 1)
    }
}

/// Training hyper-parameters for the candidate ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingConfig {
    /// Channel-depth divisor applied to every candidate.
    pub depth_div: usize,
    /// Synthetic classes.
    pub classes: usize,
    /// Training samples per class.
    pub samples_per_class: usize,
    /// Training epochs ("short training", §3.2).
    pub epochs: usize,
    /// Cap on the number of candidates trained.
    pub max_candidates: usize,
}

impl RankingConfig {
    /// Default parameters (minutes of CPU time).
    #[must_use]
    pub fn standard() -> Self {
        Self {
            depth_div: 32,
            classes: 10,
            samples_per_class: 16,
            epochs: 3,
            max_candidates: 24,
        }
    }

    /// Smoke-test parameters.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            depth_div: 64,
            classes: 4,
            samples_per_class: 8,
            epochs: 1,
            max_candidates: 4,
        }
    }
}

fn signature(s: &CandidateStructure) -> String {
    s.conv_layers()
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(" | ")
}

fn is_original(s: &CandidateStructure) -> bool {
    let convs = s.conv_layers();
    convs.len() == ALEXNET_CONV_SPECS.len()
        && convs.iter().zip(&ALEXNET_CONV_SPECS).all(|(c, spec)| {
            c.f_conv == spec.f
                && c.s_conv == spec.s
                && c.d_ofm == spec.d_ofm
                && c.pool.map(|p| (p.f, p.s)) == spec.pool.map(|p| (p.f, p.s))
        })
}

/// Regenerates Figure 4: attack, instantiate candidates, train, rank.
///
/// # Panics
///
/// Panics when the attack or a candidate instantiation fails (a bug).
#[must_use]
pub fn run(cfg: &RankingConfig) -> Fig4 {
    let mut rng = SmallRng::seed_from_u64(0);
    let victim = alexnet(1, 1000, &mut rng);
    let mut structures = recover_structures(
        &trace_of(&victim).trace,
        (227, 3),
        1000,
        &NetworkSolverConfig::default(),
    )
    .expect("alexnet attack");
    let total_candidates = structures.len();
    // Deterministic cap: keep the original plus evenly spaced others.
    structures.sort_by_key(signature);
    let original_idx = structures.iter().position(is_original);
    let mut picked: Vec<CandidateStructure> = Vec::new();
    if let Some(i) = original_idx {
        picked.push(structures[i].clone());
    }
    let step = (structures.len() / cfg.max_candidates.max(1)).max(1);
    for (i, s) in structures.iter().enumerate() {
        if picked.len() >= cfg.max_candidates {
            break;
        }
        if i % step == 0 && Some(i) != original_idx {
            picked.push(s.clone());
        }
    }

    // Shared dataset for all candidates.
    let spec = SyntheticSpec::new(Shape3::new(3, 227, 227), cfg.classes)
        .samples_per_class(cfg.samples_per_class)
        .noise(1.2);
    let mut data_rng = SmallRng::seed_from_u64(99);
    let templates = spec.templates(&mut data_rng);
    let train = spec.generate_from_templates(&templates, &mut data_rng);
    let test = spec.generate_from_templates(&templates, &mut data_rng);

    // Each candidate trains with its own seeded RNGs, so training them on
    // `--threads` workers is deterministic; `map_ordered` returns the
    // scores in candidate order.
    let cfg = *cfg;
    let data = Arc::new((train, test));
    let train_one = move |_, s: CandidateStructure| {
        let (train, test) = &*data;
        let conv_specs: Vec<ConvSpec> = s
            .conv_layers()
            .iter()
            .map(|c| c.to_conv_spec(cfg.depth_div))
            .collect();
        let fc_widths = [32usize, 32, cfg.classes];
        let mut net_rng = SmallRng::seed_from_u64(7);
        let mut net = alexnet_from_specs(
            Shape3::new(3, 227, 227),
            &conv_specs,
            &fc_widths,
            &mut net_rng,
        )
        .expect("candidate geometry is attack-validated");
        let trainer = Trainer::new(0.003).momentum(0.9).batch_size(10);
        let mut train_rng = SmallRng::seed_from_u64(11);
        let _ = trainer.train(&mut net, train, cfg.epochs, &mut train_rng);
        CandidateScore {
            label: signature(&s),
            is_original: is_original(&s),
            accuracy: evaluate_top_k(&net, test, 1),
        }
    };
    let mut scores: Vec<CandidateScore> = map_ordered(default_threads(), picked, train_one);
    scores.sort_by(|a, b| b.accuracy.partial_cmp(&a.accuracy).expect("finite"));
    if cnnre_obs::enabled() {
        let reg = cnnre_obs::global();
        reg.counter("fig4.candidates_total")
            .add(total_candidates as u64);
        reg.counter("fig4.candidates_trained")
            .add(scores.len() as u64);
        let series = reg.series("fig4.candidate_accuracy");
        for s in &scores {
            series.push(f64::from(s.accuracy));
        }
    }
    Fig4 {
        scores,
        total_candidates,
    }
}

/// Renders the ranking as an ASCII bar chart.
#[must_use]
pub fn render(fig: &Fig4) -> String {
    let mut out = format!(
        "Figure 4: top-1 accuracy of {} trained candidates (of {} recovered)\n\n",
        fig.scores.len(),
        fig.total_candidates
    );
    for (rank, s) in fig.scores.iter().enumerate() {
        let bar = "#".repeat((s.accuracy * 40.0).round() as usize);
        let tag = if s.is_original {
            " <= ORIGINAL AlexNet"
        } else {
            ""
        };
        out.push_str(&format!(
            "  #{:<2} {:>5.1}% |{bar}{tag}\n",
            rank + 1,
            100.0 * s.accuracy
        ));
    }
    out.push_str(&format!(
        "\nbest-to-worst spread: {:.1}% (paper: 12.3%); original rank: {:?} of {} (paper: 4 of 24)\n",
        100.0 * fig.spread(),
        fig.original_rank(),
        fig.scores.len()
    ));
    out
}
