//! Weight-ratio recovery for fully connected layers.
//!
//! §4.1 notes that FC layers (like 1×1 convolutions) are the easy case:
//! every output neuron `y_j = Σ w_ji·x_i + b_j` depends on each input
//! through exactly one weight, so probing one input at a time and binary
//! searching its zero crossing yields `w_ji/b_j` directly — no pooling, no
//! masking, no pins. With the accelerator computing one output per weight
//! tile, the pruned write stream attributes the (0-or-1) non-zero count to
//! individual outputs.

use cnnre_nn::layer::Linear;

use crate::weights::search::{find_monotone_crossings, ProbeGrid, SearchConfig};

/// The adversary's per-output zero/non-zero observation for an FC layer.
pub trait FcZeroCountOracle {
    /// Input width of the layer.
    fn in_features(&self) -> usize;

    /// Output width of the layer.
    fn out_features(&self) -> usize;

    /// Feeds an input that is zero except `x[index] = value`; returns for
    /// each output whether it survived pruning.
    fn query(&mut self, index: usize, value: f32) -> Vec<bool>;

    /// Inference queries so far.
    fn query_count(&self) -> u64;
}

/// Functional oracle over a real [`Linear`] layer with threshold-`0` ReLU
/// pruning.
#[derive(Debug, Clone)]
pub struct FunctionalFcOracle {
    layer: Linear,
    queries: u64,
}

impl FunctionalFcOracle {
    /// Wraps the victim layer.
    #[must_use]
    pub fn new(layer: Linear) -> Self {
        Self { layer, queries: 0 }
    }
}

impl FcZeroCountOracle for FunctionalFcOracle {
    fn in_features(&self) -> usize {
        self.layer.in_features()
    }

    fn out_features(&self) -> usize {
        self.layer.out_features()
    }

    fn query(&mut self, index: usize, value: f32) -> Vec<bool> {
        self.queries += 1;
        if cnnre_obs::enabled() {
            cnnre_obs::counter("oracle.queries").inc();
        }
        let n = self.layer.in_features();
        (0..self.layer.out_features())
            .map(|j| {
                let w = self.layer.weights()[j * n + index];
                w * value + self.layer.bias()[j] > 0.0
            })
            .collect()
    }

    fn query_count(&self) -> u64 {
        self.queries
    }
}

/// The recovered `w/b` matrix of an FC layer (`out × in`, row-major);
/// `Some(0.0)` marks identified zero weights.
#[derive(Debug, Clone, PartialEq)]
pub struct FcRatioRecovery {
    /// Output count.
    pub out_features: usize,
    /// Input count.
    pub in_features: usize,
    /// Row-major `w/b` estimates.
    pub ratios: Vec<Option<f64>>,
    /// Queries consumed.
    pub queries: u64,
}

impl FcRatioRecovery {
    /// The recovered `w/b` of weight `(j, i)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    #[must_use]
    pub fn ratio(&self, j: usize, i: usize) -> Option<f64> {
        self.ratios[j * self.in_features + i]
    }

    /// Largest |w/b| error against ground truth.
    ///
    /// # Panics
    ///
    /// Panics when `layer` has a different shape.
    #[must_use]
    pub fn max_ratio_error(&self, layer: &Linear) -> f64 {
        assert_eq!(layer.in_features(), self.in_features, "in features");
        assert_eq!(layer.out_features(), self.out_features, "out features");
        let mut worst = 0.0f64;
        for j in 0..self.out_features {
            for i in 0..self.in_features {
                if let Some(est) = self.ratio(j, i) {
                    let truth = f64::from(layer.weights()[j * self.in_features + i])
                        / f64::from(layer.bias()[j]);
                    worst = worst.max((est - truth).abs());
                }
            }
        }
        worst
    }
}

/// Recovers every `w_ji/b_j` of the FC layer behind `oracle`.
///
/// Each search watches one neuron against one probed input, whose count
/// `w·x + b > 0` is monotone on each side of zero, so it uses
/// [`find_monotone_crossings`].
pub fn recover_fc_ratios(
    oracle: &mut dyn FcZeroCountOracle,
    search: &SearchConfig,
) -> FcRatioRecovery {
    let (n_in, n_out) = (oracle.in_features(), oracle.out_features());
    let mut ratios = vec![None; n_in * n_out];
    let grid = ProbeGrid::new(search);
    for i in 0..n_in {
        for j in 0..n_out {
            let crossings = find_monotone_crossings(|v| u64::from(oracle.query(i, v)[j]), &grid);
            ratios[j * n_in + i] = match crossings[..] {
                [] => Some(0.0),
                [single] => Some(-1.0 / single.x),
                // A linear function of one variable crosses zero at most
                // once; multiple detections mean numerical trouble.
                _ => None,
            };
        }
    }
    FcRatioRecovery {
        out_features: n_out,
        in_features: n_in,
        ratios,
        queries: oracle.query_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnnre_tensor::rng::SmallRng;
    use cnnre_tensor::rng::{Rng, SeedableRng};

    fn victim(seed: u64, zeros: bool) -> Linear {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (n_in, n_out) = (6, 4);
        let mut w: Vec<f32> = (0..n_in * n_out)
            .map(|_| rng.gen_range(-1.0..1.0f32))
            .collect();
        if zeros {
            for k in (0..w.len()).step_by(5) {
                w[k] = 0.0;
            }
        }
        let b: Vec<f32> = (0..n_out)
            .map(|_| rng.gen_range(0.05..0.5f32) * if rng.gen_bool(0.5) { -1.0 } else { 1.0 })
            .collect();
        Linear::from_parts(n_in, n_out, w, b).expect("victim fc")
    }

    /// [`recover_fc_ratios`] on the full probe grid, as a reference.
    fn full_grid_reference(layer: &Linear) -> FcRatioRecovery {
        let mut oracle = FunctionalFcOracle::new(layer.clone());
        let (n_in, n_out) = (layer.in_features(), layer.out_features());
        let mut ratios = vec![None; n_in * n_out];
        let grid = ProbeGrid::new(&SearchConfig::default());
        for i in 0..n_in {
            for j in 0..n_out {
                let crossings = crate::weights::search::find_crossings(
                    |v| u64::from(oracle.query(i, v)[j]),
                    &grid,
                );
                ratios[j * n_in + i] = match crossings[..] {
                    [] => Some(0.0),
                    [single] => Some(-1.0 / single.x),
                    _ => None,
                };
            }
        }
        FcRatioRecovery {
            out_features: n_out,
            in_features: n_in,
            ratios,
            queries: oracle.query_count(),
        }
    }

    /// Recovers `layer` and checks the ratios against the full-grid
    /// reference bit for bit, with fewer queries.
    fn recover_and_compare(layer: &Linear) -> FcRatioRecovery {
        let mut oracle = FunctionalFcOracle::new(layer.clone());
        let rec = recover_fc_ratios(&mut oracle, &SearchConfig::default());
        let reference = full_grid_reference(layer);
        assert_eq!(rec.ratios, reference.ratios);
        assert!(
            2 * rec.queries < reference.queries,
            "{} queries vs {} on the full grid",
            rec.queries,
            reference.queries
        );
        rec
    }

    #[test]
    fn recovers_all_fc_ratios_precisely() {
        let layer = victim(1, false);
        let rec = recover_and_compare(&layer);
        assert!(rec.ratios.iter().all(Option::is_some));
        let err = rec.max_ratio_error(&layer);
        assert!(err < 2f64.powi(-10), "max error {err:.3e}");
    }

    #[test]
    fn identifies_fc_zero_weights() {
        let layer = victim(2, true);
        let rec = recover_and_compare(&layer);
        for j in 0..4 {
            for i in 0..6 {
                if layer.weights()[j * 6 + i] == 0.0 {
                    assert_eq!(rec.ratio(j, i), Some(0.0), "({j},{i})");
                }
            }
        }
        assert!(rec.max_ratio_error(&layer) < 2f64.powi(-10));
    }

    #[test]
    fn works_for_either_bias_sign() {
        // Positive bias: baseline alive, crossings are downward; negative:
        // baseline dead, upward. Both recover.
        for seed in [3u64, 4, 5] {
            let layer = victim(seed, false);
            let rec = recover_and_compare(&layer);
            assert!(rec.max_ratio_error(&layer) < 2f64.powi(-10), "seed {seed}");
        }
    }
}
