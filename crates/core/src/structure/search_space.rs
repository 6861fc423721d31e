//! Search-space accounting — quantifies the paper's headline claim that
//! the memory side channel collapses an astronomically large prior
//! structure space to a handful of candidates.
//!
//! Without the side channel, a black-box adversary who only knows loose
//! architectural bounds (maximum depth, plausible filter sizes, channel
//! counts, ...) faces a combinatorial space of network structures. The
//! attack reduces that space to the Table-3 candidate counts. This module
//! computes the prior space under an explicit [`SearchSpaceBounds`] prior
//! so the reduction can be reported in orders of magnitude.
//!
//! All sizes are kept in log10 form ([`Log10Size`]) — the raw counts
//! overflow `u128` for realistic bounds.

/// A size expressed as `log10(count)`, so astronomically large spaces
/// stay representable and multiplications become additions.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Log10Size(pub f64);

impl Log10Size {
    /// The size of an empty product (one possibility).
    pub const ONE: Self = Self(0.0);

    /// Builds from an exact count.
    ///
    /// # Panics
    ///
    /// Panics when `count == 0` (an impossible space has no log size).
    #[must_use]
    pub fn from_count(count: u128) -> Self {
        assert!(count > 0, "empty search space");
        // u128 -> f64 is lossy but plenty for a log10.
        #[allow(clippy::cast_precision_loss)]
        Self((count as f64).log10())
    }

    /// The underlying `log10` value.
    #[must_use]
    pub fn log10(self) -> f64 {
        self.0
    }

    /// Product of two spaces (independent choices).
    #[must_use]
    pub fn times(self, other: Self) -> Self {
        Self(self.0 + other.0)
    }

    /// `self^n`: `n` independent copies of this space.
    #[must_use]
    pub fn pow(self, n: u32) -> Self {
        Self(self.0 * f64::from(n))
    }

    /// The reduction factor (in orders of magnitude) achieved by
    /// collapsing this space down to `survivors` candidates.
    #[must_use]
    pub fn reduction_to(self, survivors: usize) -> f64 {
        assert!(survivors > 0, "no survivors: the attack failed");
        #[allow(clippy::cast_precision_loss)]
        let s = (survivors as f64).log10();
        (self.0 - s).max(0.0)
    }

    /// Renders as `10^x` scientific shorthand, e.g. `"10^46.3"`.
    #[must_use]
    pub fn to_scientific(self) -> String {
        format!("10^{:.1}", self.0)
    }
}

/// The adversary's *prior* knowledge of plausible layer hyper-parameters,
/// before any side-channel observation. Mirrors the ranges real networks
/// of the era used (the defaults cover every Table-4 row).
///
/// # Example
///
/// ```
/// use cnnre_attacks::structure::SearchSpaceBounds;
///
/// let bounds = SearchSpaceBounds::default();
/// // AlexNet: 5 conv + 3 FC layers; the attack leaves 90 candidates.
/// let prior = bounds.network_space(5, 3);
/// assert!(prior.log10() > 25.0);
/// assert!(prior.reduction_to(90) > 23.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpaceBounds {
    /// Plausible convolution filter sizes `F`.
    pub filter_sizes: Vec<usize>,
    /// Plausible convolution strides `S`.
    pub strides: Vec<usize>,
    /// Plausible paddings `P`.
    pub paddings: Vec<usize>,
    /// Plausible output-channel counts `D_OFM` (e.g. every multiple of 16
    /// up to 1024 — enumerate them explicitly).
    pub channel_counts: Vec<usize>,
    /// Plausible pooling configurations *including "no pool"* — a count,
    /// not an enumeration (pool F/S pairs are few).
    pub pool_options: usize,
    /// Plausible FC output widths.
    pub fc_widths: Vec<usize>,
}

impl Default for SearchSpaceBounds {
    fn default() -> Self {
        Self {
            filter_sizes: vec![1, 3, 5, 7, 9, 11],
            strides: vec![1, 2, 3, 4],
            paddings: vec![0, 1, 2, 3],
            channel_counts: (1..=64).map(|k| k * 16).collect(),
            // none, 2x2/s2, 3x3/s2, 3x3/s3
            pool_options: 4,
            fc_widths: (1..=64).map(|k| k * 64).collect(),
        }
    }
}

impl SearchSpaceBounds {
    /// Number of hyper-parameter choices for a single convolution layer
    /// (input shape is inherited from the previous layer, so it is not a
    /// free variable).
    #[must_use]
    pub fn conv_layer_choices(&self) -> u128 {
        (self.filter_sizes.len()
            * self.strides.len()
            * self.paddings.len()
            * self.channel_counts.len()
            * self.pool_options) as u128
    }

    /// Number of choices for a single FC layer.
    #[must_use]
    pub fn fc_layer_choices(&self) -> u128 {
        self.fc_widths.len() as u128
    }

    /// Size of the structure space for a network with exactly
    /// `conv_layers` convolutions followed by `fc_layers` FC layers.
    #[must_use]
    pub fn network_space(&self, conv_layers: u32, fc_layers: u32) -> Log10Size {
        Log10Size::from_count(self.conv_layer_choices())
            .pow(conv_layers)
            .times(Log10Size::from_count(self.fc_layer_choices()).pow(fc_layers))
    }

    /// Size of the structure space when even the *depth* is unknown:
    /// sums the spaces over every split of `1..=max_layers` into conv
    /// prefix + FC suffix.
    #[must_use]
    pub fn unknown_depth_space(&self, max_layers: u32) -> Log10Size {
        let conv = Log10Size::from_count(self.conv_layer_choices());
        let fc = Log10Size::from_count(self.fc_layer_choices());
        // log-sum-exp over all (c, f) with 1 <= c + f <= max_layers.
        let mut terms: Vec<f64> = Vec::new();
        for total in 1..=max_layers {
            for convs in 0..=total {
                let fcs = total - convs;
                terms.push(conv.pow(convs).times(fc.pow(fcs)).log10());
            }
        }
        let max = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = terms.iter().map(|t| 10f64.powf(t - max)).sum();
        Log10Size(max + sum.log10())
    }
}

/// One row of the reduction report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionRow {
    /// Network name.
    pub network: String,
    /// Prior structure space under the bounds.
    pub prior: Log10Size,
    /// Candidates surviving the side-channel attack.
    pub survivors: usize,
    /// Orders of magnitude eliminated.
    pub reduction: f64,
}

/// Builds the reduction report for `(name, conv_layers, fc_layers,
/// survivors)` tuples under a common prior, one row per network in input
/// order.
#[must_use]
pub fn reduction_report(
    bounds: &SearchSpaceBounds,
    networks: &[(&str, u32, u32, usize)],
) -> Vec<ReductionRow> {
    networks
        .iter()
        .map(|&(network, convs, fcs, survivors)| {
            let prior = bounds.network_space(convs, fcs);
            ReductionRow {
                network: network.to_string(),
                prior,
                survivors,
                reduction: prior.reduction_to(survivors),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_size_arithmetic() {
        let a = Log10Size::from_count(1000);
        assert!((a.log10() - 3.0).abs() < 1e-12);
        assert!((a.times(a).log10() - 6.0).abs() < 1e-12);
        assert!((a.pow(4).log10() - 12.0).abs() < 1e-12);
        assert_eq!(Log10Size::ONE.log10(), 0.0);
        assert_eq!(a.to_scientific(), "10^3.0");
    }

    #[test]
    fn reduction_is_prior_minus_survivors() {
        let prior = Log10Size::from_count(1_000_000);
        assert!((prior.reduction_to(1) - 6.0).abs() < 1e-9);
        assert!((prior.reduction_to(100) - 4.0).abs() < 1e-9);
        // More survivors than the prior is clamped to zero, not negative.
        assert_eq!(Log10Size::from_count(10).reduction_to(1_000), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty search space")]
    fn zero_count_panics() {
        let _ = Log10Size::from_count(0);
    }

    #[test]
    #[should_panic(expected = "no survivors")]
    fn zero_survivors_panics() {
        let _ = Log10Size::from_count(10).reduction_to(0);
    }

    #[test]
    fn default_bounds_match_manual_count() {
        let b = SearchSpaceBounds::default();
        // 6 filters x 4 strides x 4 paddings x 64 depths x 4 pools.
        assert_eq!(b.conv_layer_choices(), 6 * 4 * 4 * 64 * 4);
        assert_eq!(b.fc_layer_choices(), 64);
    }

    #[test]
    fn alexnet_prior_is_astronomical() {
        let b = SearchSpaceBounds::default();
        // AlexNet: 5 conv + 3 fc.
        let space = b.network_space(5, 3);
        // ~ (24576)^5 * 64^3 ≈ 10^27.4 — far beyond enumeration.
        assert!(space.log10() > 20.0, "{}", space.to_scientific());
        let reduction = space.reduction_to(90);
        assert!(reduction > 18.0);
    }

    #[test]
    fn unknown_depth_dominated_by_deepest_all_conv_split() {
        let b = SearchSpaceBounds::default();
        let fixed = b.network_space(3, 0);
        let unknown = b.unknown_depth_space(3);
        // The sum over splits is at least the largest single split and at
        // most (number of splits) times it.
        assert!(unknown.log10() >= fixed.log10());
        assert!(unknown.log10() <= fixed.log10() + 1.0);
    }

    #[test]
    fn report_rows_are_consistent() {
        let b = SearchSpaceBounds::default();
        let rows = reduction_report(&b, &[("LeNet", 2, 2, 18), ("AlexNet", 5, 3, 90)]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!((r.reduction - r.prior.reduction_to(r.survivors)).abs() < 1e-12);
        }
        // Deeper network, larger prior.
        assert!(rows[1].prior.log10() > rows[0].prior.log10());
    }
}
