//! 2-D convolution layer: im2col + GEMM, or a scatter of the non-zero
//! pixels for sparse inputs such as the weights attack's probes.

use cnnre_tensor::rng::Rng;
use cnnre_tensor::{init, Shape3, Shape4, Tensor3, Tensor4, TensorError};

use crate::gemm::{gemm_acc, gemm_at_acc, gemm_bt_acc};
use crate::im2col::{col2im, im2col, reached, Window};

/// How many GEMM terms [`Conv2d::forward`]'s choice of path charges for
/// one scatter term. Measured on a 2-CPU host, a scatter term costs about
/// 16 GEMM terms, and the scatter broke even at `nnz ≈ 0.045–0.13·C·n` at
/// strides 1–2 and at `nnz ≈ 0.22·C·n` or more at strides 3–4; `1/20`
/// lies at or below each of these.
const SCATTER_COST: usize = 20;

/// A 2-D convolution with square filters, per-output-channel bias, stride and
/// per-side zero padding — the paper's CONV layer with parameters
/// `(D_IFM, D_OFM, F_conv, S_conv, P_conv)`.
///
/// # Example
///
/// ```
/// use cnnre_nn::layer::Conv2d;
/// use cnnre_tensor::{Shape3, Tensor3};
/// use cnnre_tensor::rng::SeedableRng;
///
/// let mut rng = cnnre_tensor::rng::SmallRng::seed_from_u64(0);
/// let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = Tensor3::zeros(Shape3::new(3, 8, 8));
/// let y = conv.forward(&x);
/// assert_eq!(y.shape(), Shape3::new(8, 8, 8));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    weights: Tensor4,
    bias: Vec<f32>,
    win: Window,
    // Gradient and momentum buffers are allocated lazily on first backward
    // pass, so inference-only uses (e.g. full-scale trace generation) do not
    // triple the memory footprint.
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
    vel_weights: Vec<f32>,
    vel_bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a He-initialized convolution with `d_ifm` input channels,
    /// `d_ofm` filters of width `f`, stride `s` and per-side padding `p`.
    ///
    /// # Panics
    ///
    /// Panics when `f == 0` or `s == 0`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        d_ifm: usize,
        d_ofm: usize,
        f: usize,
        s: usize,
        p: usize,
        rng: &mut R,
    ) -> Self {
        assert!(f > 0 && s > 0, "filter width and stride must be positive");
        let shape = Shape4::new(d_ofm, d_ifm, f, f);
        Self::from_parts(init::he_conv(rng, shape), vec![0.0; d_ofm], s, p)
            // lint:allow(panic): he_conv returns exactly shape.len() weights
            .expect("shapes are consistent by construction")
    }

    /// Creates a convolution from explicit weights and biases.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `bias.len()` differs from
    /// the number of filters or the filters are not square.
    pub fn from_parts(
        weights: Tensor4,
        bias: Vec<f32>,
        s: usize,
        p: usize,
    ) -> Result<Self, TensorError> {
        let shape = weights.shape();
        if bias.len() != shape.n {
            return Err(TensorError::ShapeMismatch {
                detail: format!("{} biases for {} filters", bias.len(), shape.n),
            });
        }
        if shape.h != shape.w {
            return Err(TensorError::ShapeMismatch {
                detail: format!("non-square filter {}x{}", shape.h, shape.w),
            });
        }
        let win = Window::new(shape.h, s, p);
        Ok(Self {
            grad_weights: Vec::new(),
            grad_bias: Vec::new(),
            vel_weights: Vec::new(),
            vel_bias: Vec::new(),
            weights,
            bias,
            win,
        })
    }

    /// The filter bank, shaped `(D_OFM, D_IFM, F, F)`.
    #[must_use]
    pub fn weights(&self) -> &Tensor4 {
        &self.weights
    }

    /// Mutable access to the filter bank (e.g. to install target-model
    /// weights in an experiment).
    pub fn weights_mut(&mut self) -> &mut Tensor4 {
        &mut self.weights
    }

    /// Per-output-channel biases.
    #[must_use]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable access to the biases.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// The window geometry `(F, S, P)`.
    #[must_use]
    pub fn window(&self) -> Window {
        self.win
    }

    /// Number of input channels expected (`D_IFM`).
    #[must_use]
    pub fn d_ifm(&self) -> usize {
        self.weights.shape().c
    }

    /// Number of filters (`D_OFM`).
    #[must_use]
    pub fn d_ofm(&self) -> usize {
        self.weights.shape().n
    }

    /// Output shape for input shape `input`, or `None` when the geometry
    /// does not fit.
    #[must_use]
    pub fn out_shape(&self, input: Shape3) -> Option<Shape3> {
        if input.c != self.d_ifm() {
            return None;
        }
        let oh = self.win.conv_out(input.h)?;
        let ow = self.win.conv_out(input.w)?;
        Some(Shape3::new(self.d_ofm(), oh, ow))
    }

    /// Computes the convolution of `input`.
    ///
    /// # Panics
    ///
    /// Panics when `input` does not match the layer geometry.
    #[must_use]
    pub fn forward(&self, input: &Tensor3) -> Tensor3 {
        let out_shape = self
            .out_shape(input.shape())
            // lint:allow(panic): documented `# Panics` API contract of forward()
            .unwrap_or_else(|| panic!("conv geometry mismatch: input {}", input.shape()));
        let (oh, ow) = (out_shape.h, out_shape.w);
        let mut out = Tensor3::zeros(out_shape);
        // Initialize each output channel with its bias, then accumulate.
        for d in 0..self.d_ofm() {
            out.channel_mut(d)
                .iter_mut()
                .for_each(|v| *v = self.bias[d]);
        }
        if let Some(pixels) = self.sparse_pixels(input, oh * ow) {
            self.scatter_acc(input, &pixels, &mut out);
            return out;
        }
        let k = self.d_ifm() * self.win.f * self.win.f;
        let cols = im2col(input, self.win, oh, ow);
        gemm_acc(
            self.d_ofm(),
            k,
            oh * ow,
            self.weights.as_slice(),
            &cols,
            out.as_mut_slice(),
        );
        out
    }

    /// The positions of `input`'s non-zero pixels when [`Conv2d::forward`]
    /// scatters them instead of running im2col and the GEMM over `n`
    /// output positions, or `None` when it runs the GEMM.
    ///
    /// Per filter, the GEMM makes `C·F²·n` terms and the scatter about
    /// `F²/S²` per non-zero pixel, each at many times the cost of a GEMM
    /// term. So the scatter is taken when `nnz · SCATTER_COST < C·n`, and
    /// never when a bias is `-0.0` or NaN or a weight is not finite: the
    /// cases where the GEMM's `w·0` terms can change a result.
    fn sparse_pixels(&self, input: &Tensor3, n: usize) -> Option<Vec<usize>> {
        let budget = self.d_ifm() * n;
        let mut pixels = Vec::new();
        for (i, &v) in input.as_slice().iter().enumerate() {
            // lint:allow(float-eq): the scatter skips exact zeros only.
            if v != 0.0 {
                if (pixels.len() + 1) * SCATTER_COST >= budget {
                    return None;
                }
                pixels.push(i);
            }
        }
        let sound = self
            .bias
            .iter()
            .all(|b| !b.is_nan() && b.to_bits() != (-0.0f32).to_bits())
            && self.weights.as_slice().iter().all(|w| w.is_finite());
        sound.then_some(pixels)
    }

    /// Adds `w·x` into `out` for every pixel `x` of `input` at `pixels`
    /// and every non-zero weight `w` that reaches an output with it.
    ///
    /// Pixels are walked in `(c, y, x)` order, which for any one output is
    /// the GEMM's `(c, fy, fx)` order over its taps, so each output takes
    /// the GEMM's non-zero products in the GEMM's order. The GEMM's other
    /// terms are `w·0 = ±0`: with finite weights and no `-0.0` bias the
    /// sum is never `-0.0` (round-to-nearest gives `+0.0` for exact
    /// cancellation), and adding `±0` to anything else but `-0.0` leaves
    /// it unchanged, so the two paths agree bit for bit.
    fn scatter_acc(&self, input: &Tensor3, pixels: &[usize], out: &mut Tensor3) {
        let shape = input.shape();
        let (oh, ow) = (out.shape().h, out.shape().w);
        let Window { f, s, p } = self.win;
        let plane = shape.h * shape.w;
        for &i in pixels {
            let x = input.as_slice()[i];
            let (c, iy, ix) = (i / plane, i % plane / shape.w, i % shape.w);
            let (oys, oxs) = (reached(oh, iy, self.win), reached(ow, ix, self.win));
            for d in 0..self.d_ofm() {
                let taps = &self.weights.item(d)[c * f * f..(c + 1) * f * f];
                let y = out.channel_mut(d);
                for oy in oys.clone() {
                    let row = &taps[(iy + p - oy * s) * f..][..f];
                    let y_row = &mut y[oy * ow..(oy + 1) * ow];
                    for ox in oxs.clone() {
                        let wv = row[ix + p - ox * s];
                        // lint:allow(float-eq): the GEMM's bit-exact zero-skip.
                        if wv != 0.0 {
                            y_row[ox] += wv * x;
                        }
                    }
                }
            }
        }
    }

    /// The accumulated weight gradient, flattened like
    /// [`Conv2d::weights`]'s storage — empty before any backward pass.
    #[must_use]
    pub fn grad_weights(&self) -> &[f32] {
        &self.grad_weights
    }

    /// The accumulated bias gradient — empty before any backward pass.
    #[must_use]
    pub fn grad_bias(&self) -> &[f32] {
        &self.grad_bias
    }

    /// Backpropagates `grad_out` through the layer for the forward input
    /// `input`, accumulating weight/bias gradients and returning the input
    /// gradient.
    ///
    /// # Panics
    ///
    /// Panics when the shapes are inconsistent with the forward pass.
    #[must_use]
    pub fn backward(&mut self, input: &Tensor3, grad_out: &Tensor3) -> Tensor3 {
        if self.grad_weights.is_empty() {
            self.grad_weights = vec![0.0; self.weights.len()];
            self.grad_bias = vec![0.0; self.bias.len()];
        }
        let out_shape = self
            .out_shape(input.shape())
            // lint:allow(panic): documented `# Panics` API contract of backward()
            .expect("conv geometry mismatch");
        assert_eq!(grad_out.shape(), out_shape, "grad_out shape");
        let (oh, ow) = (out_shape.h, out_shape.w);
        let k = self.d_ifm() * self.win.f * self.win.f;
        let cols = im2col(input, self.win, oh, ow);
        // dW[d_ofm × k] += dY[d_ofm × ohw] · colsᵀ[ohw × k]
        gemm_bt_acc(
            self.d_ofm(),
            oh * ow,
            k,
            grad_out.as_slice(),
            &cols,
            &mut self.grad_weights,
        );
        // db[d] += Σ dY[d, :]
        for d in 0..self.d_ofm() {
            self.grad_bias[d] += grad_out.channel(d).iter().sum::<f32>();
        }
        // dcols[k × ohw] = Wᵀ[k × d_ofm] · dY[d_ofm × ohw]
        let mut dcols = vec![0.0f32; k * oh * ow];
        gemm_at_acc(
            k,
            self.d_ofm(),
            oh * ow,
            self.weights.as_slice(),
            grad_out.as_slice(),
            &mut dcols,
        );
        col2im(&dcols, input.shape(), self.win, oh, ow)
    }

    /// Applies one SGD step to the weights and biases, consuming and
    /// clearing the accumulated gradients.
    pub fn sgd_step(&mut self, lr: f32, momentum: f32, weight_decay: f32) {
        if self.grad_weights.is_empty() {
            return; // no backward pass has run yet
        }
        if self.vel_weights.is_empty() {
            self.vel_weights = vec![0.0; self.weights.len()];
            self.vel_bias = vec![0.0; self.bias.len()];
        }
        super::sgd_update(
            self.weights.as_mut_slice(),
            &mut self.grad_weights,
            &mut self.vel_weights,
            lr,
            momentum,
            weight_decay,
        );
        super::sgd_update(
            &mut self.bias,
            &mut self.grad_bias,
            &mut self.vel_bias,
            lr,
            momentum,
            0.0,
        );
    }

    /// Divides the accumulated gradients by `n` (mini-batch averaging).
    pub fn scale_grads(&mut self, factor: f32) {
        cnnre_tensor::ops::scale(factor, &mut self.grad_weights);
        cnnre_tensor::ops::scale(factor, &mut self.grad_bias);
    }

    /// Number of MAC operations to compute one output feature map.
    #[must_use]
    pub fn macs(&self, input: Shape3) -> u64 {
        match self.out_shape(input) {
            Some(out) => crate::geometry::conv_macs(out.w, self.d_ofm(), self.win.f, self.d_ifm()),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnnre_tensor::rng::SeedableRng;
    use cnnre_tensor::rng::SmallRng;

    fn naive_conv(input: &Tensor3, conv: &Conv2d) -> Tensor3 {
        let out_shape = conv.out_shape(input.shape()).unwrap();
        let win = conv.window();
        let mut out = Tensor3::zeros(out_shape);
        for d in 0..out_shape.c {
            for oy in 0..out_shape.h {
                for ox in 0..out_shape.w {
                    let mut acc = conv.bias()[d];
                    for c in 0..input.shape().c {
                        for fy in 0..win.f {
                            for fx in 0..win.f {
                                let iy = (oy * win.s + fy) as isize - win.p as isize;
                                let ix = (ox * win.s + fx) as isize - win.p as isize;
                                if iy >= 0
                                    && ix >= 0
                                    && (iy as usize) < input.shape().h
                                    && (ix as usize) < input.shape().w
                                {
                                    acc += conv.weights()[(d, c, fy, fx)]
                                        * input[(c, iy as usize, ix as usize)];
                                }
                            }
                        }
                    }
                    out[(d, oy, ox)] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive_reference() {
        let mut rng = SmallRng::seed_from_u64(5);
        for &(c, hw, d, f, s, p) in &[
            (3usize, 8usize, 4usize, 3usize, 1usize, 0usize),
            (2, 9, 5, 3, 2, 1),
            (1, 7, 2, 5, 2, 2),
            (4, 6, 3, 1, 1, 0),
        ] {
            let conv = Conv2d::new(c, d, f, s, p, &mut rng);
            let x = Tensor3::from_fn(Shape3::new(c, hw, hw), |_, _, _| rng.gen_range(-1.0..1.0));
            let fast = conv.forward(&x);
            let slow = naive_conv(&x, &conv);
            assert_eq!(fast.shape(), slow.shape());
            let err = cnnre_tensor::ops::max_abs_diff(fast.as_slice(), slow.as_slice());
            assert!(
                err < 1e-4,
                "conv mismatch {err} for ({c},{hw},{d},{f},{s},{p})"
            );
        }
    }

    use cnnre_tensor::rng::Rng;

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor3::from_fn(Shape3::new(2, 5, 5), |_, _, _| rng.gen_range(-1.0..1.0));
        // Loss = sum(y); dy = ones.
        let y = conv.forward(&x);
        let dy = Tensor3::full(y.shape(), 1.0);
        let dx = conv.backward(&x, &dy);

        let eps = 1e-3f32;
        // Check a few input gradient entries.
        for &(c, h, w) in &[(0usize, 0usize, 0usize), (1, 2, 3), (0, 4, 4)] {
            let mut xp = x.clone();
            xp[(c, h, w)] += eps;
            let mut xm = x.clone();
            xm[(c, h, w)] -= eps;
            let num = (cnnre_tensor::ops::sum(conv.forward(&xp).as_slice())
                - cnnre_tensor::ops::sum(conv.forward(&xm).as_slice()))
                / (2.0 * eps);
            assert!(
                (num - dx[(c, h, w)]).abs() < 2e-2,
                "dx({c},{h},{w}): {num} vs {}",
                dx[(c, h, w)]
            );
        }
        // Check a weight gradient entry.
        let widx = conv.weights().shape().index(1, 0, 1, 1);
        let gw = conv.grad_weights[widx];
        let mut cp = conv.clone();
        cp.weights_mut()[(1, 0, 1, 1)] += eps;
        let mut cm = conv.clone();
        cm.weights_mut()[(1, 0, 1, 1)] -= eps;
        let num = (cnnre_tensor::ops::sum(cp.forward(&x).as_slice())
            - cnnre_tensor::ops::sum(cm.forward(&x).as_slice()))
            / (2.0 * eps);
        assert!((num - gw).abs() < 5e-2, "dW: {num} vs {gw}");
        // Bias gradient equals number of output pixels.
        let out_pixels =
            (conv.out_shape(x.shape()).unwrap().h * conv.out_shape(x.shape()).unwrap().w) as f32;
        assert!((conv.grad_bias[0] - out_pixels).abs() < 1e-3);
    }

    /// `forward` and `backward` over the per-element reference lowering:
    /// the output, the input gradient, and the weight and bias gradients.
    fn reference_pass(conv: &Conv2d, x: &Tensor3, dy: &Tensor3) -> [Vec<f32>; 4] {
        use crate::im2col::reference;
        let out_shape = conv.out_shape(x.shape()).unwrap();
        let (win, n) = (conv.window(), out_shape.h * out_shape.w);
        let k = conv.d_ifm() * win.f * win.f;
        let cols = reference::im2col(x, win, out_shape.h, out_shape.w);
        let y = reference_forward(conv, &cols, n);
        let mut dw = vec![0.0; conv.weights().len()];
        gemm_bt_acc(conv.d_ofm(), n, k, dy.as_slice(), &cols, &mut dw);
        let db = (0..conv.d_ofm())
            .map(|d| 0.0 + dy.channel(d).iter().sum::<f32>())
            .collect();
        let mut dcols = vec![0.0; k * n];
        gemm_at_acc(
            k,
            conv.d_ofm(),
            n,
            conv.weights().as_slice(),
            dy.as_slice(),
            &mut dcols,
        );
        let dx = reference::col2im(&dcols, x.shape(), win, out_shape.h, out_shape.w);
        [y, dx.as_slice().to_vec(), dw, db]
    }

    /// The GEMM over `cols`, the reference lowering of the input, seeded
    /// with each filter's bias over its `n` outputs.
    fn reference_forward(conv: &Conv2d, cols: &[f32], n: usize) -> Vec<f32> {
        let k = cols.len() / n;
        let mut y: Vec<f32> = (0..conv.d_ofm())
            .flat_map(|d| std::iter::repeat_n(conv.bias()[d], n))
            .collect();
        gemm_acc(conv.d_ofm(), k, n, conv.weights().as_slice(), cols, &mut y);
        y
    }

    /// A seeded non-zero value of the kinds a probe carries: `±1e9` pins,
    /// subnormals of either sign, and ordinary magnitudes.
    fn pixel(rng: &mut SmallRng) -> f32 {
        match rng.gen_range(0..6) {
            0 => 1e9,
            1 => -1e9,
            2 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
            3 => -f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
            _ => rng.gen_range(-4.0..4.0),
        }
    }

    /// One seeded layer and input for the scatter-against-GEMM sweep:
    /// `(c, f, s, p)` in `1..=3`, `1..=6`, `1..=3`, `0..=3`; weights with
    /// `±0.0` and subnormals of both signs, one in 40 layers with a
    /// non-finite weight; biases with `±0.0`; and an input with 0–3
    /// non-zero pixels and up to two `-0.0` ones, or one in 8 times a
    /// dense input.
    fn random_sparse_case(rng: &mut SmallRng) -> (Conv2d, Tensor3) {
        use crate::im2col::reference::value;
        let (c, f) = (rng.gen_range(1..=3usize), rng.gen_range(1..=6usize));
        let (s, p, d) = (
            rng.gen_range(1..=3usize),
            rng.gen_range(0..=3usize),
            rng.gen_range(1..=4usize),
        );
        let side_lo = f.saturating_sub(2 * p).max(1);
        let (h, w) = (
            rng.gen_range(side_lo..=f + 12),
            rng.gen_range(side_lo..=f + 12),
        );
        let mut weights: Vec<f32> = (0..d * c * f * f)
            .map(|_| match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                3 => -f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect();
        if rng.gen_range(0..40) == 0 {
            let at = rng.gen_range(0..weights.len());
            weights[at] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3usize)];
        }
        let bias = (0..d)
            .map(|_| match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0..1.0),
            })
            .collect();
        let weights = Tensor4::from_vec(Shape4::new(d, c, f, f), weights).unwrap();
        let conv = Conv2d::from_parts(weights, bias, s, p).unwrap();
        let shape = Shape3::new(c, h, w);
        if rng.gen_range(0..8) == 0 {
            return (conv, Tensor3::from_fn(shape, |_, _, _| value(rng)));
        }
        let mut x = Tensor3::zeros(shape);
        let at = |rng: &mut SmallRng| {
            (
                rng.gen_range(0..c),
                rng.gen_range(0..h),
                rng.gen_range(0..w),
            )
        };
        for _ in 0..rng.gen_range(0..=2) {
            x[at(rng)] = -0.0;
        }
        for _ in 0..rng.gen_range(0..=3) {
            x[at(rng)] = pixel(rng);
        }
        (conv, x)
    }

    /// Runs `Conv2d::forward` on seeded sparse and dense cases and
    /// compares its bits with the reference lowering and the GEMM; both
    /// paths must be taken.
    fn assert_sparse_forward_equals_dense(seeds: core::ops::Range<u64>) {
        use crate::im2col::reference::{self, bits};
        let (mut scattered, mut dense) = (0, 0);
        for seed in seeds {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (conv, x) = random_sparse_case(&mut rng);
            let out_shape = conv.out_shape(x.shape()).unwrap();
            let n = out_shape.h * out_shape.w;
            if conv.sparse_pixels(&x, n).is_some() {
                scattered += 1;
            } else {
                dense += 1;
            }
            let cols = reference::im2col(&x, conv.window(), out_shape.h, out_shape.w);
            assert_eq!(
                bits(conv.forward(&x).as_slice()),
                bits(&reference_forward(&conv, &cols, n)),
                "seed {seed}: {:?} on {}",
                conv.window(),
                x.shape()
            );
        }
        assert!(
            scattered > 0 && dense > 0,
            "{scattered} scattered, {dense} dense"
        );
    }

    #[test]
    fn sparse_forward_equals_the_dense_lowering_bit_for_bit() {
        assert_sparse_forward_equals_dense(0..400);
    }

    #[test]
    #[ignore = "a 100x longer seed sweep; run with --release by scripts/check.sh"]
    fn sparse_forward_equals_the_dense_lowering_bit_for_bit_long() {
        assert_sparse_forward_equals_dense(0..40_000);
    }

    #[test]
    fn forward_and_backward_equal_the_reference_lowering_bit_for_bit() {
        use crate::im2col::reference::{bits, value, SWEEP};
        let mut rng = SmallRng::seed_from_u64(26);
        for (c, h, w, f, s, p) in SWEEP {
            let d = 3;
            let weights = Tensor4::from_vec(
                Shape4::new(d, c, f, f),
                (0..d * c * f * f).map(|_| value(&mut rng)).collect(),
            )
            .unwrap();
            let bias = (0..d).map(|_| value(&mut rng)).collect();
            let mut conv = Conv2d::from_parts(weights, bias, s, p).unwrap();
            let x = Tensor3::from_fn(Shape3::new(c, h, w), |_, _, _| value(&mut rng));
            let out_shape = conv.out_shape(x.shape()).unwrap();
            let dy = Tensor3::from_fn(out_shape, |_, _, _| value(&mut rng));
            let [y, dx, dw, db] = reference_pass(&conv, &x, &dy);
            let at = format!("{c}x{h}x{w} f{f} s{s} p{p}");
            assert_eq!(bits(conv.forward(&x).as_slice()), bits(&y), "forward {at}");
            let got_dx = conv.backward(&x, &dy);
            assert_eq!(bits(got_dx.as_slice()), bits(&dx), "dx {at}");
            assert_eq!(bits(conv.grad_weights()), bits(&dw), "dW {at}");
            assert_eq!(bits(conv.grad_bias()), bits(&db), "db {at}");
        }
    }

    #[test]
    fn from_parts_validates() {
        let w = Tensor4::zeros(Shape4::new(4, 2, 3, 3));
        assert!(Conv2d::from_parts(w.clone(), vec![0.0; 3], 1, 0).is_err());
        assert!(Conv2d::from_parts(w, vec![0.0; 4], 1, 0).is_ok());
        let rect = Tensor4::zeros(Shape4::new(4, 2, 3, 5));
        assert!(Conv2d::from_parts(rect, vec![0.0; 4], 1, 0).is_err());
    }

    #[test]
    fn out_shape_checks_channels() {
        let mut rng = SmallRng::seed_from_u64(0);
        let conv = Conv2d::new(3, 8, 3, 1, 0, &mut rng);
        assert!(conv.out_shape(Shape3::new(2, 8, 8)).is_none());
        assert_eq!(
            conv.out_shape(Shape3::new(3, 8, 8)),
            Some(Shape3::new(8, 6, 6))
        );
    }

    #[test]
    fn sgd_step_clears_grads() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        let x = Tensor3::full(Shape3::new(1, 2, 2), 1.0);
        let y = conv.forward(&x);
        let _ = conv.backward(&x, &Tensor3::full(y.shape(), 1.0));
        assert!(conv.grad_bias[0] != 0.0);
        conv.sgd_step(0.01, 0.9, 0.0);
        assert_eq!(conv.grad_bias[0], 0.0);
        assert!(conv.grad_weights.iter().all(|&g| g == 0.0));
    }
}
