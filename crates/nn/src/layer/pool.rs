//! Max and average pooling.

use cnnre_tensor::{Shape3, Tensor3};

use crate::im2col::{in_bounds, Window};

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window (ignoring padded positions).
    Max,
    /// Sum over in-bounds positions divided by the *full* window area `F²`
    /// (the convention of the paper's Equation (11)).
    Avg,
}

/// A 2-D pooling layer with window `(F_pool, S_pool, P_pool)`.
///
/// Pooling output widths use the ceil convention (see
/// [`crate::geometry::pool_out`]).
///
/// # Example
///
/// ```
/// use cnnre_nn::layer::{Pool, PoolKind};
/// use cnnre_tensor::{Shape3, Tensor3};
///
/// let pool = Pool::new(PoolKind::Max, 3, 2, 0);
/// let x = Tensor3::zeros(Shape3::new(96, 55, 55));
/// assert_eq!(pool.forward(&x).shape(), Shape3::new(96, 27, 27));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pool {
    kind: PoolKind,
    win: Window,
}

impl Pool {
    /// Creates a pooling layer.
    ///
    /// # Panics
    ///
    /// Panics when `f == 0` or `s == 0`.
    #[must_use]
    pub const fn new(kind: PoolKind, f: usize, s: usize, p: usize) -> Self {
        assert!(f > 0 && s > 0, "pool window and stride must be positive");
        Self {
            kind,
            win: Window::new(f, s, p),
        }
    }

    /// The pooling flavour.
    #[must_use]
    pub const fn kind(&self) -> PoolKind {
        self.kind
    }

    /// The window geometry `(F, S, P)`.
    #[must_use]
    pub const fn window(&self) -> Window {
        self.win
    }

    /// Output shape for `input`, or `None` when the window does not fit.
    #[must_use]
    pub fn out_shape(&self, input: Shape3) -> Option<Shape3> {
        let oh = self.win.pool_out(input.h)?;
        let ow = self.win.pool_out(input.w)?;
        Some(Shape3::new(input.c, oh, ow))
    }

    /// Applies the pooling window.
    ///
    /// One output row at a time: each in-bounds tap `(fy, fx)` updates
    /// every output of the row that it reaches, so the outputs' reductions
    /// interleave while each still visits its taps in `(fy, fx)` order —
    /// the same `f32` operations, in the same order, as a per-window loop.
    ///
    /// # Panics
    ///
    /// Panics when the window does not fit `input`.
    #[must_use]
    pub fn forward(&self, input: &Tensor3) -> Tensor3 {
        let out_shape = self
            .out_shape(input.shape())
            // lint:allow(panic): documented `# Panics` API contract of forward()
            .unwrap_or_else(|| panic!("pool geometry mismatch: input {}", input.shape()));
        let mut out = Tensor3::zeros(out_shape);
        let (shape, win) = (input.shape(), self.win);
        let (oh, ow) = (out_shape.h, out_shape.w);
        // Per tap column: its first input column and the outputs it reaches.
        let taps: Vec<_> = (0..win.f)
            .map(|fx| (fx, in_bounds(ow, fx, win, shape.w)))
            .filter(|(_, oxs)| !oxs.is_empty())
            .map(|(fx, oxs)| (oxs.start * win.s + fx - win.p, oxs))
            .collect();
        // The outputs whose window overlaps the input columns: one range,
        // the union of the taps' ranges.
        let reached = taps.iter().map(|(_, oxs)| oxs.start).min().unwrap_or(0)
            ..taps.iter().map(|(_, oxs)| oxs.end).max().unwrap_or(0);
        let area = (win.f * win.f) as f32;
        let (x, y) = (input.as_slice(), out.as_mut_slice());
        let mut acc = vec![0.0f32; ow];
        for c in 0..shape.c {
            let plane = &x[c * shape.h * shape.w..(c + 1) * shape.h * shape.w];
            for oy in 0..oh {
                acc.fill(match self.kind {
                    PoolKind::Max => f32::NEG_INFINITY,
                    PoolKind::Avg => 0.0,
                });
                let mut row_hit = false;
                for fy in 0..win.f {
                    let Some(iy) = (oy * win.s + fy).checked_sub(win.p) else {
                        continue;
                    };
                    if iy >= shape.h {
                        continue;
                    }
                    row_hit = true;
                    let row = &plane[iy * shape.w..(iy + 1) * shape.w];
                    for &(ix0, ref oxs) in &taps {
                        let outs = acc[oxs.clone()].iter_mut().enumerate();
                        match self.kind {
                            PoolKind::Max => {
                                for (k, m) in outs {
                                    *m = m.max(row[ix0 + k * win.s]);
                                }
                            }
                            PoolKind::Avg => {
                                for (k, sum) in outs {
                                    *sum += row[ix0 + k * win.s];
                                }
                            }
                        }
                    }
                }
                let dst = &mut y[(c * oh + oy) * ow..(c * oh + oy + 1) * ow];
                match self.kind {
                    // An output no tap reached pools to 0.0, not -inf.
                    PoolKind::Max if row_hit => {
                        dst[reached.clone()].copy_from_slice(&acc[reached.clone()]);
                    }
                    PoolKind::Max => {}
                    PoolKind::Avg => {
                        for (d, &sum) in dst.iter_mut().zip(&acc) {
                            *d = sum / area;
                        }
                    }
                }
            }
        }
        out
    }

    /// Backpropagates `grad_out` for the forward input `input`.
    ///
    /// Max pooling routes each output gradient to the first maximal input in
    /// the window; average pooling distributes `grad / F²` to each in-bounds
    /// position.
    ///
    /// # Panics
    ///
    /// Panics when the shapes are inconsistent with the forward pass.
    #[must_use]
    pub fn backward(&self, input: &Tensor3, grad_out: &Tensor3) -> Tensor3 {
        let out_shape = self
            .out_shape(input.shape())
            // lint:allow(panic): documented `# Panics` API contract of backward()
            .expect("pool geometry mismatch");
        assert_eq!(grad_out.shape(), out_shape, "grad_out shape");
        let shape = input.shape();
        let mut dx = Tensor3::zeros(shape);
        let inv_area = 1.0 / (self.win.f * self.win.f) as f32;
        for c in 0..shape.c {
            for oy in 0..out_shape.h {
                for ox in 0..out_shape.w {
                    let g = grad_out[(c, oy, ox)];
                    // lint:allow(float-eq): bit-exact zero gradients route
                    // nothing; the skip changes no sums.
                    if g == 0.0 {
                        continue;
                    }
                    match self.kind {
                        PoolKind::Max => {
                            let mut best: Option<(usize, usize)> = None;
                            let mut best_v = f32::NEG_INFINITY;
                            for fy in 0..self.win.f {
                                for fx in 0..self.win.f {
                                    let iy = (oy * self.win.s + fy) as isize - self.win.p as isize;
                                    let ix = (ox * self.win.s + fx) as isize - self.win.p as isize;
                                    if iy < 0
                                        || ix < 0
                                        || iy as usize >= shape.h
                                        || ix as usize >= shape.w
                                    {
                                        continue;
                                    }
                                    let v = input[(c, iy as usize, ix as usize)];
                                    if v > best_v {
                                        best_v = v;
                                        best = Some((iy as usize, ix as usize));
                                    }
                                }
                            }
                            if let Some((iy, ix)) = best {
                                dx[(c, iy, ix)] += g;
                            }
                        }
                        PoolKind::Avg => {
                            for fy in 0..self.win.f {
                                for fx in 0..self.win.f {
                                    let iy = (oy * self.win.s + fy) as isize - self.win.p as isize;
                                    let ix = (ox * self.win.s + fx) as isize - self.win.p as isize;
                                    if iy < 0
                                        || ix < 0
                                        || iy as usize >= shape.h
                                        || ix as usize >= shape.w
                                    {
                                        continue;
                                    }
                                    dx[(c, iy as usize, ix as usize)] += g * inv_area;
                                }
                            }
                        }
                    }
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::reference::{bits, value};

    /// The per-window reduction [`Pool::forward`] replaced: one output's
    /// taps in `(fy, fx)` order, `0.0` when none is in bounds.
    fn reference_forward(pool: &Pool, input: &Tensor3) -> Tensor3 {
        let (shape, win) = (input.shape(), pool.window());
        let out_shape = pool.out_shape(shape).unwrap();
        Tensor3::from_fn(out_shape, |c, oy, ox| {
            let (mut m, mut sum, mut any) = (f32::NEG_INFINITY, 0.0f32, false);
            for fy in 0..win.f {
                for fx in 0..win.f {
                    let iy = (oy * win.s + fy) as isize - win.p as isize;
                    let ix = (ox * win.s + fx) as isize - win.p as isize;
                    if iy < 0 || ix < 0 || iy as usize >= shape.h || ix as usize >= shape.w {
                        continue;
                    }
                    let v = input[(c, iy as usize, ix as usize)];
                    m = m.max(v);
                    sum += v;
                    any = true;
                }
            }
            match pool.kind() {
                PoolKind::Max if any => m,
                PoolKind::Max => 0.0,
                PoolKind::Avg => sum / (win.f * win.f) as f32,
            }
        })
    }

    #[test]
    fn forward_equals_per_window_reference_bit_for_bit() {
        use cnnre_tensor::rng::SeedableRng;
        let mut rng = cnnre_tensor::rng::SmallRng::seed_from_u64(26);
        // (c, h, w, f, s, p): LeNet and AlexNet pools, h != w, partial
        // (ceil) windows, padding, overlapping and gapped windows.
        for (c, h, w, f, s, p) in [
            (6, 28, 28, 2, 2, 0),
            (2, 55, 55, 3, 2, 0),
            (2, 7, 10, 3, 2, 1),
            (1, 9, 5, 2, 2, 1),
            (3, 6, 8, 3, 1, 1),
            (1, 11, 7, 2, 3, 0),
            (1, 4, 4, 4, 1, 0),
        ] {
            for kind in [PoolKind::Max, PoolKind::Avg] {
                let pool = Pool::new(kind, f, s, p);
                let x = Tensor3::from_fn(Shape3::new(c, h, w), |_, _, _| value(&mut rng));
                assert_eq!(
                    bits(pool.forward(&x).as_slice()),
                    bits(reference_forward(&pool, &x).as_slice()),
                    "{kind:?} {c}x{h}x{w} f{f} s{s} p{p}"
                );
            }
        }
    }

    #[test]
    fn max_pool_known_values() {
        let x = Tensor3::from_fn(Shape3::new(1, 4, 4), |_, h, w| (h * 4 + w) as f32);
        let pool = Pool::new(PoolKind::Max, 2, 2, 0);
        let y = pool.forward(&x);
        assert_eq!(y.shape(), Shape3::new(1, 2, 2));
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_divides_by_full_window() {
        let x = Tensor3::full(Shape3::new(1, 2, 2), 4.0);
        let pool = Pool::new(PoolKind::Avg, 2, 2, 0);
        assert_eq!(pool.forward(&x).as_slice(), &[4.0]);
        // Ceil geometry with partial windows: 3 wide, window 2 stride 2 -> 2 outputs,
        // the second covering only one column; divide by 4 regardless.
        let x = Tensor3::full(Shape3::new(1, 3, 3), 4.0);
        let y = pool.forward(&x);
        assert_eq!(y.shape(), Shape3::new(1, 2, 2));
        assert_eq!(y.as_slice(), &[4.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn alexnet_pool_output_widths() {
        let pool = Pool::new(PoolKind::Max, 3, 2, 0);
        assert_eq!(
            pool.out_shape(Shape3::new(96, 55, 55)),
            Some(Shape3::new(96, 27, 27))
        );
        assert_eq!(
            pool.out_shape(Shape3::new(256, 27, 27)),
            Some(Shape3::new(256, 13, 13))
        );
    }

    #[test]
    fn max_backward_routes_to_argmax() {
        let x = Tensor3::from_vec(Shape3::new(1, 2, 2), vec![1.0, 5.0, 2.0, 3.0]).unwrap();
        let pool = Pool::new(PoolKind::Max, 2, 2, 0);
        let dy = Tensor3::full(Shape3::new(1, 1, 1), 2.0);
        let dx = pool.backward(&x, &dy);
        assert_eq!(dx.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_backward_distributes() {
        let x = Tensor3::zeros(Shape3::new(1, 2, 2));
        let pool = Pool::new(PoolKind::Avg, 2, 2, 0);
        let dy = Tensor3::full(Shape3::new(1, 1, 1), 4.0);
        let dx = pool.backward(&x, &dy);
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn pool_grad_matches_finite_difference_for_avg() {
        use cnnre_tensor::rng::{Rng, SeedableRng};
        let mut rng = cnnre_tensor::rng::SmallRng::seed_from_u64(2);
        let x = Tensor3::from_fn(Shape3::new(2, 5, 5), |_, _, _| rng.gen_range(-1.0..1.0));
        let pool = Pool::new(PoolKind::Avg, 3, 2, 1);
        let y = pool.forward(&x);
        let dy = Tensor3::full(y.shape(), 1.0);
        let dx = pool.backward(&x, &dy);
        let eps = 1e-3;
        for &(c, h, w) in &[(0usize, 0usize, 0usize), (1, 2, 2), (0, 4, 4)] {
            let mut xp = x.clone();
            xp[(c, h, w)] += eps;
            let mut xm = x.clone();
            xm[(c, h, w)] -= eps;
            let num = (cnnre_tensor::ops::sum(pool.forward(&xp).as_slice())
                - cnnre_tensor::ops::sum(pool.forward(&xm).as_slice()))
                / (2.0 * eps);
            assert!((num - dx[(c, h, w)]).abs() < 1e-2);
        }
    }
}
