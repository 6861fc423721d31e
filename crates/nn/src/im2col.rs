//! im2col / col2im lowering for convolution.
//!
//! Convolution of a dense input is computed as one GEMM per feature map:
//! `Y[D_OFM × (OH·OW)] = W[D_OFM × (C·F·F)] · cols[(C·F·F) × (OH·OW)]`,
//! where `cols` is produced by [`im2col`]; a sparse input is scattered
//! pixel by pixel over the outputs each one reaches (`reached`) instead.
//! The transpose path ([`col2im`]) scatters column gradients back to
//! the input feature map for backpropagation.

use core::ops::Range;

use cnnre_tensor::{Shape3, Tensor3};

/// Geometry of one 2-D sliding-window operation (shared by conv and pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// Filter/window width and height (`F`).
    pub f: usize,
    /// Stride (`S`).
    pub s: usize,
    /// Zero padding per side (`P`).
    pub p: usize,
}

impl Window {
    /// Creates a window description.
    #[must_use]
    pub const fn new(f: usize, s: usize, p: usize) -> Self {
        Self { f, s, p }
    }

    /// Convolution output width for input width `w` (floor convention).
    #[must_use]
    pub fn conv_out(&self, w: usize) -> Option<usize> {
        crate::geometry::conv_out(w, self.f, self.s, self.p)
    }

    /// Pooling output width for input width `w` (ceil convention).
    #[must_use]
    pub fn pool_out(&self, w: usize) -> Option<usize> {
        crate::geometry::pool_out(w, self.f, self.s, self.p)
    }
}

/// The outputs `o` in `0..n_out` whose tap at offset `k` of the window
/// lands inside the input, `0 <= o·s + k - p < n_in`: one contiguous range,
/// empty when every such tap falls in the padding.
pub(crate) fn in_bounds(n_out: usize, k: usize, win: Window, n_in: usize) -> Range<usize> {
    let lo = win.p.saturating_sub(k).div_ceil(win.s);
    let hi = match (n_in + win.p).checked_sub(k + 1) {
        Some(last) => (last / win.s + 1).min(n_out),
        None => 0,
    };
    lo..hi.max(lo)
}

/// The outputs `o` in `0..n_out` whose window covers input position `i`,
/// `o·s <= i + p < o·s + f`: one contiguous range, the inverse of
/// [`in_bounds`]. The tap of output `o` on `i` is `i + p - o·s`.
pub(crate) fn reached(n_out: usize, i: usize, win: Window) -> Range<usize> {
    let lo = (i + win.p + 1).saturating_sub(win.f).div_ceil(win.s);
    let hi = ((i + win.p) / win.s + 1).min(n_out);
    lo..hi.max(lo)
}

/// Expands `input` into a `(C·F·F) × (OH·OW)` column matrix (row-major).
///
/// Out-of-bounds taps (from padding) contribute zeros. Each row `(c, fy,
/// fx)` computes its in-bounds output range once and then copies input
/// rows: a slice copy at stride 1, a strided gather otherwise.
///
/// # Panics
///
/// Panics when the window does not fit the input.
#[must_use]
pub fn im2col(input: &Tensor3, win: Window, oh: usize, ow: usize) -> Vec<f32> {
    let shape = input.shape();
    let rows = shape.c * win.f * win.f;
    let cols_n = oh * ow;
    let mut cols = vec![0.0f32; rows * cols_n];
    let x = input.as_slice();
    let plane_len = shape.h * shape.w;
    let mut row = 0usize;
    for c in 0..shape.c {
        let plane = &x[c * plane_len..(c + 1) * plane_len];
        for fy in 0..win.f {
            let oys = in_bounds(oh, fy, win, shape.h);
            for fx in 0..win.f {
                let dst = &mut cols[row * cols_n..(row + 1) * cols_n];
                row += 1;
                let oxs = in_bounds(ow, fx, win, shape.w);
                if oxs.is_empty() {
                    continue;
                }
                let ix0 = oxs.start * win.s + fx - win.p;
                let n = oxs.len();
                for oy in oys.clone() {
                    let iy = oy * win.s + fy - win.p;
                    let src = &plane[iy * shape.w + ix0..(iy + 1) * shape.w];
                    let out = &mut dst[oy * ow + oxs.start..oy * ow + oxs.end];
                    if win.s == 1 {
                        out.copy_from_slice(&src[..n]);
                    } else {
                        for (o, &v) in out.iter_mut().zip(src.iter().step_by(win.s)) {
                            *o = v;
                        }
                    }
                }
            }
        }
    }
    cols
}

/// Scatters a `(C·F·F) × (OH·OW)` column-gradient matrix back onto an input
/// gradient tensor of shape `shape` (accumulating overlaps) — the adjoint of
/// [`im2col`], over the same in-bounds ranges.
///
/// # Panics
///
/// Panics when `cols` has the wrong length for the given geometry.
#[must_use]
pub fn col2im(cols: &[f32], shape: Shape3, win: Window, oh: usize, ow: usize) -> Tensor3 {
    let rows = shape.c * win.f * win.f;
    let cols_n = oh * ow;
    assert_eq!(cols.len(), rows * cols_n, "col2im input length");
    let mut out = Tensor3::zeros(shape);
    let dx = out.as_mut_slice();
    let plane_len = shape.h * shape.w;
    let mut row = 0usize;
    for c in 0..shape.c {
        let plane = &mut dx[c * plane_len..(c + 1) * plane_len];
        for fy in 0..win.f {
            let oys = in_bounds(oh, fy, win, shape.h);
            for fx in 0..win.f {
                let src = &cols[row * cols_n..(row + 1) * cols_n];
                row += 1;
                let oxs = in_bounds(ow, fx, win, shape.w);
                if oxs.is_empty() {
                    continue;
                }
                let ix0 = oxs.start * win.s + fx - win.p;
                for oy in oys.clone() {
                    let iy = oy * win.s + fy - win.p;
                    let grads = &src[oy * ow + oxs.start..oy * ow + oxs.end];
                    let dst = &mut plane[iy * shape.w + ix0..(iy + 1) * shape.w];
                    for (d, &g) in dst.iter_mut().step_by(win.s).zip(grads) {
                        *d += g;
                    }
                }
            }
        }
    }
    out
}

/// The per-element lowering that the row gather replaced, kept as the
/// reference [`im2col`], [`col2im`] and `Conv2d` must equal bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Shape3, Tensor3, Window};
    use cnnre_tensor::rng::{Rng, SmallRng};

    /// Geometries `(c, h, w, f, s, p)` of the bit-exactness sweep: LeNet
    /// conv1, `h != w`, strides above 1, padding of at least `f/2` (and
    /// above `f`, so whole rows fall in the padding), and `f` equal to
    /// the input width.
    pub(crate) const SWEEP: [(usize, usize, usize, usize, usize, usize); 10] = [
        (1, 32, 32, 5, 1, 0),
        (2, 7, 11, 3, 1, 1),
        (3, 9, 6, 3, 2, 1),
        (1, 8, 5, 5, 1, 2),
        (2, 6, 4, 4, 2, 2),
        (1, 5, 5, 5, 1, 0),
        (3, 12, 10, 4, 3, 3),
        (2, 3, 3, 3, 2, 2),
        (1, 4, 7, 2, 1, 3),
        (1, 11, 11, 11, 4, 0),
    ];

    /// A seeded value in `-1..1`, with exact `0.0` and `-0.0` mixed in.
    pub(crate) fn value(rng: &mut SmallRng) -> f32 {
        match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0..1.0),
        }
    }

    pub(crate) fn im2col(input: &Tensor3, win: Window, oh: usize, ow: usize) -> Vec<f32> {
        let shape = input.shape();
        let cols_n = oh * ow;
        let mut cols = vec![0.0f32; shape.c * win.f * win.f * cols_n];
        let mut row = 0usize;
        for c in 0..shape.c {
            for fy in 0..win.f {
                for fx in 0..win.f {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * win.s + fy) as isize - win.p as isize;
                            let ix = (ox * win.s + fx) as isize - win.p as isize;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < shape.h
                                && (ix as usize) < shape.w
                            {
                                cols[row * cols_n + oy * ow + ox] =
                                    input[(c, iy as usize, ix as usize)];
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
        cols
    }

    pub(crate) fn col2im(
        cols: &[f32],
        shape: Shape3,
        win: Window,
        oh: usize,
        ow: usize,
    ) -> Tensor3 {
        let cols_n = oh * ow;
        let mut out = Tensor3::zeros(shape);
        let mut row = 0usize;
        for c in 0..shape.c {
            for fy in 0..win.f {
                for fx in 0..win.f {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * win.s + fy) as isize - win.p as isize;
                            let ix = (ox * win.s + fx) as isize - win.p as isize;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < shape.h
                                && (ix as usize) < shape.w
                            {
                                out[(c, iy as usize, ix as usize)] +=
                                    cols[row * cols_n + oy * ow + ox];
                            }
                        }
                    }
                    row += 1;
                }
            }
        }
        out
    }

    /// The bit patterns of `v`, so `0.0` and `-0.0` compare unequal.
    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_gather_equals_per_element_reference_bit_for_bit() {
        use cnnre_tensor::rng::SeedableRng;
        let mut rng = cnnre_tensor::rng::SmallRng::seed_from_u64(26);
        for (c, h, w, f, s, p) in reference::SWEEP {
            let win = Window::new(f, s, p);
            let (oh, ow) = (win.conv_out(h).unwrap(), win.conv_out(w).unwrap());
            let shape = Shape3::new(c, h, w);
            for _ in 0..4 {
                let x = Tensor3::from_fn(shape, |_, _, _| reference::value(&mut rng));
                assert_eq!(
                    reference::bits(&im2col(&x, win, oh, ow)),
                    reference::bits(&reference::im2col(&x, win, oh, ow)),
                    "im2col {c}x{h}x{w} f{f} s{s} p{p}"
                );
                let cols: Vec<f32> = (0..c * f * f * oh * ow)
                    .map(|_| reference::value(&mut rng))
                    .collect();
                assert_eq!(
                    reference::bits(col2im(&cols, shape, win, oh, ow).as_slice()),
                    reference::bits(reference::col2im(&cols, shape, win, oh, ow).as_slice()),
                    "col2im {c}x{h}x{w} f{f} s{s} p{p}"
                );
            }
        }
    }

    #[test]
    fn identity_window_is_flatten() {
        let input = Tensor3::from_fn(Shape3::new(2, 2, 2), |c, h, w| (c * 4 + h * 2 + w) as f32);
        let cols = im2col(&input, Window::new(1, 1, 0), 2, 2);
        assert_eq!(cols, input.as_slice());
    }

    #[test]
    fn known_3x3_patch() {
        // 1 channel, 3x3 input, 2x2 window stride 1 -> 4 rows x 4 cols.
        let input = Tensor3::from_fn(Shape3::new(1, 3, 3), |_, h, w| (h * 3 + w) as f32);
        let cols = im2col(&input, Window::new(2, 1, 0), 2, 2);
        // Row 0 = tap (0,0) over output positions (0,0),(0,1),(1,0),(1,1).
        assert_eq!(&cols[0..4], &[0.0, 1.0, 3.0, 4.0]);
        // Row 3 = tap (1,1).
        assert_eq!(&cols[12..16], &[4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn padding_yields_zeros() {
        let input = Tensor3::full(Shape3::new(1, 2, 2), 1.0);
        // 3x3 window, stride 1, pad 1 -> output 2x2; corner taps hit padding.
        let cols = im2col(&input, Window::new(3, 1, 1), 2, 2);
        // Tap (0,0) at output (0,0) reads input (-1,-1) = 0.
        assert_eq!(cols[0], 0.0);
        // Tap (1,1) at output (0,0) reads input (0,0) = 1.
        let row_center = 3 + 1;
        assert_eq!(cols[row_center * 4], 1.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        use cnnre_tensor::rng::{Rng, SeedableRng};
        let mut rng = cnnre_tensor::rng::SmallRng::seed_from_u64(11);
        for &(c, hw, f, s, p) in &[
            (2usize, 5usize, 3usize, 1usize, 0usize),
            (1, 6, 3, 2, 1),
            (3, 4, 2, 2, 0),
        ] {
            let shape = Shape3::new(c, hw, hw);
            let win = Window::new(f, s, p);
            let ow = win.conv_out(hw).unwrap();
            let x = Tensor3::from_fn(shape, |_, _, _| rng.gen_range(-1.0..1.0));
            let cols_len = c * f * f * ow * ow;
            let y: Vec<f32> = (0..cols_len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let ax = im2col(&x, win, ow, ow);
            let aty = col2im(&y, shape, win, ow, ow);
            let lhs: f32 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
            let rhs: f32 = x
                .as_slice()
                .iter()
                .zip(aty.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn strided_sampling() {
        let input = Tensor3::from_fn(Shape3::new(1, 4, 4), |_, h, w| (h * 4 + w) as f32);
        let win = Window::new(2, 2, 0);
        let ow = win.conv_out(4).unwrap();
        assert_eq!(ow, 2);
        let cols = im2col(&input, win, 2, 2);
        // Tap (0,0) samples positions (0,0),(0,2),(2,0),(2,2) = 0,2,8,10.
        assert_eq!(&cols[0..4], &[0.0, 2.0, 8.0, 10.0]);
    }
}
