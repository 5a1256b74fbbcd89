//! The f32 math behind each [`super::bytecode::KernelOp`].
//!
//! These are straightforward reference implementations: the simulated GPU
//! is not trying to be fast, it is trying to be *bit-stable* so the §7.2
//! validation can compare replayed outputs against the CPU reference
//! executor exactly.

use super::bytecode::{ActKind, PoolKind};

/// Applies an activation to a single value.
pub fn apply_act(act: ActKind, v: f32) -> f32 {
    match act {
        ActKind::None => v,
        ActKind::Relu => v.max(0.0),
        // Not `clamp`: max-then-min squashes NaN to 0.0, and replayed
        // buffers may carry arbitrary user bytes (including NaN patterns).
        #[allow(clippy::manual_clamp)]
        ActKind::Relu6 => v.max(0.0).min(6.0),
        ActKind::LeakyRelu => {
            if v > 0.0 {
                v
            } else {
                0.1 * v
            }
        }
        ActKind::Sigmoid => 1.0 / (1.0 + (-v).exp()),
        ActKind::Tanh => v.tanh(),
    }
}

/// Elementwise `act(a + b)` into `out` (cleared first). The activation
/// dispatch is hoisted out of the loop so the common None/Relu cases
/// vectorize; per-element values are identical to calling [`apply_act`].
pub fn eltwise_add_act(act: ActKind, a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    out.clear();
    match act {
        ActKind::None => out.extend(a.iter().zip(b).map(|(&x, &y)| x + y)),
        ActKind::Relu => out.extend(a.iter().zip(b).map(|(&x, &y)| (x + y).max(0.0))),
        _ => out.extend(a.iter().zip(b).map(|(&x, &y)| apply_act(act, x + y))),
    }
}

/// Elementwise `act(x)` into `out` (cleared first), dispatch hoisted.
pub fn map_act(act: ActKind, x: &[f32], out: &mut Vec<f32>) {
    out.clear();
    match act {
        ActKind::None => out.extend_from_slice(x),
        ActKind::Relu => out.extend(x.iter().map(|&v| v.max(0.0))),
        _ => out.extend(x.iter().map(|&v| apply_act(act, v))),
    }
}

/// Output spatial size of a conv/pool axis (0 when the kernel does not fit
/// or the dimensions overflow `u32`).
pub fn out_dim(input: u32, kernel: u32, stride: u32, pad: u32) -> u32 {
    debug_assert!(stride > 0, "stride must be positive");
    // `input + 2 * pad` can overflow u32 for hostile recorded dimensions;
    // widen to u64 and treat any result outside u32 as "does not fit".
    let padded = u64::from(input) + 2 * u64::from(pad);
    if padded < u64::from(kernel) {
        return 0;
    }
    u32::try_from((padded - u64::from(kernel)) / u64::from(stride) + 1).unwrap_or(0)
}

/// Dense GEMM: `out[m×n] = a[m×k] · b[k×n]`.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "lhs size");
    assert_eq!(b.len(), k * n, "rhs size");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Fully connected: `act(x[m×k] · w[k×n] + bias[n])`.
pub fn fully_connected(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    m: usize,
    k: usize,
    n: usize,
    act: ActKind,
) -> Vec<f32> {
    let mut out = matmul(x, w, m, k, n);
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "bias size");
        for row in out.chunks_mut(n) {
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += bv;
            }
        }
    }
    for o in &mut out {
        *o = apply_act(act, *o);
    }
    out
}

/// Grouped 2-D convolution over NCHW (batch 1) with fused bias/activation.
///
/// Weights are laid out `cout × (cin/groups) × kh × kw`.
///
/// Dispatches between the original reference loop nest and a bit-exact
/// restructured fast loop (see [`conv2d_fast`]); both accumulate every
/// output element in the identical `(ic, ky, kx)` order, so replayed
/// outputs stay bit-stable either way (`conv_fast_matches_reference`
/// proves it).
///
/// # Panics
///
/// Panics if the channel counts are not divisible by `groups` or buffer
/// sizes disagree with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    act: ActKind,
) -> Vec<f32> {
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    // The row-vectorized loop nest only pays off when output rows are wide
    // enough to amortize its per-row setup; narrow outputs keep the
    // register-accumulating reference nest. Both are bit-identical.
    if crate::fastpath::enabled() && stride == 1 && wo >= 16 {
        conv2d_fast(
            x, w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
        )
    } else {
        conv2d_reference(
            x, w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
        )
    }
}

/// The original per-output-pixel loop nest (the pre-fast-path baseline).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_reference(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    act: ActKind,
) -> Vec<f32> {
    assert!(
        groups > 0 && cin % groups == 0 && cout % groups == 0,
        "bad groups"
    );
    let cing = cin / groups;
    let coutg = cout / groups;
    assert_eq!(x.len(), cin * h * wd, "input size");
    assert_eq!(w.len(), cout * cing * kh * kw, "weight size");
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    let mut out = vec![0.0f32; cout * ho * wo];
    for g in 0..groups {
        for ocg in 0..coutg {
            let oc = g * coutg + ocg;
            let b = bias.map_or(0.0, |b| b[oc]);
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = b;
                    for icg in 0..cing {
                        let ic = g * cing + icg;
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= wd as isize {
                                    continue;
                                }
                                let xv = x[ic * h * wd + iy as usize * wd + ix as usize];
                                let wv = w[((oc * cing + icg) * kh + ky) * kw + kx];
                                acc += xv * wv;
                            }
                        }
                    }
                    out[oc * ho * wo + oy * wo + ox] = apply_act(act, acc);
                }
            }
        }
    }
    out
}

/// Restructured direct convolution: output-x is the innermost loop, so
/// every `out[oc, oy, ox]` is an *independent* accumulator and the inner
/// loop is branch-free (the valid `ox` range is hoisted out).
///
/// Bit-exactness: each output element still accumulates its products in
/// exactly the reference order — bias first, then `(icg, ky, kx)` in the
/// same nesting — because those loops stay outside `ox` and out-of-bounds
/// taps contribute nothing in both versions. Only the *interleaving
/// across different outputs* changes, which f32 cannot observe.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_fast(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    groups: usize,
    act: ActKind,
) -> Vec<f32> {
    assert!(
        groups > 0 && cin % groups == 0 && cout % groups == 0,
        "bad groups"
    );
    let cing = cin / groups;
    let coutg = cout / groups;
    assert_eq!(x.len(), cin * h * wd, "input size");
    assert_eq!(w.len(), cout * cing * kh * kw, "weight size");
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    let mut out = vec![0.0f32; cout * ho * wo];
    for g in 0..groups {
        for ocg in 0..coutg {
            let oc = g * coutg + ocg;
            let b = bias.map_or(0.0, |b| b[oc]);
            out[oc * ho * wo..(oc + 1) * ho * wo].fill(b);
            for icg in 0..cing {
                let ic = g * cing + icg;
                let xplane = &x[ic * h * wd..(ic + 1) * h * wd];
                for ky in 0..kh {
                    for kx in 0..kw {
                        let wv = w[((oc * cing + icg) * kh + ky) * kw + kx];
                        // Valid output ranges: iy = oy*stride + ky - pad in
                        // [0, h) and likewise for ix — hoisted from the
                        // reference version's per-tap bounds checks.
                        let oy_lo = pad.saturating_sub(ky).div_ceil(stride);
                        let oy_hi = ho.min((h + pad).saturating_sub(ky).div_ceil(stride));
                        let ox_lo = pad.saturating_sub(kx).div_ceil(stride);
                        let ox_hi = wo.min((wd + pad).saturating_sub(kx).div_ceil(stride));
                        if ox_lo >= ox_hi {
                            continue;
                        }
                        for oy in oy_lo..oy_hi {
                            let iy = oy * stride + ky - pad;
                            let xrow = &xplane[iy * wd..(iy + 1) * wd];
                            let orow = &mut out[oc * ho * wo + oy * wo..][..wo];
                            if stride == 1 {
                                let xoff = kx - pad.min(kx); // == ox_lo + kx - pad
                                let n = ox_hi - ox_lo;
                                // Branch-free saxpy; each out lane is its
                                // own accumulator, so this vectorizes
                                // without reassociating any single output.
                                for (o, &xv) in
                                    orow[ox_lo..ox_hi].iter_mut().zip(&xrow[xoff..xoff + n])
                                {
                                    *o += xv * wv;
                                }
                            } else {
                                for ox in ox_lo..ox_hi {
                                    orow[ox] += xrow[ox * stride + kx - pad] * wv;
                                }
                            }
                        }
                    }
                }
            }
            for v in &mut out[oc * ho * wo..(oc + 1) * ho * wo] {
                *v = apply_act(act, *v);
            }
        }
    }
    out
}

/// 2-D pooling over NCHW, no padding.
///
/// Works row by row: each output row folds the `win` input rows under it,
/// one window slice per output. Every output still folds its window in
/// (ky, kx) order from the same start value, so results are bit-identical
/// to a per-window loop nest, NaN and signed-zero handling included.
pub fn pool2d(
    x: &[f32],
    c: usize,
    h: usize,
    wd: usize,
    win: usize,
    stride: usize,
    kind: PoolKind,
) -> Vec<f32> {
    assert_eq!(x.len(), c * h * wd, "input size");
    match kind {
        PoolKind::Max => pool_rows(x, c, h, wd, win, stride, f32::NEG_INFINITY, f32::max),
        PoolKind::Avg => {
            let mut out = pool_rows(x, c, h, wd, win, stride, 0.0, |s, v| s + v);
            let n = (win * win) as f32;
            for v in &mut out {
                *v /= n;
            }
            out
        }
    }
}

/// Folds each `win`×`win` window with `fold`, starting from `init`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pool_rows(
    x: &[f32],
    c: usize,
    h: usize,
    wd: usize,
    win: usize,
    stride: usize,
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
) -> Vec<f32> {
    let ho = out_dim(h as u32, win as u32, stride as u32, 0) as usize;
    let wo = out_dim(wd as u32, win as u32, stride as u32, 0) as usize;
    let mut out = vec![init; c * ho * wo];
    if out.is_empty() || x.is_empty() {
        return out;
    }
    for (plane, oplane) in x.chunks_exact(h * wd).zip(out.chunks_exact_mut(ho * wo)) {
        for (oy, orow) in oplane.chunks_exact_mut(wo).enumerate() {
            for ky in 0..win {
                let row = &plane[(oy * stride + ky) * wd..][..wd];
                if win == stride {
                    // Windows tile the row: contiguous, non-overlapping.
                    // The 2-wide arm is a fixed-length fold the compiler
                    // vectorizes (MNIST's 2×2 pool).
                    for (o, w) in orow.iter_mut().zip(row.chunks_exact(win)) {
                        *o = match *w {
                            [a, b] => fold(fold(*o, a), b),
                            _ => w.iter().fold(*o, |a, &v| fold(a, v)),
                        };
                    }
                } else {
                    for (o, w) in orow.iter_mut().zip(row.windows(win).step_by(stride)) {
                        *o = w.iter().fold(*o, |a, &v| fold(a, v));
                    }
                }
            }
        }
    }
    out
}

/// Row-wise numerically-stable softmax.
pub fn softmax(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(x.len(), rows * cols, "input size");
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for (i, &v) in row.iter().enumerate() {
            let e = (v - mx).exp();
            out[r * cols + i] = e;
            denom += e;
        }
        for v in &mut out[r * cols..(r + 1) * cols] {
            *v /= denom;
        }
    }
    out
}

/// Nearest-neighbour 2× upsample over NCHW.
pub fn upsample2x(x: &[f32], c: usize, h: usize, wd: usize) -> Vec<f32> {
    assert_eq!(x.len(), c * h * wd, "input size");
    let mut out = vec![0.0f32; c * h * 2 * wd * 2];
    for ch in 0..c {
        for y in 0..h * 2 {
            for xx in 0..wd * 2 {
                out[ch * h * 2 * wd * 2 + y * wd * 2 + xx] = x[ch * h * wd + (y / 2) * wd + xx / 2];
            }
        }
    }
    out
}

/// Inference batch-norm folded into per-channel scale/shift.
pub fn batchnorm_inf(x: &[f32], scale: &[f32], shift: &[f32], c: usize, hw: usize) -> Vec<f32> {
    assert_eq!(x.len(), c * hw, "input size");
    assert_eq!(scale.len(), c, "scale size");
    assert_eq!(shift.len(), c, "shift size");
    let mut out = vec![0.0f32; c * hw];
    for ch in 0..c {
        for i in 0..hw {
            out[ch * hw + i] = x[ch * hw + i] * scale[ch] + shift[ch];
        }
    }
    out
}

/// ACL-style im2col producing a `(ho*wo) × (cin*kh*kw)` patch matrix.
///
/// Pure data movement (no float arithmetic), so the fast variant below is
/// trivially value-identical; the reference loop is kept as the measured
/// pre-fast-path baseline.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    x: &[f32],
    cin: usize,
    h: usize,
    wd: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    if crate::fastpath::enabled() {
        im2col_fast(x, cin, h, wd, kh, kw, stride, pad)
    } else {
        im2col_reference(x, cin, h, wd, kh, kw, stride, pad)
    }
}

/// Slice-copy im2col: each contiguous run of valid taps is one
/// `copy_from_slice`; the zero padding is already in place from the
/// allocation. Value-identical to [`im2col_reference`].
#[allow(clippy::too_many_arguments)]
pub fn im2col_fast(
    x: &[f32],
    cin: usize,
    h: usize,
    wd: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    assert_eq!(x.len(), cin * h * wd, "input size");
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    let cols = cin * kh * kw;
    let mut out = vec![0.0f32; ho * wo * cols];
    for oy in 0..ho {
        for ox in 0..wo {
            let row = oy * wo + ox;
            let ix_base = ox * stride;
            for ic in 0..cin {
                for ky in 0..kh {
                    let iy = oy * stride + ky;
                    if iy < pad || iy - pad >= h {
                        continue;
                    }
                    let kx_lo = pad.saturating_sub(ix_base).min(kw);
                    let kx_hi = (wd + pad).saturating_sub(ix_base).min(kw);
                    if kx_lo >= kx_hi {
                        continue;
                    }
                    let n = kx_hi - kx_lo;
                    let src = &x[ic * h * wd + (iy - pad) * wd + ix_base + kx_lo - pad..][..n];
                    let dst = &mut out[row * cols + (ic * kh + ky) * kw + kx_lo..][..n];
                    dst.copy_from_slice(src);
                }
            }
        }
    }
    out
}

/// The original per-tap im2col loop (the pre-fast-path baseline).
#[allow(clippy::too_many_arguments)]
pub fn im2col_reference(
    x: &[f32],
    cin: usize,
    h: usize,
    wd: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    assert_eq!(x.len(), cin * h * wd, "input size");
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    let cols = cin * kh * kw;
    let mut out = vec![0.0f32; ho * wo * cols];
    for oy in 0..ho {
        for ox in 0..wo {
            let row = oy * wo + ox;
            for ic in 0..cin {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let v = if iy < 0 || iy >= h as isize || ix < 0 || ix >= wd as isize {
                            0.0
                        } else {
                            x[ic * h * wd + iy as usize * wd + ix as usize]
                        };
                        out[row * cols + (ic * kh + ky) * kw + kx] = v;
                    }
                }
            }
        }
    }
    out
}

/// Softmax + cross-entropy gradient: `(probs - onehot(labels)) / rows`.
pub fn softmax_xent_grad(probs: &[f32], labels: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(probs.len(), rows * cols, "probs size");
    assert_eq!(labels.len(), rows, "labels size");
    let mut dx = probs.to_vec();
    let inv = 1.0 / rows as f32;
    for r in 0..rows {
        let cls = labels[r] as usize;
        assert!(cls < cols, "label out of range");
        dx[r * cols + cls] -= 1.0;
        for v in &mut dx[r * cols..(r + 1) * cols] {
            *v *= inv;
        }
    }
    dx
}

/// `dw[k×n] = xᵀ · dy` for a forward `x[m×k] · w[k×n]`.
pub fn matmul_grad_w(x: &[f32], dy: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(x.len(), m * k, "x size");
    assert_eq!(dy.len(), m * n, "dy size");
    let mut dw = vec![0.0f32; k * n];
    for i in 0..m {
        for p in 0..k {
            let xv = x[i * k + p];
            if xv == 0.0 {
                continue;
            }
            for j in 0..n {
                dw[p * n + j] += xv * dy[i * n + j];
            }
        }
    }
    dw
}

/// `dx[m×k] = dy · wᵀ` for a forward `x[m×k] · w[k×n]`.
pub fn matmul_grad_x(dy: &[f32], w: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(dy.len(), m * n, "dy size");
    assert_eq!(w.len(), k * n, "w size");
    let mut dx = vec![0.0f32; m * k];
    for i in 0..m {
        for j in 0..n {
            let dv = dy[i * n + j];
            if dv == 0.0 {
                continue;
            }
            for p in 0..k {
                dx[i * k + p] += dv * w[p * n + j];
            }
        }
    }
    dx
}

/// ReLU backward.
pub fn relu_grad(x: &[f32], dy: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), dy.len(), "size mismatch");
    x.iter()
        .zip(dy)
        .map(|(&xv, &dv)| if xv > 0.0 { dv } else { 0.0 })
        .collect()
}

/// Column sums of `dy[m×n]` (bias gradient).
pub fn bias_grad(dy: &[f32], m: usize, n: usize) -> Vec<f32> {
    assert_eq!(dy.len(), m * n, "dy size");
    let mut db = vec![0.0f32; n];
    for row in dy.chunks(n) {
        for (d, &v) in db.iter_mut().zip(row) {
            *d += v;
        }
    }
    db
}

/// In-place SGD step: `w -= lr * g`.
pub fn sgd_step(w: &mut [f32], g: &[f32], lr: f32) {
    assert_eq!(w.len(), g.len(), "size mismatch");
    for (wv, &gv) in w.iter_mut().zip(g) {
        *wv -= lr * gv;
    }
}

/// Convolution weight gradient (groups = 1).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_grad_w(
    x: &[f32],
    dy: &[f32],
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    assert_eq!(x.len(), cin * h * wd, "x size");
    assert_eq!(dy.len(), cout * ho * wo, "dy size");
    let mut dw = vec![0.0f32; cout * cin * kh * kw];
    for oc in 0..cout {
        for ic in 0..cin {
            for ky in 0..kh {
                for kx in 0..kw {
                    let mut acc = 0.0f32;
                    for oy in 0..ho {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..wo {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= wd as isize {
                                continue;
                            }
                            acc += x[ic * h * wd + iy as usize * wd + ix as usize]
                                * dy[oc * ho * wo + oy * wo + ox];
                        }
                    }
                    dw[((oc * cin + ic) * kh + ky) * kw + kx] = acc;
                }
            }
        }
    }
    dw
}

/// Convolution input gradient (groups = 1).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_grad_x(
    dy: &[f32],
    w: &[f32],
    cin: usize,
    h: usize,
    wd: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
    let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
    assert_eq!(dy.len(), cout * ho * wo, "dy size");
    assert_eq!(w.len(), cout * cin * kh * kw, "w size");
    let mut dx = vec![0.0f32; cin * h * wd];
    for oc in 0..cout {
        for oy in 0..ho {
            for ox in 0..wo {
                let dv = dy[oc * ho * wo + oy * wo + ox];
                if dv == 0.0 {
                    continue;
                }
                for ic in 0..cin {
                    for ky in 0..kh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= wd as isize {
                                continue;
                            }
                            dx[ic * h * wd + iy as usize * wd + ix as usize] +=
                                dv * w[((oc * cin + ic) * kh + ky) * kw + kx];
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Pooling backward.
#[allow(clippy::too_many_arguments)]
pub fn pool_grad(
    x: &[f32],
    dy: &[f32],
    c: usize,
    h: usize,
    wd: usize,
    win: usize,
    stride: usize,
    kind: PoolKind,
) -> Vec<f32> {
    let ho = out_dim(h as u32, win as u32, stride as u32, 0) as usize;
    let wo = out_dim(wd as u32, win as u32, stride as u32, 0) as usize;
    assert_eq!(x.len(), c * h * wd, "x size");
    assert_eq!(dy.len(), c * ho * wo, "dy size");
    let mut dx = vec![0.0f32; c * h * wd];
    for ch in 0..c {
        for oy in 0..ho {
            for ox in 0..wo {
                let dv = dy[ch * ho * wo + oy * wo + ox];
                match kind {
                    PoolKind::Max => {
                        let mut best = f32::NEG_INFINITY;
                        let mut arg = (0, 0);
                        for ky in 0..win {
                            for kx in 0..win {
                                let v =
                                    x[ch * h * wd + (oy * stride + ky) * wd + (ox * stride + kx)];
                                if v > best {
                                    best = v;
                                    arg = (oy * stride + ky, ox * stride + kx);
                                }
                            }
                        }
                        dx[ch * h * wd + arg.0 * wd + arg.1] += dv;
                    }
                    PoolKind::Avg => {
                        let share = dv / (win * win) as f32;
                        for ky in 0..win {
                            for kx in 0..win {
                                dx[ch * h * wd + (oy * stride + ky) * wd + (ox * stride + kx)] +=
                                    share;
                            }
                        }
                    }
                }
            }
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-window loop nest `pool2d` replaced: the differential oracle.
    fn pool2d_reference(
        x: &[f32],
        c: usize,
        h: usize,
        wd: usize,
        win: usize,
        stride: usize,
        kind: PoolKind,
    ) -> Vec<f32> {
        assert_eq!(x.len(), c * h * wd, "input size");
        let ho = out_dim(h as u32, win as u32, stride as u32, 0) as usize;
        let wo = out_dim(wd as u32, win as u32, stride as u32, 0) as usize;
        let mut out = vec![0.0f32; c * ho * wo];
        // The kind dispatch is hoisted out of the window loop; each branch
        // performs exactly the reduction the combined loop used to select.
        for ch in 0..c {
            for oy in 0..ho {
                for ox in 0..wo {
                    out[ch * ho * wo + oy * wo + ox] = match kind {
                        PoolKind::Max => {
                            let mut best = f32::NEG_INFINITY;
                            for ky in 0..win {
                                for kx in 0..win {
                                    best = best.max(
                                        x[ch * h * wd
                                            + (oy * stride + ky) * wd
                                            + (ox * stride + kx)],
                                    );
                                }
                            }
                            best
                        }
                        PoolKind::Avg => {
                            let mut sum = 0.0f32;
                            for ky in 0..win {
                                for kx in 0..win {
                                    sum += x[ch * h * wd
                                        + (oy * stride + ky) * wd
                                        + (ox * stride + kx)];
                                }
                            }
                            sum / (win * win) as f32
                        }
                    };
                }
            }
        }
        out
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn activations() {
        assert_eq!(apply_act(ActKind::Relu, -2.0), 0.0);
        assert_eq!(apply_act(ActKind::Relu, 2.0), 2.0);
        assert_eq!(apply_act(ActKind::Relu6, 9.0), 6.0);
        assert!((apply_act(ActKind::LeakyRelu, -1.0) + 0.1).abs() < 1e-6);
        assert!((apply_act(ActKind::Sigmoid, 0.0) - 0.5).abs() < 1e-6);
        assert!((apply_act(ActKind::Tanh, 0.0)).abs() < 1e-6);
        assert_eq!(apply_act(ActKind::None, 3.5), 3.5);
    }

    #[test]
    fn matmul_small() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let out = matmul(&[1., 2., 3., 4.], &[5., 6., 7., 8.], 2, 2, 2);
        assert_eq!(out, vec![19., 22., 43., 50.]);
    }

    #[test]
    fn fc_bias_and_act() {
        let out = fully_connected(
            &[1., -1.],
            &[1., 0., 0., 1.],
            Some(&[0.5, -10.0]),
            1,
            2,
            2,
            ActKind::Relu,
        );
        assert_eq!(out, vec![1.5, 0.0]);
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x3x3 input, 1x1x1x1 kernel of weight 2 => doubled input.
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let out = conv2d(&x, &[2.0], None, 1, 3, 3, 1, 1, 1, 1, 0, 1, ActKind::None);
        assert_close(&out, &x.iter().map(|v| v * 2.0).collect::<Vec<_>>(), 1e-6);
    }

    #[test]
    fn conv_padding_and_stride() {
        // 1x2x2 input, 2x2 kernel of ones, stride 2, pad 1 -> 4 outputs,
        // each seeing exactly one input element.
        let out = conv2d(
            &[1., 2., 3., 4.],
            &[1., 1., 1., 1.],
            None,
            1,
            2,
            2,
            1,
            2,
            2,
            2,
            1,
            1,
            ActKind::None,
        );
        assert_eq!(out, vec![1., 2., 3., 4.]);
    }

    #[test]
    fn depthwise_conv_groups() {
        // 2 channels, each with its own 1x1 kernel: [x1*10, x2*100].
        let out = conv2d(
            &[1., 2., 3., 4., 5., 6., 7., 8.],
            &[10., 100.],
            None,
            2,
            2,
            2,
            2,
            1,
            1,
            1,
            0,
            2,
            ActKind::None,
        );
        assert_eq!(out, vec![10., 20., 30., 40., 500., 600., 700., 800.]);
    }

    #[test]
    fn conv_equals_im2col_matmul() {
        // The ACL lowering identity the Mali path relies on:
        // conv(x, w) == im2col(x) · reshape(w).
        let x: Vec<f32> = (0..3 * 5 * 5).map(|v| (v as f32 * 0.37).sin()).collect();
        let w: Vec<f32> = (0..4 * 3 * 3 * 3)
            .map(|v| (v as f32 * 0.11).cos())
            .collect();
        let direct = conv2d(&x, &w, None, 3, 5, 5, 4, 3, 3, 1, 1, 1, ActKind::None);

        let cols = im2col(&x, 3, 5, 5, 3, 3, 1, 1);
        // cols is (ho*wo) x (cin*kh*kw); w as (cout) x (cin*kh*kw).
        // direct[oc, pix] = dot(w[oc], cols[pix]) = (cols · wᵀ)[pix, oc].
        let howo = 25;
        let ckk = 27;
        let mut wt = vec![0.0f32; ckk * 4];
        for oc in 0..4 {
            for i in 0..ckk {
                wt[i * 4 + oc] = w[oc * ckk + i];
            }
        }
        let viagemm = matmul(&cols, &wt, howo, ckk, 4);
        // viagemm is pix-major; transpose to channel-major to compare.
        let mut t = vec![0.0f32; howo * 4];
        for pix in 0..howo {
            for oc in 0..4 {
                t[oc * howo + pix] = viagemm[pix * 4 + oc];
            }
        }
        assert_close(&t, &direct, 1e-4);
    }

    #[test]
    fn conv_fast_matches_reference_bit_exactly() {
        // The fast loop nest must be indistinguishable from the reference
        // down to the last ulp: same taps, same per-output accumulation
        // order. Sweep shapes that exercise padding, stride, groups,
        // non-square kernels, and kernels larger than the input.
        let cases = [
            // (cin, h, wd, cout, kh, kw, stride, pad, groups)
            (3, 5, 5, 4, 3, 3, 1, 1, 1),
            (1, 28, 28, 8, 5, 5, 1, 2, 1),
            (2, 9, 7, 6, 3, 5, 2, 2, 2),
            (4, 4, 4, 4, 1, 1, 1, 0, 4),
            (2, 3, 3, 2, 7, 7, 1, 3, 1),
            (3, 11, 13, 5, 4, 2, 3, 1, 1),
            (2, 2, 2, 2, 8, 8, 2, 4, 2),
        ];
        for (cin, h, wd, cout, kh, kw, stride, pad, groups) in cases {
            let x: Vec<f32> = (0..cin * h * wd)
                .map(|v| ((v as f32) * 0.731).sin() * 3.0)
                .collect();
            let w: Vec<f32> = (0..cout * (cin / groups) * kh * kw)
                .map(|v| ((v as f32) * 0.377).cos() * 0.5)
                .collect();
            let b: Vec<f32> = (0..cout).map(|v| v as f32 * 0.1 - 0.2).collect();
            for (bias, act) in [(None, ActKind::None), (Some(&b[..]), ActKind::Relu)] {
                let fast = conv2d_fast(
                    &x, &w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
                );
                let reference = conv2d_reference(
                    &x, &w, bias, cin, h, wd, cout, kh, kw, stride, pad, groups, act,
                );
                assert_eq!(
                    fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "shape cin={cin} h={h} wd={wd} cout={cout} kh={kh} kw={kw} \
                     stride={stride} pad={pad} groups={groups}"
                );
            }
        }
    }

    #[test]
    fn im2col_fast_matches_reference_bit_exactly() {
        for (cin, h, wd, kh, kw, stride, pad) in [
            (3, 5, 5, 3, 3, 1, 1),
            (1, 28, 28, 5, 5, 1, 2),
            (2, 7, 9, 4, 6, 2, 3),
            (2, 3, 3, 7, 7, 1, 3),
            (1, 4, 4, 2, 2, 3, 0),
        ] {
            let x: Vec<f32> = (0..cin * h * wd)
                .map(|v| ((v as f32) * 0.913).sin())
                .collect();
            let fast = im2col_fast(&x, cin, h, wd, kh, kw, stride, pad);
            let slow = im2col_reference(&x, cin, h, wd, kh, kw, stride, pad);
            assert_eq!(
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "shape cin={cin} h={h} wd={wd} kh={kh} kw={kw} stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn pooling_max_and_avg() {
        let x = vec![1., 2., 3., 4.];
        assert_eq!(pool2d(&x, 1, 2, 2, 2, 2, PoolKind::Max), vec![4.]);
        assert_eq!(pool2d(&x, 1, 2, 2, 2, 2, PoolKind::Avg), vec![2.5]);
    }

    /// Draws from a palette of IEEE edge cases mixed with random bit
    /// patterns (which include NaNs with arbitrary payloads).
    fn edgy_f32(bits: u64) -> f32 {
        const EDGES: [f32; 10] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 8.0,
            f32::MAX,
            1.0,
            -1.0,
        ];
        match bits % 4 {
            0 => f32::from_bits((bits >> 8) as u32),
            _ => EDGES[(bits >> 8) as usize % EDGES.len()],
        }
    }

    /// Bit equality, except that any NaN equals any NaN (Rust does not
    /// pin NaN payloads through `max`).
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    proptest::proptest! {
        #[test]
        fn pool2d_matches_window_loop_oracle(
            (c, (h, wd)) in (1usize..4, (1usize..13, 1usize..13)),
            ((win, stride), (seed, avg)) in ((1usize..5, 1usize..5), (proptest::prelude::any::<u64>(), proptest::prelude::any::<bool>())),
        ) {
            let (win, stride) = if seed % 3 == 0 { (win, win) } else { (win, stride) };
            if win <= h && win <= wd {
                let mut state = seed;
                let x: Vec<f32> = (0..c * h * wd)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        edgy_f32(state >> 16)
                    })
                    .collect();
                let kind = if avg { PoolKind::Avg } else { PoolKind::Max };
                let got = pool2d(&x, c, h, wd, win, stride, kind);
                let want = pool2d_reference(&x, c, h, wd, win, stride, kind);
                assert!(
                    same_bits(&got, &want),
                    "c={c} h={h} w={wd} win={win} stride={stride} {kind:?}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn pool2d_mnist_shape_matches_oracle_on_signed_zeros() {
        // MNIST's 2×2 max pool over 8×28×28, where every window mixes
        // +0.0 and -0.0 (ReLU outputs) with NaN and infinities.
        let x: Vec<f32> = (0..8 * 28 * 28)
            .map(|i| edgy_f32((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 3))
            .collect();
        for kind in [PoolKind::Max, PoolKind::Avg] {
            let got = pool2d(&x, 8, 28, 28, 2, 2, kind);
            assert!(same_bits(
                &got,
                &pool2d_reference(&x, 8, 28, 28, 2, 2, kind)
            ));
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let out = softmax(&[1., 2., 3., 1., 1., 1.], 2, 3);
        for r in 0..2 {
            let s: f32 = out[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(out[2] > out[1] && out[1] > out[0]);
        assert_close(&out[3..6], &[1.0 / 3.0; 3], 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let out = softmax(&[1000.0, 1001.0], 1, 2);
        assert!(out.iter().all(|v| v.is_finite()));
        assert!((out[0] + out[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn upsample_and_batchnorm() {
        let up = upsample2x(&[1., 2., 3., 4.], 1, 2, 2);
        assert_eq!(
            up,
            vec![1., 1., 2., 2., 1., 1., 2., 2., 3., 3., 4., 4., 3., 3., 4., 4.]
        );
        let bn = batchnorm_inf(&[1., 2., 3., 4.], &[2., 10.], &[0.5, -1.0], 2, 2);
        assert_eq!(bn, vec![2.5, 4.5, 29.0, 39.0]);
    }

    #[test]
    fn xent_grad_matches_definition() {
        let probs = vec![0.7, 0.2, 0.1, 0.1, 0.8, 0.1];
        let g = softmax_xent_grad(&probs, &[0.0, 1.0], 2, 3);
        assert_close(&g, &[-0.15, 0.1, 0.05, 0.05, -0.1, 0.05], 1e-6);
    }

    #[test]
    fn matmul_grads_match_finite_difference() {
        let m = 2;
        let k = 3;
        let n = 2;
        let x: Vec<f32> = (0..m * k).map(|v| 0.3 * v as f32 - 0.4).collect();
        let w: Vec<f32> = (0..k * n).map(|v| 0.2 * v as f32 + 0.1).collect();
        // Loss = sum(out). Then dy = ones, dW = xᵀ·1, dX = 1·wᵀ.
        let dy = vec![1.0f32; m * n];
        let dw = matmul_grad_w(&x, &dy, m, k, n);
        let dx = matmul_grad_x(&dy, &w, m, k, n);
        let loss = |x: &[f32], w: &[f32]| -> f32 { matmul(x, w, m, k, n).iter().sum() };
        let eps = 1e-2f32;
        for i in 0..k * n {
            let mut wp = w.clone();
            wp[i] += eps;
            let mut wm = w.clone();
            wm[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw[i]).abs() < 1e-2, "dw[{i}]: {num} vs {}", dw[i]);
        }
        for i in 0..m * k {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-2, "dx[{i}]: {num} vs {}", dx[i]);
        }
    }

    #[test]
    fn conv_grads_match_finite_difference() {
        let (cin, h, wd, cout, kh, kw, stride, pad) = (2, 4, 4, 2, 3, 3, 1, 1);
        let x: Vec<f32> = (0..cin * h * wd)
            .map(|v| ((v * 7 % 13) as f32 - 6.0) * 0.1)
            .collect();
        let w: Vec<f32> = (0..cout * cin * kh * kw)
            .map(|v| ((v * 5 % 11) as f32 - 5.0) * 0.05)
            .collect();
        let ho = out_dim(h as u32, kh as u32, stride as u32, pad as u32) as usize;
        let wo = out_dim(wd as u32, kw as u32, stride as u32, pad as u32) as usize;
        let dy = vec![1.0f32; cout * ho * wo];
        let dw = conv2d_grad_w(&x, &dy, cin, h, wd, cout, kh, kw, stride, pad);
        let dx = conv2d_grad_x(&dy, &w, cin, h, wd, cout, kh, kw, stride, pad);
        let loss = |x: &[f32], w: &[f32]| -> f32 {
            conv2d(
                x,
                w,
                None,
                cin,
                h,
                wd,
                cout,
                kh,
                kw,
                stride,
                pad,
                1,
                ActKind::None,
            )
            .iter()
            .sum()
        };
        let eps = 1e-2f32;
        for i in (0..dw.len()).step_by(7) {
            let mut wp = w.clone();
            wp[i] += eps;
            let mut wm = w.clone();
            wm[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw[i]).abs() < 2e-2, "dw[{i}]: {num} vs {}", dw[i]);
        }
        for i in (0..dx.len()).step_by(5) {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 2e-2, "dx[{i}]: {num} vs {}", dx[i]);
        }
    }

    #[test]
    fn pool_grad_routes_to_argmax() {
        let x = vec![1., 5., 2., 3.];
        let dx = pool_grad(&x, &[10.0], 1, 2, 2, 2, 2, PoolKind::Max);
        assert_eq!(dx, vec![0., 10., 0., 0.]);
        let dxa = pool_grad(&x, &[8.0], 1, 2, 2, 2, 2, PoolKind::Avg);
        assert_eq!(dxa, vec![2., 2., 2., 2.]);
    }

    #[test]
    fn misc_grads_and_sgd() {
        assert_eq!(relu_grad(&[1., -1.], &[5., 5.]), vec![5., 0.]);
        assert_eq!(bias_grad(&[1., 2., 3., 4.], 2, 2), vec![4., 6.]);
        let mut w = vec![1.0f32, 2.0];
        sgd_step(&mut w, &[10.0, -10.0], 0.1);
        assert_close(&w, &[0.0, 3.0], 1e-6);
    }

    #[test]
    fn out_dim_formula() {
        assert_eq!(out_dim(224, 11, 4, 2), 55); // AlexNet conv1
        assert_eq!(out_dim(28, 5, 1, 2), 28); // MNIST conv same-pad
        assert_eq!(out_dim(4, 5, 1, 0), 0); // kernel larger than input
    }

    #[test]
    fn out_dim_survives_u32_overflow() {
        // `input + 2 * pad` overflows u32: must not wrap to a tiny padded
        // size (which used to make large kernels spuriously "not fit" or,
        // worse, produce a bogus small output dim).
        assert_eq!(out_dim(u32::MAX, 1, 1, 1), 0, "result exceeds u32");
        assert_eq!(out_dim(u32::MAX, 3, u32::MAX, u32::MAX), 3);
        // Padded size wraps in u32 arithmetic (10 + 2^32 ≡ 10, which is
        // below the kernel and used to yield 0); the true result fits.
        assert_eq!(out_dim(10, u32::MAX, 1, 1 << 31), 12);
        // Large-but-valid dimensions keep the exact formula.
        assert_eq!(out_dim(1 << 30, 1, 1 << 20, 0), 1 << 10);
    }
}
