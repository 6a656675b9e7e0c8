//! RGB video frames.
//!
//! A [`Frame`] is a plain 24-bit RGB buffer at the paper's working
//! resolution (a quarter of PAL, 384×288). Both the synthetic broadcast
//! generator and the feature extractors operate on these buffers.

/// Default frame width (quarter PAL).
pub const WIDTH: usize = 384;
/// Default frame height (quarter PAL).
pub const HEIGHT: usize = 288;

/// A 24-bit RGB frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

/// A mutable frame under construction.
#[derive(Debug, Clone)]
pub struct FrameBuf {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl FrameBuf {
    /// A frame filled with one color.
    pub fn filled(width: usize, height: usize, rgb: [u8; 3]) -> Self {
        FrameBuf::banded(width, &[(height, rgb)])
    }

    /// A frame of full-width horizontal bands, top to bottom, each
    /// `rows` rows of one color. Every byte is written once: a band is
    /// one pixel, then copies of its own filled prefix, doubling.
    pub(crate) fn banded(width: usize, bands: &[(usize, [u8; 3])]) -> Self {
        let height = bands.iter().map(|&(rows, _)| rows).sum();
        let mut data = Vec::with_capacity(width * height * 3);
        for &(rows, rgb) in bands {
            let start = data.len();
            let end = start + width * rows * 3;
            if end > start {
                data.extend_from_slice(&rgb);
            }
            while data.len() < end {
                let filled = data.len() - start;
                data.extend_from_within(start..start + filled.min(end - data.len()));
            }
        }
        FrameBuf {
            width,
            height,
            data,
        }
    }

    /// A black frame at the paper's 384×288 resolution.
    pub fn standard() -> Self {
        FrameBuf::filled(WIDTH, HEIGHT, [0, 0, 0])
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at (x, y); out-of-bounds reads return black.
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        if x >= self.width || y >= self.height {
            return [0, 0, 0];
        }
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Sets a pixel; out-of-bounds writes are ignored.
    pub fn set(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        if x >= self.width || y >= self.height {
            return;
        }
        let i = (y * self.width + x) * 3;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// The bytes of pixels `x0..x1` of row `y`, both clipped to the
    /// frame — every drawing primitive writes through this slice.
    pub(crate) fn span_mut(&mut self, y: usize, x0: usize, x1: usize) -> &mut [u8] {
        let range = self.span_range(y, x0, x1);
        &mut self.data[range]
    }

    /// [`span_mut`](Self::span_mut), to read.
    pub(crate) fn span(&self, y: usize, x0: usize, x1: usize) -> &[u8] {
        &self.data[self.span_range(y, x0, x1)]
    }

    /// The clipped range [`span_mut`](Self::span_mut) writes, as bytes
    /// of `data`.
    fn span_range(&self, y: usize, x0: usize, x1: usize) -> std::ops::Range<usize> {
        if y >= self.height {
            return 0..0;
        }
        let x1 = x1.min(self.width);
        let x0 = x0.min(x1);
        let row = y * self.width;
        (row + x0) * 3..(row + x1) * 3
    }

    /// Copies pixels `x0..x1` of row `y0` into the rows below it, up to
    /// `y1` (all clipped): how a renderer draws what does not change
    /// from row to row.
    pub(crate) fn repeat_span(&mut self, y0: usize, y1: usize, x0: usize, x1: usize) {
        let first = self.span_range(y0, x0, x1);
        for y in y0 + 1..y1.min(self.height) {
            let at = self.span_range(y, x0, x1).start;
            self.data.copy_within(first.clone(), at);
        }
    }

    /// [`repeat_span`](Self::repeat_span) over whole rows.
    pub(crate) fn repeat_row(&mut self, y0: usize, y1: usize) {
        self.repeat_span(y0, y1, 0, self.width);
    }

    /// Fills the axis-aligned rectangle `[x, x+w) × [y, y+h)` (clipped):
    /// its first row, then copies of it.
    pub fn fill_rect(&mut self, x: usize, y: usize, w: usize, h: usize, rgb: [u8; 3]) {
        if h > 0 {
            fill_pixels(self.span_mut(y, x, x + w), rgb);
            self.repeat_span(y, y + h, x, x + w);
        }
    }

    /// Alpha-blends a rectangle towards `rgb` with weight `alpha`
    /// (0 = untouched, 255 = solid) — used for shaded caption boxes.
    pub fn blend_rect(&mut self, x: usize, y: usize, w: usize, h: usize, rgb: [u8; 3], alpha: u8) {
        let a = alpha as u32;
        for yy in y..(y + h).min(self.height) {
            for px in self.span_mut(yy, x, x + w).chunks_exact_mut(3) {
                for (old, &new) in px.iter_mut().zip(&rgb) {
                    *old = (((255 - a) * *old as u32 + a * new as u32) / 255) as u8;
                }
            }
        }
    }

    /// Freezes the buffer into an immutable [`Frame`], which takes it
    /// over: nothing is copied.
    pub fn freeze(self) -> Frame {
        Frame {
            width: self.width,
            height: self.height,
            data: self.data,
        }
    }
}

/// Writes `rgb` into every pixel of a row-major RGB byte slice: the
/// first pixel, then copies of the filled prefix, doubling.
fn fill_pixels(bytes: &mut [u8], rgb: [u8; 3]) {
    debug_assert!(bytes.len().is_multiple_of(3), "whole pixels only");
    let Some(first) = bytes.get_mut(..3) else {
        return;
    };
    first.copy_from_slice(&rgb);
    let mut filled = 3;
    while filled < bytes.len() {
        let n = filled.min(bytes.len() - filled);
        bytes.copy_within(..n, filled);
        filled += n;
    }
}

/// `299·v`, `587·v` and `114·v` for every byte `v`: the Rec. 601
/// weights [`luma_of`] applies, looked up rather than multiplied, which
/// halves the cost of a [`LumaPlane`].
static LUMA_WEIGHTS: [[u32; 256]; 3] = {
    let mut table = [[0; 256]; 3];
    let mut v = 0;
    while v < 256 {
        table[0][v] = 299 * v as u32;
        table[1][v] = 587 * v as u32;
        table[2][v] = 114 * v as u32;
        v += 1;
    }
    table
};

/// Rec. 601 luma approximation of one pixel, `(299·r + 587·g + 114·b) /
/// 1000`, in `0..=255`.
fn luma_of(r: u8, g: u8, b: u8) -> u8 {
    let [wr, wg, wb] = &LUMA_WEIGHTS;
    ((wr[r as usize] + wg[g as usize] + wb[b as usize]) / 1000) as u8
}

impl Frame {
    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at (x, y); out-of-bounds reads return black.
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        if x >= self.width || y >= self.height {
            return [0, 0, 0];
        }
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Row `y` as row-major RGB bytes, three per pixel — what the pixel
    /// kernels iterate instead of calling [`Frame::get`] per pixel.
    pub(crate) fn row(&self, y: usize) -> &[u8] {
        &self.data[y * self.width * 3..(y + 1) * self.width * 3]
    }

    /// Luma (Rec. 601 approximation) of a pixel, in `0..=255`.
    pub fn luma(&self, x: usize, y: usize) -> u8 {
        let [r, g, b] = self.get(x, y);
        luma_of(r, g, b)
    }

    /// Per-channel color histogram with `bins` buckets per channel,
    /// concatenated R‖G‖B and normalized to sum 1 per channel.
    pub fn histogram(&self, bins: usize) -> Vec<f64> {
        self.histogram_rows(bins, 0, self.height)
    }

    /// Histogram restricted to rows `y0..y1` — shot detectors exclude the
    /// caption band at the bottom of the picture.
    pub fn histogram_rows(&self, bins: usize, y0: usize, y1: usize) -> Vec<f64> {
        let y1 = y1.min(self.height);
        let y0 = y0.min(y1);
        let mut hist = vec![0.0; bins * 3];
        let rows = y1 - y0;
        if rows == 0 {
            return hist;
        }
        let n = (self.width * rows) as f64;
        for y in y0..y1 {
            for x in 0..self.width {
                let px = self.get(x, y);
                for (c, &v) in px.iter().enumerate() {
                    let b = (v as usize * bins / 256).min(bins - 1);
                    hist[c * bins + b] += 1.0;
                }
            }
        }
        for v in &mut hist {
            *v /= n;
        }
        hist
    }

    /// Mean absolute pixel difference between two frames, normalized to
    /// `[0, 1]` — the paper's "pixel color difference between two
    /// consecutive frames" motion cue.
    pub fn mean_abs_diff(&self, other: &Frame) -> f64 {
        assert_eq!(self.width, other.width, "frame width mismatch");
        assert_eq!(self.height, other.height, "frame height mismatch");
        // Summed in 32-bit lanes a block at a time (4096 × 255 fits), so
        // the byte differences vectorize; the total is the same integer.
        const BLOCK: usize = 4096;
        let total: u64 = self
            .data
            .chunks(BLOCK)
            .zip(other.data.chunks(BLOCK))
            .map(|(a, b)| {
                let block: u32 = a.iter().zip(b).map(|(&a, &b)| a.abs_diff(b) as u32).sum();
                block as u64
            })
            .sum();
        total as f64 / (self.data.len() as f64 * 255.0)
    }

    /// Fraction of pixels in a rectangle that satisfy `pred`.
    pub fn fraction_matching(
        &self,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        mut pred: impl FnMut([u8; 3]) -> bool,
    ) -> f64 {
        let x1 = (x + w).min(self.width);
        let y1 = (y + h).min(self.height);
        if x >= x1 || y >= y1 {
            return 0.0;
        }
        let mut hits = 0usize;
        for yy in y..y1 {
            for px in self.row(yy)[x * 3..x1 * 3].chunks_exact(3) {
                if pred([px[0], px[1], px[2]]) {
                    hits += 1;
                }
            }
        }
        hits as f64 / ((x1 - x) * (y1 - y)) as f64
    }
}

/// The Rec. 601 luma [`Frame::luma`] computes, for a frame's *even*
/// rows: the rows the block matcher (2× subsampled) and the wipe
/// detector (every fourth row) sample. Built once per decoded frame, so
/// a pixel's luma is computed once however many kernels and
/// displacements read it.
///
/// The plane is at least as large as the block matcher's
/// [`WIDTH`]×[`HEIGHT`] grid and reads 0 wherever the frame has no
/// pixel, which is what [`Frame::luma`] returns out of bounds.
#[derive(Debug, Clone)]
pub(crate) struct LumaPlane {
    frame_width: usize,
    frame_height: usize,
    stride: usize,
    data: Vec<u8>,
}

impl LumaPlane {
    /// Computes the plane of a frame.
    pub(crate) fn of(frame: &Frame) -> Self {
        let stride = frame.width.max(WIDTH);
        let rows = frame.height.max(HEIGHT).div_ceil(2);
        let mut data = vec![0u8; stride * rows];
        for (y, out) in (0..frame.height)
            .step_by(2)
            .zip(data.chunks_exact_mut(stride))
        {
            for (l, px) in out.iter_mut().zip(frame.row(y).chunks_exact(3)) {
                *l = luma_of(px[0], px[1], px[2]);
            }
        }
        LumaPlane {
            frame_width: frame.width,
            frame_height: frame.height,
            stride,
            data,
        }
    }

    /// Width and height of the frame the plane was computed from.
    pub(crate) fn frame_size(&self) -> (usize, usize) {
        (self.frame_width, self.frame_height)
    }

    /// Luma of row `y` (even), at least [`WIDTH`] samples.
    pub(crate) fn row(&self, y: usize) -> &[u8] {
        debug_assert!(y.is_multiple_of(2), "the plane holds even rows only");
        &self.data[y / 2 * self.stride..(y / 2 + 1) * self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_get_round_trip() {
        let mut fb = FrameBuf::filled(16, 8, [1, 2, 3]);
        assert_eq!(fb.get(5, 5), [1, 2, 3]);
        fb.set(5, 5, [200, 100, 50]);
        assert_eq!(fb.get(5, 5), [200, 100, 50]);
        assert_eq!(fb.get(99, 0), [0, 0, 0]); // out of bounds
        fb.set(99, 99, [9, 9, 9]); // ignored
        let f = fb.freeze();
        assert_eq!(f.get(5, 5), [200, 100, 50]);
        assert_eq!(f.width(), 16);
        assert_eq!(f.height(), 8);
    }

    #[test]
    fn fill_rect_clips_at_edges() {
        let mut fb = FrameBuf::filled(10, 10, [0, 0, 0]);
        fb.fill_rect(8, 8, 5, 5, [255, 0, 0]);
        let f = fb.freeze();
        assert_eq!(f.get(9, 9), [255, 0, 0]);
        assert_eq!(f.get(7, 7), [0, 0, 0]);
    }

    /// A `width`×`height` frame drawn through [`FrameBuf::set`] alone:
    /// horizontal bands, top to bottom, from a black frame.
    fn oracle_banded(width: usize, height: usize, bands: &[(usize, [u8; 3])]) -> FrameBuf {
        let mut fb = FrameBuf {
            width,
            height,
            data: vec![0; width * height * 3],
        };
        let mut y0 = 0;
        for &(rows, rgb) in bands {
            oracle_fill_rect(&mut fb, 0, y0, width, rows, rgb);
            y0 += rows;
        }
        fb
    }

    /// [`FrameBuf::fill_rect`], one [`FrameBuf::set`] per pixel.
    fn oracle_fill_rect(fb: &mut FrameBuf, x: usize, y: usize, w: usize, h: usize, rgb: [u8; 3]) {
        for yy in y..y + h {
            for xx in x..x + w {
                fb.set(xx, yy, rgb);
            }
        }
    }

    /// [`FrameBuf::repeat_span`], one [`FrameBuf::set`] per pixel.
    fn oracle_repeat_span(fb: &mut FrameBuf, y0: usize, y1: usize, x0: usize, x1: usize) {
        for y in y0 + 1..y1.min(fb.height) {
            for x in x0..x1 {
                let rgb = fb.get(x, y0);
                fb.set(x, y, rgb);
            }
        }
    }

    #[test]
    fn fill_primitives_write_what_per_pixel_sets_write() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        fn rgb(rng: &mut StdRng) -> [u8; 3] {
            [rng.gen(), rng.gen(), rng.gen()]
        }
        let mut rng = StdRng::seed_from_u64(0xF111);
        for trial in 0..400 {
            let width = match trial % 8 {
                0..=4 => [0, 1, 2, 3, 5][trial % 8],
                _ => rng.gen_range(0..40),
            };
            let height = rng.gen_range(0..12);
            let color = rgb(&mut rng);
            let mut fb = FrameBuf::filled(width, height, color);
            let mut oracle = oracle_banded(width, height, &[(height, color)]);
            assert_eq!(fb.data, oracle.data, "filled {width}×{height}");
            // Bands, some of them empty, covering the frame.
            let mut bands = Vec::new();
            let mut rows = 0;
            while rows < height || rng.gen_bool(0.2) {
                let band = rng.gen_range(0..=height - rows);
                bands.push((band, rgb(&mut rng)));
                rows += band;
            }
            let banded = FrameBuf::banded(width, &bands);
            let banded_oracle = oracle_banded(width, rows, &bands);
            assert_eq!(banded.height, rows);
            assert_eq!(banded.data, banded_oracle.data, "{width} wide, {bands:?}");
            // Speckle, so that copies of rows show.
            for _ in 0..width * height / 2 {
                let (x, y, c) = (
                    rng.gen_range(0..width),
                    rng.gen_range(0..height),
                    rgb(&mut rng),
                );
                fb.set(x, y, c);
                oracle.set(x, y, c);
            }
            // Rectangles and repeats anywhere, of any size: inside, across
            // every edge, past the frame, and empty.
            for _ in 0..12 {
                let x = rng.gen_range(0..width + 4);
                let y = rng.gen_range(0..height + 4);
                let w = rng.gen_range(0..width + 5);
                let h = rng.gen_range(0..height + 5);
                match rng.gen_range(0..3) {
                    0 => {
                        let c = rgb(&mut rng);
                        fb.fill_rect(x, y, w, h, c);
                        oracle_fill_rect(&mut oracle, x, y, w, h, c);
                    }
                    1 => {
                        fb.repeat_span(y, y + h, x, x + w);
                        oracle_repeat_span(&mut oracle, y, y + h, x, x + w);
                    }
                    _ => {
                        fb.repeat_row(y, y + h);
                        oracle_repeat_span(&mut oracle, y, y + h, 0, width);
                    }
                }
                assert_eq!(
                    fb.data, oracle.data,
                    "{width}×{height}, at ({x}, {y}) {w}×{h}"
                );
            }
        }
    }

    #[test]
    fn blend_rect_mixes_colors() {
        let mut fb = FrameBuf::filled(4, 4, [200, 200, 200]);
        fb.blend_rect(0, 0, 4, 4, [0, 0, 0], 128);
        let v = fb.get(0, 0)[0];
        assert!((90..=110).contains(&v), "blend gave {v}");
    }

    #[test]
    fn luma_weights_green_highest() {
        let mut fb = FrameBuf::filled(2, 1, [0, 0, 0]);
        fb.set(0, 0, [255, 0, 0]);
        fb.set(1, 0, [0, 255, 0]);
        let f = fb.freeze();
        assert!(f.luma(1, 0) > f.luma(0, 0));
    }

    #[test]
    fn histogram_sums_to_one_per_channel() {
        let f = FrameBuf::filled(8, 8, [10, 128, 250]).freeze();
        let h = f.histogram(8);
        for c in 0..3 {
            let s: f64 = h[c * 8..(c + 1) * 8].iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        // All mass in one bin per channel for a flat frame.
        assert!((h[0] - 1.0).abs() < 1e-12); // R=10 → bin 0
        assert!((h[8 + 4] - 1.0).abs() < 1e-12); // G=128 → bin 4
        assert!((h[16 + 7] - 1.0).abs() < 1e-12); // B=250 → bin 7
    }

    #[test]
    fn mean_abs_diff_detects_change() {
        let a = FrameBuf::filled(8, 8, [0, 0, 0]).freeze();
        let b = FrameBuf::filled(8, 8, [255, 255, 255]).freeze();
        assert!((a.mean_abs_diff(&b) - 1.0).abs() < 1e-12);
        assert_eq!(a.mean_abs_diff(&a), 0.0);
    }

    #[test]
    fn fraction_matching_counts_predicate_hits() {
        let mut fb = FrameBuf::filled(10, 10, [0, 0, 0]);
        fb.fill_rect(0, 0, 5, 10, [255, 0, 0]);
        let f = fb.freeze();
        let frac = f.fraction_matching(0, 0, 10, 10, |[r, _, _]| r > 128);
        assert!((frac - 0.5).abs() < 1e-12);
        assert_eq!(f.fraction_matching(20, 20, 5, 5, |_| true), 0.0);
    }
}
