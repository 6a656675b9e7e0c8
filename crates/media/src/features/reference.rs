//! Per-pixel reference implementations of the extractor's pixel kernels.
//!
//! These are the bodies [`super::video`]'s kernels and
//! [`Frame::mean_abs_diff`] had before they were rewritten over luma
//! planes and RGB rows, kept verbatim as the semantic ground truth: every
//! luma read goes through the bounds-checked [`Frame::luma`], every color
//! read through [`Frame::get`], the block matcher evaluates every
//! displacement in full. The kernels are tested against them for exact
//! equality — same integers, same `f64` bits — on frames of every kind
//! the renderer draws.

use crate::frame::{Frame, HEIGHT, WIDTH};

pub fn motion_field(prev: &Frame, cur: &Frame) -> Vec<i32> {
    const BLOCK: usize = 16;
    const SEARCH: i32 = 16;
    const MIN_TEXTURE: f64 = 100.0; // luma variance floor
    const MAX_RESIDUAL: i64 = 6; // per-sample SAD for an accepted match
    let grid_x = WIDTH / BLOCK;
    let grid_y = HEIGHT / BLOCK;
    let mut dx = Vec::new();
    for gy in 0..grid_y {
        for gx in 0..grid_x {
            let x0 = gx * BLOCK;
            let y0 = gy * BLOCK;
            let cols: Vec<f64> = ((x0..x0 + BLOCK).step_by(2))
                .map(|x| {
                    let mut s = 0.0;
                    let mut n = 0.0;
                    for y in (y0..y0 + BLOCK).step_by(2) {
                        s += cur.luma(x, y) as f64;
                        n += 1.0;
                    }
                    s / n
                })
                .collect();
            let mean = cols.iter().sum::<f64>() / cols.len() as f64;
            let var = cols.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / cols.len() as f64;
            if var < MIN_TEXTURE {
                continue;
            }
            let mut best = i64::MAX;
            let mut best_dx = 0i32;
            let mut best_samples = 1i64;
            let order = {
                let mut v = vec![0i32];
                for d in 1..=SEARCH {
                    v.push(d);
                    v.push(-d);
                }
                v
            };
            for d in order {
                let mut sad = 0i64;
                let mut samples = 0i64;
                for y in (y0..y0 + BLOCK).step_by(2) {
                    for x in (x0..x0 + BLOCK).step_by(2) {
                        let sx = x as i32 + d;
                        if sx < 0 || sx as usize >= WIDTH {
                            sad += 128;
                            continue;
                        }
                        let a = cur.luma(x, y) as i64;
                        let b = prev.luma(sx as usize, y) as i64;
                        sad += (a - b).abs();
                        samples += 1;
                    }
                }
                if sad < best {
                    best = sad;
                    best_dx = d;
                    best_samples = samples.max(1);
                }
            }
            if best / best_samples > MAX_RESIDUAL {
                continue;
            }
            dx.push(best_dx);
        }
    }
    dx
}

pub fn semaphore_score(frame: &Frame) -> f64 {
    let is_red = |[r, g, b]: [u8; 3]| r > 170 && g < 90 && b < 90;
    let band_h = 60.min(frame.height());
    let mut col_red = vec![0usize; frame.width()];
    for (x, col) in col_red.iter_mut().enumerate() {
        for y in 0..band_h {
            if is_red(frame.get(x, y)) {
                *col += 1;
            }
        }
    }
    let mut best = 0usize;
    let mut run_len = 0usize;
    let mut run_sum = 0usize;
    for &c in &col_red {
        if c > 2 {
            run_len += 1;
            run_sum += c;
            best = best.max(run_sum.min(run_len * band_h));
        } else {
            run_len = 0;
            run_sum = 0;
        }
    }
    (best as f64 / (70.0 * 18.0)).min(1.0)
}

fn fraction_matching(
    frame: &Frame,
    x: usize,
    y: usize,
    w: usize,
    h: usize,
    mut pred: impl FnMut([u8; 3]) -> bool,
) -> f64 {
    let x1 = (x + w).min(frame.width());
    let y1 = (y + h).min(frame.height());
    if x >= x1 || y >= y1 {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut total = 0usize;
    for yy in y..y1 {
        for xx in x..x1 {
            total += 1;
            if pred(frame.get(xx, yy)) {
                hits += 1;
            }
        }
    }
    hits as f64 / total as f64
}

pub fn sand_score(frame: &Frame) -> f64 {
    fraction_matching(frame, 0, HEIGHT / 4, WIDTH, HEIGHT / 2, |[r, g, b]| {
        r > 180 && (140..=210).contains(&g) && b < 160 && r > b
    })
}

pub fn dust_score(frame: &Frame) -> f64 {
    fraction_matching(frame, 0, HEIGHT / 4, WIDTH, HEIGHT / 2, |[r, g, b]| {
        let max = r.max(g).max(b) as i32;
        let min = r.min(g).min(b) as i32;
        max > 140 && max - min < 40 && r >= g && g >= b
    })
}

pub fn wipe_score(frame: &Frame) -> f64 {
    let w = frame.width();
    let h = frame.height();
    let mut white = vec![0f64; w];
    let rows: Vec<usize> = (0..h).step_by(4).collect();
    for (x, wf) in white.iter_mut().enumerate() {
        let hits = rows.iter().filter(|&&y| frame.luma(x, y) > 245).count();
        *wf = hits as f64 / rows.len() as f64;
    }
    let mut best_run = 0usize;
    let mut run = 0usize;
    for &wf in &white {
        if wf > 0.9 {
            run += 1;
            best_run = best_run.max(run);
        } else {
            run = 0;
        }
    }
    if (2..=12).contains(&best_run) {
        1.0
    } else {
        0.0
    }
}

pub fn mean_abs_diff(a: &Frame, b: &Frame) -> f64 {
    assert_eq!(a.width(), b.width(), "frame width mismatch");
    assert_eq!(a.height(), b.height(), "frame height mismatch");
    let mut total = 0u64;
    let mut bytes = 0usize;
    for y in 0..a.height() {
        for x in 0..a.width() {
            for (&p, &q) in a.get(x, y).iter().zip(&b.get(x, y)) {
                total += (p as i16 - q as i16).unsigned_abs() as u64;
                bytes += 1;
            }
        }
    }
    total as f64 / (bytes as f64 * 255.0)
}

mod tests {
    use super::*;
    use crate::features::video;
    use crate::frame::FrameBuf;
    use crate::synth::scenario::{EventKind, RaceProfile, RaceScenario, ScenarioConfig};
    use crate::synth::video::{VideoSynth, WIPE_FRAMES};
    use crate::time::video_frame_of_clip;
    use proptest::prelude::*;

    /// Every kernel against its reference, on frames paired as the
    /// extractor pairs them.
    fn assert_kernels_agree(cur: &Frame, next: &Frame, far: &Frame) {
        assert_eq!(video::motion_field(cur, far).dx, motion_field(cur, far));
        assert_eq!(video::wipe_score(cur), wipe_score(cur));
        assert_eq!(video::semaphore_score(cur), semaphore_score(cur));
        assert_eq!(video::dust_score(cur), dust_score(cur));
        assert_eq!(video::sand_score(cur), sand_score(cur));
        assert_eq!(cur.mean_abs_diff(next), mean_abs_diff(cur, next));
    }

    /// A frame of the asked-for kind (any when the broadcast has none):
    /// 0 anywhere, 1 passing, 2 start semaphore, 3 fly-out, 4 the wipe at
    /// either end of a replay, 5 under a caption.
    fn pick(sc: &RaceScenario, kind: usize, at: usize) -> usize {
        let within = |lo: usize, hi: usize| lo + at % (hi - lo).max(1);
        let event = |wanted: EventKind| {
            let spans: Vec<_> = sc.events.iter().filter(|e| e.kind == wanted).collect();
            (!spans.is_empty()).then(|| {
                let span = spans[at % spans.len()].span;
                within(
                    video_frame_of_clip(span.start),
                    video_frame_of_clip(span.end),
                )
            })
        };
        let picked = match kind {
            1 => event(EventKind::Passing),
            2 => event(EventKind::Start),
            3 => event(EventKind::FlyOut),
            4 => (!sc.replays.is_empty()).then(|| {
                let span = sc.replays[at % sc.replays.len()].span;
                let (open, close) = (
                    video_frame_of_clip(span.start),
                    video_frame_of_clip(span.end),
                );
                if at.is_multiple_of(2) {
                    within(open, open + WIPE_FRAMES)
                } else {
                    within(close - WIPE_FRAMES, close)
                }
            }),
            5 => (!sc.captions.is_empty()).then(|| {
                let c = &sc.captions[at % sc.captions.len()];
                within(c.start_frame, c.end_frame)
            }),
            _ => None,
        };
        picked.unwrap_or(at).min(sc.n_frames() - 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn kernels_equal_their_per_pixel_definitions(
            profile in 0usize..3,
            kind in 0usize..6,
            at in 0usize..3000,
        ) {
            let profile = [RaceProfile::German, RaceProfile::Belgian, RaceProfile::Usa][profile];
            let sc = RaceScenario::generate(ScenarioConfig::new(profile, 120));
            let v = VideoSynth::new(&sc);
            let last = sc.n_frames() - 1;
            let f = pick(&sc, kind, at);
            let cur = v.frame(f);
            let next = v.frame((f + 1).min(last));
            let far = v.frame((f + video::MOTION_BASELINE).min(last));
            assert_kernels_agree(&cur, &next, &far);
        }
    }

    /// Frames smaller and larger than the block matcher's grid: what lies
    /// outside a frame reads as black, what lies outside the grid is not
    /// read.
    #[test]
    fn kernels_equal_their_definitions_on_odd_frame_shapes() {
        let noise = |w: usize, h: usize, seed: u64| {
            let mut fb = FrameBuf::filled(w, h, [0, 0, 0]);
            let mut z = seed;
            for y in 0..h {
                for x in 0..w {
                    z = z
                        .wrapping_mul(0x5851_F42D_4C95_7F2D)
                        .wrapping_add(0x1405_7B7E_F767_814F);
                    // Runs of flat color, bright enough for every filter.
                    if z >> 61 != 0 {
                        fb.set(x, y, fb.get(x.saturating_sub(1), y));
                    } else {
                        fb.set(
                            x,
                            y,
                            [(z >> 8) as u8 | 0x80, (z >> 16) as u8, (z >> 24) as u8],
                        );
                    }
                }
            }
            fb.freeze()
        };
        for (w, h) in [
            (40, 30),
            (WIDTH + 17, HEIGHT + 9),
            (WIDTH, 100),
            (100, HEIGHT),
        ] {
            let (a, b) = (noise(w, h, 1), noise(w, h, 2));
            assert_kernels_agree(&a, &b, &b);
            assert_kernels_agree(&a, &a, &a);
        }
    }
}
