//! Frame rendering of the broadcast video.
//!
//! [`VideoSynth`] renders any 384×288 RGB frame of the broadcast
//! deterministically (random access, like the audio path). The rendering
//! is simple but carries exactly the visual structure §5.3 relies on:
//!
//! * a panning **track scene** (sky / curbs / track / grass bands with
//!   moving trackside stripes) whose palette changes at every **camera
//!   cut**, so multi-frame histogram differencing finds shot boundaries,
//! * **cars** as colored blocks; during a passing event on a
//!   high-fidelity profile one car visibly overtakes the other, giving
//!   the motion histogram its bimodal signature, while profile *camera
//!   jitter* shakes the whole scene and decorrelates the cue,
//! * the **start semaphore**: a rectangular row of red lights that grows
//!   horizontally at a fixed frame interval,
//! * **fly-outs**: sand and dust plumes (color-filterable regions),
//! * **replays**: the original event footage re-rendered, delimited by
//!   DVE wipes at both ends,
//! * **captions**: a shaded box at the bottom of the picture with
//!   high-contrast bitmap text — the assumptions §5.4's text detector
//!   exploits.

use crate::font;
use crate::frame::{Frame, FrameBuf, HEIGHT, WIDTH};
use crate::synth::scenario::{EventKind, RaceScenario};
use crate::time::{clips_per_second, VIDEO_FPS};

/// Deterministic random-access video renderer for one scenario.
pub struct VideoSynth<'a> {
    scenario: &'a RaceScenario,
    seed: u64,
}

fn hash64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hunit(seed: u64, x: u64) -> f64 {
    (hash64(seed ^ x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Number of frames a DVE wipe lasts.
pub const WIPE_FRAMES: usize = 10;

/// Vertical band layout of the track scene.
const SKY_END: usize = HEIGHT / 4;
#[allow(dead_code)]
const CURB_END: usize = HEIGHT / 4 + 12;
const TRACK_END: usize = HEIGHT * 3 / 4;

/// The caption box geometry (bottom of the picture, per §5.4).
pub const CAPTION_Y: usize = HEIGHT - 40;
/// Caption box height.
pub const CAPTION_H: usize = 32;

impl<'a> VideoSynth<'a> {
    /// Creates a renderer over a scenario.
    pub fn new(scenario: &'a RaceScenario) -> Self {
        VideoSynth {
            scenario,
            seed: scenario.config.seed ^ 0x51DE0,
        }
    }

    /// Total frames in the broadcast.
    pub fn n_frames(&self) -> usize {
        self.scenario.n_frames()
    }

    /// Shot index covering a frame (count of cuts at or before it).
    pub fn shot_of(&self, frame: usize) -> usize {
        self.scenario.shot_cuts.partition_point(|&c| c <= frame)
    }

    fn clip_of(&self, frame: usize) -> usize {
        frame * clips_per_second() / VIDEO_FPS
    }

    /// Renders frame `idx`, replays and captions included.
    pub fn frame(&self, idx: usize) -> Frame {
        let clip = self.clip_of(idx);
        let mut fb = if let Some(r) = self.scenario.replays.iter().find(|r| r.span.contains(clip)) {
            // Replay: re-show the source footage, wrapped in DVE wipes.
            let replay_start = r.span.start * VIDEO_FPS / clips_per_second();
            let replay_end = r.span.end * VIDEO_FPS / clips_per_second();
            let source_start = r.source.start * VIDEO_FPS / clips_per_second();
            let inner = idx - replay_start;
            let src = self.render_scene(source_start + inner);
            let into_start = idx.saturating_sub(replay_start);
            let until_end = replay_end.saturating_sub(idx + 1);
            if into_start < WIPE_FRAMES || until_end < WIPE_FRAMES {
                let live = self.render_scene(idx);
                let progress = if into_start < WIPE_FRAMES {
                    into_start as f64 / WIPE_FRAMES as f64
                } else {
                    until_end as f64 / WIPE_FRAMES as f64
                };
                wipe(&live, &src, progress)
            } else {
                src
            }
        } else {
            self.render_scene(idx)
        };
        self.draw_captions(&mut fb, idx);
        fb.freeze()
    }

    /// The raw scene (no replay indirection, no captions) — exposed so
    /// tests can inspect the underlying footage.
    fn render_scene(&self, idx: usize) -> FrameBuf {
        let clip = self.clip_of(idx);
        let shot = self.shot_of(idx);
        let sseed = hash64(self.seed ^ (shot as u64).wrapping_mul(0x1234_5677));

        // Camera pan + profile jitter.
        let pan_speed = 1.0 + 3.0 * hunit(sseed, 1);
        let jitter = self.scenario.camera_jitter;
        let shake = ((hunit(self.seed, idx as u64 * 31 + 7) - 0.5) * 24.0 * jitter) as isize;
        let pan = (idx as f64 * pan_speed) as isize + shake;
        // Handheld shear: jittery profiles stretch/compress the scene
        // horizontally frame to frame, so block motion varies across the
        // picture — this is what defeats the passing cue outside the
        // steady German camera work.
        let shear = (hunit(self.seed, idx as u64 * 77 + 13) - 0.5) * 24.0 * jitter;

        // Palette varies per shot so histograms change across cuts.
        let sky = [
            100 + (hunit(sseed, 2) * 80.0) as u8,
            140 + (hunit(sseed, 3) * 60.0) as u8,
            200 + (hunit(sseed, 4) * 40.0) as u8,
        ];
        let track = [
            90 + (hunit(sseed, 5) * 40.0) as u8,
            90 + (hunit(sseed, 5) * 40.0) as u8,
            95 + (hunit(sseed, 5) * 40.0) as u8,
        ];
        let grass = [
            20 + (hunit(sseed, 6) * 30.0) as u8,
            120 + (hunit(sseed, 7) * 80.0) as u8,
            30 + (hunit(sseed, 8) * 30.0) as u8,
        ];

        // Band geometry varies per shot (wide shots show more sky, tight
        // shots more asphalt) — this shifts histogram *proportions*, the
        // signal the shot detector keys on.
        let sky_end = SKY_END - 20 + (hunit(sseed, 13) * 40.0) as usize;
        let curb_end = sky_end + 12;
        let track_end = TRACK_END - 24 + (hunit(sseed, 14) * 48.0) as usize;

        let mut fb = FrameBuf::filled(WIDTH, HEIGHT, track);
        fb.fill_rect(0, 0, WIDTH, sky_end, sky);
        fb.fill_rect(0, track_end, WIDTH, HEIGHT - track_end, grass);

        // Moving curb stripes (red/white) below the sky: texture that
        // makes camera pan visible to the motion estimator.
        // Curb palette and stripe period vary per shot (different corners
        // of the track look different), which is what the histogram shot
        // detector keys on.
        // Stripe blocks are *aperiodic* (hashed world coordinate): a
        // periodic pattern would alias under the motion estimator's ±16 px
        // search and wreck the passing cue.
        let stripe_a = [
            170 + (hunit(sseed, 10) * 80.0) as u8,
            30 + (hunit(sseed, 11) * 60.0) as u8,
            30 + (hunit(sseed, 12) * 60.0) as u8,
        ];
        // World coordinate of every screen column, under pan and shear.
        let world: Vec<isize> = (0..WIDTH)
            .map(|x| x as isize + pan + (shear * x as f64 / WIDTH as f64) as isize)
            .collect();
        // The stripes are vertical, so the curb's rows are all alike.
        for (px, &world) in fb
            .span_mut(sky_end, 0, WIDTH)
            .chunks_exact_mut(3)
            .zip(&world)
        {
            // Four distinct stripe colors: a two-color pattern aliases
            // under block matching far too often.
            let color = match hash64(self.seed ^ 0xCCB5 ^ world.div_euclid(16) as u64) & 3 {
                0 => stripe_a,
                1 => [225, 225, 225],
                2 => [40, 60, 160],
                _ => [210, 190, 60],
            };
            px.copy_from_slice(&color);
        }
        fb.repeat_row(sky_end, curb_end);
        // Asphalt texture: 2-D hashed patches in world coordinates. Every
        // 8×8 patch gets its own shade, so no two stretches of track look
        // alike to the block matcher (1-D stripe patterns alias). The
        // shade hangs on the patch alone: it is hashed once per run of
        // columns in a patch, and the rows of a patch band are copies of
        // its first.
        let mut y = curb_end;
        while y < track_end {
            let cell_y = (y / 8) as u64;
            let mut run: Option<(u64, Option<[u8; 3]>)> = None;
            for (px, &world) in fb.span_mut(y, 0, WIDTH).chunks_exact_mut(3).zip(&world) {
                let cell_x = world.div_euclid(8) as u64;
                let shade = match run {
                    Some((cell, shade)) if cell == cell_x => shade,
                    _ => {
                        let h =
                            hash64(self.seed ^ 0x7AC4 ^ cell_x.wrapping_mul(0x0100_0001) ^ cell_y);
                        let shade = (h % 5 < 2).then(|| {
                            let shade = 112 + ((h >> 16) % 5) as u8 * 9;
                            [shade, shade, shade + 8]
                        });
                        run = Some((cell_x, shade));
                        shade
                    }
                };
                if let Some(shade) = shade {
                    px.copy_from_slice(&shade);
                }
            }
            let band_end = ((y / 8 + 1) * 8).min(track_end);
            fb.repeat_row(y, band_end);
            y = band_end;
        }

        // Cars: the camera tracks the leading pack, so cars sit near the
        // screen centre (slow wander) while the background pans past.
        let event = self.scenario.event_at(clip);
        let passing = matches!(event.map(|e| e.kind), Some(EventKind::Passing));
        let fidelity = self.scenario.passing_motion_fidelity;
        let car_y = curb_end + (track_end - curb_end) / 2;
        let car_a_x = WIDTH as isize / 2 - 70;
        // During a passing event on a faithful profile, car B sweeps from
        // 160 px behind to 160 px ahead of car A — two motion populations
        // with a clearly measurable velocity difference.
        let rel = if passing {
            let span = event.expect("passing event").span;
            let start_frame = span.start * VIDEO_FPS / clips_per_second();
            let progress = (idx.saturating_sub(start_frame)) as f64
                / ((span.len() * VIDEO_FPS / clips_per_second()).max(1)) as f64;
            -160.0 + fidelity * progress.clamp(0.0, 1.0) * 320.0
        } else {
            -160.0
        };
        let car_b_x = car_a_x + rel as isize;
        draw_car(&mut fb, car_a_x, car_y, [220, 20, 20]); // red car
        draw_car(&mut fb, car_b_x, car_y + 18, [215, 215, 230]); // silver car

        // Start semaphore: a row of red lights growing at a fixed interval.
        if let Some(e) = event {
            if e.kind == EventKind::Start {
                let start_frame = e.span.start * VIDEO_FPS / clips_per_second();
                // The paper: the red circles touch, forming a rectangular
                // shape that grows horizontally at a constant frame
                // interval.
                let step = (idx.saturating_sub(start_frame)) / (VIDEO_FPS); // one light per second
                let lights = (1 + step).min(5);
                let lw = 14usize;
                let x0 = WIDTH / 2 - (5 * lw) / 2;
                fb.fill_rect(x0 - 4, 20, 5 * lw + 8, 26, [15, 15, 15]);
                fb.fill_rect(x0, 24, lights * lw, 18, [230, 20, 20]);
            }
            if e.kind == EventKind::FlyOut {
                // Sand plume on the right half plus dust above it; coverage
                // ramps over the event.
                let span = e.span;
                let start_frame = span.start * VIDEO_FPS / clips_per_second();
                let progress = ((idx.saturating_sub(start_frame)) as f64
                    / ((span.len() * VIDEO_FPS / clips_per_second()).max(1)) as f64)
                    .min(1.0);
                let coverage = 0.3 + 0.6 * (1.0 - (2.0 * progress - 1.0).abs());
                for y in curb_end..track_end + 30 {
                    for x in WIDTH / 2..WIDTH {
                        if hunit(
                            self.seed ^ 0x5A4D,
                            (idx / 3 * 1_000_000 + y * 1000 + x) as u64,
                        ) < coverage
                        {
                            let dust = y < curb_end + 40;
                            let c = if dust {
                                [185, 175, 160]
                            } else {
                                [210, 180, 110]
                            };
                            fb.set(x, y, c);
                        }
                    }
                }
            }
        }
        fb
    }

    /// Draws any active captions onto a frame buffer.
    fn draw_captions(&self, fb: &mut FrameBuf, idx: usize) {
        for c in &self.scenario.captions {
            if (c.start_frame..c.end_frame).contains(&idx) {
                // Shaded dark box at the bottom with high-contrast text,
                // exactly the §5.4 assumptions.
                let tw = font::text_width(&c.text) * 2;
                let x0 = (WIDTH.saturating_sub(tw + 16)) / 2;
                fb.blend_rect(x0, CAPTION_Y, tw + 16, CAPTION_H, [10, 10, 30], 215);
                font::draw_text(fb, x0 + 8, CAPTION_Y + 8, 2, [250, 240, 120], &c.text);
            }
        }
    }
}

fn draw_car(fb: &mut FrameBuf, x: isize, y: usize, color: [u8; 3]) {
    const LENGTH: usize = 56;
    // Columns of the car left of the picture are not drawn.
    let hidden = (-x).clamp(0, LENGTH as isize) as usize;
    let x0 = (x + hidden as isize) as usize;
    // Strongly textured, *aperiodic* livery so block matching locks onto
    // the car rather than the background (and cannot alias onto a
    // repeated stripe period). It runs along the car, so every row is
    // the first.
    for (px, dx) in fb
        .span_mut(y, x0, x0 + LENGTH - hidden)
        .chunks_exact_mut(3)
        .zip(hidden..)
    {
        let c = match hash64(0xCA2 ^ (dx as u64 / 5).wrapping_mul(0x9E37)) & 3 {
            0 => [15, 15, 15],
            1 => [250, 250, 250],
            _ => color,
        };
        px.copy_from_slice(&c);
    }
    fb.repeat_span(y, y + 28, x0, x0 + LENGTH - hidden);
    // Bright canopy flash.
    let (c0, c1) = (18.max(hidden), 30.max(hidden));
    fb.fill_rect(x0 + c0 - hidden, y + 4, c1 - c0, 2, [250, 250, 250]);
}

/// Horizontal DVE wipe: left `progress` of the width shows `to`, the rest
/// shows `from`, separated by the bright border bar real DVE generators
/// draw at the transition edge.
fn wipe(from: &FrameBuf, to: &FrameBuf, progress: f64) -> FrameBuf {
    let mut out = from.clone();
    let edge = (progress.clamp(0.0, 1.0) * WIDTH as f64) as usize;
    for y in 0..HEIGHT {
        out.span_mut(y, 0, edge)
            .copy_from_slice(to.span(y, 0, edge));
    }
    // The DVE border: a 5-px full-height white bar at the moving edge.
    if edge > 0 && edge < WIDTH {
        out.fill_rect(edge.saturating_sub(2), 0, 5, HEIGHT, [255, 255, 255]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::scenario::{RaceProfile, ScenarioConfig};

    fn setup(profile: RaceProfile) -> (RaceScenario, u64) {
        let sc = RaceScenario::generate(ScenarioConfig::new(profile, 180));
        let seed = sc.config.seed;
        (sc, seed)
    }

    #[test]
    fn frames_are_deterministic() {
        let (sc, _) = setup(RaceProfile::German);
        let v = VideoSynth::new(&sc);
        assert_eq!(v.frame(100), v.frame(100));
        assert_ne!(v.frame(100), v.frame(101));
    }

    /// Pins the rendered bytes. The digests were recorded from the
    /// renderer that drew pixel by pixel through `FrameBuf::set`, over
    /// frames reaching every drawing path of each profile: a sweep of
    /// the broadcast, the start and middle of every event (semaphore,
    /// passing, fly-out plumes), both wipes and the inside of every
    /// replay, and every caption.
    #[test]
    fn rendered_bytes_are_those_of_the_per_pixel_renderer() {
        for (profile, secs, pinned) in [
            (RaceProfile::German, 240, 0xdfe9f696fc0d6c14u64),
            (RaceProfile::Belgian, 120, 0xa9046ea4470f8e81),
            (RaceProfile::Usa, 120, 0x64d9e744e74d72cf),
        ] {
            let sc = RaceScenario::generate(ScenarioConfig::new(profile, secs));
            let v = VideoSynth::new(&sc);
            let frame_of = crate::time::video_frame_of_clip;
            let mut picks: Vec<usize> = (0..sc.n_frames()).step_by(97).collect();
            for e in &sc.events {
                picks.push(frame_of(e.span.start));
                picks.push(frame_of(e.span.start + e.span.len() / 2));
            }
            for r in &sc.replays {
                picks.push(frame_of(r.span.start) + 3);
                picks.push(frame_of(r.span.start) + WIPE_FRAMES + 5);
                picks.push(frame_of(r.span.end) - 3);
            }
            for c in &sc.captions {
                picks.push(c.start_frame + 2);
            }
            // Over the bytes of the picked frames, row-major, one frame
            // alive at a time.
            let bytes = picks
                .iter()
                .map(|&idx| v.frame(idx))
                .flat_map(|f| (0..f.height()).flat_map(move |y| f.row(y).to_vec()));
            let h = crate::test_support::fnv1a(bytes.map(u64::from));
            assert_eq!(h, pinned, "{profile:?}");
        }
    }

    #[test]
    fn shot_cuts_change_the_scene_abruptly() {
        let (sc, _) = setup(RaceProfile::German);
        let v = VideoSynth::new(&sc);
        let cut = sc.shot_cuts[1];
        let before = v.frame(cut - 1);
        let at = v.frame(cut);
        let within = v.frame(cut - 2);
        let diff_cut = before.mean_abs_diff(&at);
        let diff_within = within.mean_abs_diff(&before);
        assert!(
            diff_cut > diff_within * 2.0,
            "cut diff {diff_cut} vs within-shot {diff_within}"
        );
    }

    #[test]
    fn semaphore_reddens_the_top_during_start() {
        let (sc, _) = setup(RaceProfile::German);
        let v = VideoSynth::new(&sc);
        let start = &sc.events[0];
        let f = start.span.start * VIDEO_FPS / clips_per_second() + 30;
        let frame = v.frame(f);
        let red = frame.fraction_matching(WIDTH / 2 - 40, 20, 80, 26, |[r, g, b]| {
            r > 180 && g < 80 && b < 80
        });
        assert!(red > 0.1, "semaphore red fraction {red}");
        // No semaphore long after the start.
        let later = v.frame(f + 60 * VIDEO_FPS);
        let red_later = later.fraction_matching(WIDTH / 2 - 40, 20, 80, 26, |[r, g, b]| {
            r > 180 && g < 80 && b < 80
        });
        assert!(red_later < red / 2.0);
    }

    #[test]
    fn semaphore_grows_with_time() {
        let (sc, _) = setup(RaceProfile::German);
        let v = VideoSynth::new(&sc);
        let start_frame = sc.events[0].span.start * VIDEO_FPS / clips_per_second();
        let count_red = |f: usize| {
            v.frame(f)
                .fraction_matching(0, 0, WIDTH, 50, |[r, g, b]| r > 180 && g < 80 && b < 80)
        };
        assert!(count_red(start_frame + 3 * VIDEO_FPS) > count_red(start_frame + 2));
    }

    #[test]
    fn fly_out_fills_the_scene_with_sand() {
        let (sc, _) = setup(RaceProfile::German);
        let v = VideoSynth::new(&sc);
        let fly = sc
            .events
            .iter()
            .find(|e| e.kind == EventKind::FlyOut)
            .expect("german race has fly-outs");
        let mid = (fly.span.start + fly.span.len() / 2) * VIDEO_FPS / clips_per_second();
        let sandy = |f: &Frame| {
            f.fraction_matching(
                WIDTH / 2,
                CURB_END,
                WIDTH / 2,
                TRACK_END - CURB_END,
                |[r, g, b]| r > 180 && g > 140 && b < 160,
            )
        };
        let during = sandy(&v.frame(mid));
        let calm_clip = (2..sc.n_clips.saturating_sub(2))
            .find(|&c| {
                (c - 2..=c + 2)
                    .all(|k| sc.is_live(k) && sc.event_at(k).is_none() && !sc.is_replay(k))
            })
            .unwrap();
        let outside = sandy(&v.frame(calm_clip * VIDEO_FPS / clips_per_second()));
        assert!(
            during > outside + 0.2,
            "sand during {during} vs outside {outside}"
        );
    }

    #[test]
    fn replay_reuses_source_footage_between_wipes() {
        let (sc, _) = setup(RaceProfile::German);
        let v = VideoSynth::new(&sc);
        let r = sc.replays.first().expect("german race has replays");
        let cps = clips_per_second();
        let replay_mid_frame = (r.span.start * VIDEO_FPS / cps) + WIPE_FRAMES + 5;
        let src_frame = (r.source.start * VIDEO_FPS / cps)
            + (replay_mid_frame - r.span.start * VIDEO_FPS / cps);
        // Compare a caption-free region (top half): the replayed frame
        // shows the source scene.
        let rep = v.frame(replay_mid_frame);
        let src = v.frame(src_frame);
        let mut same = 0usize;
        let mut total = 0usize;
        for y in (0..TRACK_END).step_by(4) {
            for x in (0..WIDTH).step_by(4) {
                total += 1;
                if rep.get(x, y) == src.get(x, y) {
                    same += 1;
                }
            }
        }
        assert!(
            same as f64 / total as f64 > 0.9,
            "replay matches source on {same}/{total} samples"
        );
    }

    #[test]
    fn captions_darken_the_bottom_and_show_text() {
        let (sc, _) = setup(RaceProfile::German);
        let v = VideoSynth::new(&sc);
        let cap = sc
            .captions
            .iter()
            .find(|c| c.kind == crate::synth::scenario::CaptionKind::PitStop)
            .expect("pit stop caption");
        let f = v.frame(cap.start_frame + 2);
        // Bright yellow glyph pixels present in the caption band.
        let ink = f.fraction_matching(0, CAPTION_Y, WIDTH, CAPTION_H, |[r, g, b]| {
            r > 200 && g > 190 && b < 170
        });
        assert!(ink > 0.01, "caption ink fraction {ink}");
        // Same frame without captions has none.
        let f_no = v.frame(cap.end_frame + 5);
        let ink_no = f_no.fraction_matching(0, CAPTION_Y, WIDTH, CAPTION_H, |[r, g, b]| {
            r > 200 && g > 190 && b < 170
        });
        assert!(ink_no < ink / 4.0);
    }

    #[test]
    fn belgian_profile_shakes_the_camera_more() {
        let (g, _) = setup(RaceProfile::German);
        let (b, _) = setup(RaceProfile::Belgian);
        let vg = VideoSynth::new(&g);
        let vb = VideoSynth::new(&b);
        // Mean consecutive-frame difference averaged over *many* calm
        // spots: per-shot pan speed is random, so a single window would
        // compare pans, not camera shake.
        let calm_clips = |sc: &RaceScenario| -> Vec<usize> {
            (2..sc.n_clips.saturating_sub(2))
                .filter(|&c| {
                    (c - 1..=c + 1)
                        .all(|k| sc.is_live(k) && sc.event_at(k).is_none() && !sc.is_replay(k))
                })
                .step_by(37)
                .take(12)
                .collect()
        };
        let motion = |v: &VideoSynth, sc: &RaceScenario| -> f64 {
            let clips = calm_clips(sc);
            let mut acc = 0.0;
            let mut n = 0.0;
            for &c in &clips {
                let f0 = c * VIDEO_FPS / clips_per_second();
                for k in 0..3 {
                    acc += v.frame(f0 + k).mean_abs_diff(&v.frame(f0 + k + 1));
                    n += 1.0;
                }
            }
            acc / n
        };
        let mg = motion(&vg, &g);
        let mb = motion(&vb, &b);
        assert!(mb > mg, "belgian motion {mb} should exceed german {mg}");
    }
}
