//! The ground-truth race timeline.
//!
//! A [`RaceScenario`] is drawn from a seeded RNG and a [`RaceProfile`]
//! that mimics one of the paper's three races. It records, on the 0.1 s
//! clip grid, everything the evaluation needs: the start, passings,
//! fly-outs, pit stops, replays, announcer speech and excitement,
//! keywords, superimposed captions, camera cuts and the evolving
//! classification. The audio/video synthesizers render raw signals from
//! it, and the experiments score detections against it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::{clips_in_seconds, clips_per_second, VIDEO_FPS};

/// The 2001 drivers used by captions and queries.
pub const DRIVERS: [&str; 8] = [
    "SCHUMACHER",
    "BARRICHELLO",
    "HAKKINEN",
    "COULTHARD",
    "MONTOYA",
    "RALF",
    "VILLENEUVE",
    "TRULLI",
];

/// A driver index into [`DRIVERS`].
pub type DriverId = usize;

/// One of the paper's three evaluation races. Profiles differ in event
/// statistics and, crucially, *camera work*: the paper attributes the
/// passing sub-network's failure outside the German GP to different
/// camera work, so the Belgian and USA profiles jitter the camera and
/// decorrelate the motion cue from actual passings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceProfile {
    /// Steady camera work; passings, fly-outs.
    German,
    /// Hectic camera work; the motion cue fires spuriously.
    Belgian,
    /// Moderate camera work; **no fly-outs** (the paper's footnote 3).
    Usa,
}

impl RaceProfile {
    fn params(self) -> ProfileParams {
        match self {
            RaceProfile::German => ProfileParams {
                passing_every_s: 80,
                n_fly_outs: 3,
                camera_jitter: 0.08,
                passing_motion_fidelity: 0.9,
                catch_rate: 0.85,
            },
            RaceProfile::Belgian => ProfileParams {
                passing_every_s: 95,
                n_fly_outs: 3,
                camera_jitter: 0.55,
                passing_motion_fidelity: 0.25,
                catch_rate: 0.8,
            },
            RaceProfile::Usa => ProfileParams {
                passing_every_s: 110,
                n_fly_outs: 0,
                camera_jitter: 0.3,
                passing_motion_fidelity: 0.45,
                catch_rate: 0.8,
            },
        }
    }

    /// Lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RaceProfile::German => "german",
            RaceProfile::Belgian => "belgian",
            RaceProfile::Usa => "usa",
        }
    }
}

struct ProfileParams {
    passing_every_s: usize,
    n_fly_outs: usize,
    camera_jitter: f64,
    passing_motion_fidelity: f64,
    catch_rate: f64,
}

/// Scenario generation parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Which race to imitate.
    pub profile: RaceProfile,
    /// RNG seed; equal configs generate identical scenarios.
    pub seed: u64,
    /// Broadcast duration in seconds (the real races run ≈ 5400 s; the
    /// experiments use shorter cuts).
    pub duration_s: usize,
}

impl ScenarioConfig {
    /// A scenario config with the conventional seed for a profile.
    pub fn new(profile: RaceProfile, duration_s: usize) -> Self {
        // Grouped as 0xF1_YYYY_MM: the 2001 race dates, not byte boundaries.
        #[allow(clippy::unusual_byte_groupings)]
        let seed = match profile {
            RaceProfile::German => 0xF1_2001_07,
            RaceProfile::Belgian => 0xF1_2001_09,
            RaceProfile::Usa => 0xF1_2001_10,
        };
        ScenarioConfig {
            profile,
            seed,
            duration_s,
        }
    }
}

/// A half-open clip interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First clip.
    pub start: usize,
    /// One past the last clip.
    pub end: usize,
}

impl Span {
    /// Creates a span.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(end >= start);
        Span { start, end }
    }

    /// True when `clip` falls inside.
    pub fn contains(&self, clip: usize) -> bool {
        (self.start..self.end).contains(&clip)
    }

    /// Length in clips.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the span is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A race event with its span and the driver involved (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// When (clip grid).
    pub span: Span,
    /// Primary driver involved.
    pub driver: Option<DriverId>,
}

/// Event kinds the audio-visual DBN classifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The race start.
    Start,
    /// One car passing another.
    Passing,
    /// A car leaving the track into sand/gravel.
    FlyOut,
    /// A pit stop.
    PitStop,
}

/// Semantic class of a superimposed caption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptionKind {
    /// Running order (one line: position + driver).
    Classification,
    /// "PIT STOP <driver>".
    PitStop,
    /// "FASTEST LAP <driver> <time>".
    FastestLap,
    /// "FINAL LAP".
    FinalLap,
    /// "WINNER <driver>".
    Winner,
}

/// A caption overlay: the exact text drawn on the frames.
#[derive(Debug, Clone, PartialEq)]
pub struct Caption {
    /// Semantic class.
    pub kind: CaptionKind,
    /// Rendered text.
    pub text: String,
    /// First video frame showing the caption.
    pub start_frame: usize,
    /// One past the last video frame.
    pub end_frame: usize,
    /// Driver the caption is about, if any.
    pub driver: Option<DriverId>,
}

/// A replay: the span it airs in and the event footage it re-shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    /// When the replay airs.
    pub span: Span,
    /// The original footage being replayed.
    pub source: Span,
}

/// A keyword utterance in the commentary.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordHit {
    /// The word.
    pub word: String,
    /// Clip at which it is spoken.
    pub clip: usize,
}

/// A complete ground-truth race timeline.
#[derive(Debug, Clone)]
pub struct RaceScenario {
    /// Generation parameters.
    pub config: ScenarioConfig,
    /// Number of clips in the broadcast.
    pub n_clips: usize,
    /// All race events (start, passings, fly-outs, pit stops), by time.
    pub events: Vec<Event>,
    /// Replays (always re-showing interesting events).
    pub replays: Vec<Replay>,
    /// Spans where the announcer speaks.
    pub speech: Vec<Span>,
    /// Spans where the announcer is *excited* (ground truth for the audio
    /// DBN experiments).
    pub excited: Vec<Span>,
    /// Keyword utterances.
    pub keywords: Vec<KeywordHit>,
    /// Superimposed captions.
    pub captions: Vec<Caption>,
    /// Video frames at which a camera cut occurs (shot boundaries).
    pub shot_cuts: Vec<usize>,
    /// Clip at which the race goes live (start) and ends.
    pub live: Span,
    /// Classification snapshots `(clip, order)` — order[p] = driver at
    /// position p+1. The first snapshot is the grid order.
    pub standings: Vec<(usize, Vec<DriverId>)>,
    /// Camera jitter in `[0, 1]` (profile dependent; drives the motion
    /// cue's noise).
    pub camera_jitter: f64,
    /// How faithfully the motion cue tracks passings in `[0, 1]`.
    pub passing_motion_fidelity: f64,
}

impl RaceScenario {
    /// Generates a scenario from a config.
    pub fn generate(config: ScenarioConfig) -> Self {
        let params = config.profile.params();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let cps = clips_per_second();
        let n_clips = clips_in_seconds(config.duration_s);

        // --- race events -------------------------------------------------
        let mut events = Vec::new();
        // Start: 10–20 s into the broadcast, 6–9 s long.
        let start_at = rng.gen_range(10 * cps..20 * cps).min(n_clips / 4);
        let start_len = rng.gen_range(6 * cps..9 * cps);
        let start_span = Span::new(start_at, (start_at + start_len).min(n_clips));
        events.push(Event {
            kind: EventKind::Start,
            span: start_span,
            driver: None,
        });

        let live_end = n_clips.saturating_sub(5 * cps);
        let live = Span::new(start_at, live_end);

        // Passings.
        let mut t = start_span.end + rng.gen_range(10 * cps..30 * cps);
        while t + 14 * cps < live_end {
            let len = rng.gen_range(7 * cps..12 * cps);
            events.push(Event {
                kind: EventKind::Passing,
                span: Span::new(t, t + len),
                driver: Some(rng.gen_range(0..DRIVERS.len())),
            });
            t += len
                + rng.gen_range(
                    params.passing_every_s * cps / 2..params.passing_every_s * cps * 3 / 2,
                );
        }

        // Fly-outs: spread over the live race, avoiding other events.
        for _ in 0..params.n_fly_outs {
            let len = rng.gen_range(7 * cps..12 * cps);
            if let Some(at) = place_gap(&mut rng, &events, start_span.end, live_end, len, 4 * cps) {
                events.push(Event {
                    kind: EventKind::FlyOut,
                    span: Span::new(at, at + len),
                    driver: Some(rng.gen_range(0..DRIVERS.len())),
                });
            }
        }

        // Pit stops: 2–4, drivers distinct where possible.
        let n_pits = rng.gen_range(2..=4);
        for i in 0..n_pits {
            let len = rng.gen_range(4 * cps..7 * cps);
            if let Some(at) = place_gap(&mut rng, &events, start_span.end, live_end, len, 4 * cps) {
                events.push(Event {
                    kind: EventKind::PitStop,
                    span: Span::new(at, at + len),
                    driver: Some(i % DRIVERS.len()),
                });
            }
        }
        events.sort_by_key(|e| e.span.start);

        // --- replays ------------------------------------------------------
        let mut replays = Vec::new();
        for e in &events {
            if e.kind == EventKind::PitStop {
                continue; // pit stops are rarely replayed
            }
            if rng.gen_bool(0.8) {
                let delay = rng.gen_range(3 * cps..8 * cps);
                let at = e.span.end + delay;
                let len = e.span.len().min(10 * cps);
                if at + len < n_clips {
                    replays.push(Replay {
                        span: Span::new(at, at + len),
                        source: Span::new(e.span.start, e.span.start + len),
                    });
                }
            }
        }

        // --- commentary ---------------------------------------------------
        // Announcer speech: alternating talk spans and pauses.
        let mut speech = Vec::new();
        let mut t = rng.gen_range(0..3 * cps);
        while t < n_clips {
            let talk = rng.gen_range(5 * cps..20 * cps);
            let end = (t + talk).min(n_clips);
            speech.push(Span::new(t, end));
            t = end + rng.gen_range(cps..5 * cps);
        }

        // Excitement: events the announcer catches, plus spontaneous
        // bursts.
        let mut excited = Vec::new();
        for e in &events {
            if e.kind == EventKind::PitStop {
                continue;
            }
            if rng.gen_bool(params.catch_rate) {
                let lead = rng.gen_range(0..2 * cps);
                let tail = rng.gen_range(cps..4 * cps);
                let s = e.span.start.saturating_sub(lead);
                let end = (e.span.end + tail).min(n_clips);
                excited.push(Span::new(s, end));
            }
        }
        let spontaneous = config.duration_s / 300; // ~1 per 5 minutes
        for _ in 0..spontaneous {
            let len = rng.gen_range(3 * cps..6 * cps);
            if let Some(at) = place_gap_spans(&mut rng, &excited, 0, n_clips, len, 10 * cps) {
                excited.push(Span::new(at, at + len));
            }
        }
        excited.sort_by_key(|s| s.start);
        // Excitement implies speech.
        for s in &excited {
            speech.push(*s);
        }
        speech.sort_by_key(|s| s.start);
        let speech = merge_spans(&speech);
        let excited = merge_spans(&excited);

        // Keywords: clustered inside excited spans, occasional elsewhere.
        const WORDS: [&str; 8] = [
            "INCREDIBLE",
            "OVERTAKE",
            "CRASH",
            "GRAVEL",
            "LEADER",
            "PITSTOP",
            "FASTEST",
            "ATTACK",
        ];
        let mut keywords = Vec::new();
        for s in &excited {
            let n = rng.gen_range(1..=3);
            for _ in 0..n {
                let clip = rng.gen_range(s.start..s.end.max(s.start + 1));
                keywords.push(KeywordHit {
                    word: WORDS[rng.gen_range(0..WORDS.len())].to_string(),
                    clip,
                });
            }
        }
        for s in &speech {
            if rng.gen_bool(0.25) && s.len() > 2 {
                keywords.push(KeywordHit {
                    word: WORDS[rng.gen_range(0..WORDS.len())].to_string(),
                    clip: rng.gen_range(s.start..s.end),
                });
            }
        }
        keywords.sort_by_key(|k| k.clip);

        // --- standings & captions ------------------------------------------
        let mut order: Vec<DriverId> = (0..DRIVERS.len()).collect();
        let mut standings = vec![(0usize, order.clone())];
        for e in &events {
            if e.kind == EventKind::Passing {
                // The passing driver gains one position.
                if let Some(d) = e.driver {
                    if let Some(pos) = order.iter().position(|&x| x == d) {
                        if pos > 0 {
                            order.swap(pos, pos - 1);
                            standings.push((e.span.end, order.clone()));
                        }
                    }
                }
            }
        }

        let fps = VIDEO_FPS;
        let clip_to_frame = |clip: usize| clip * fps / cps;
        let mut captions = Vec::new();
        // Periodic classification captions (leader line).
        let mut t = start_span.end + 20 * cps;
        while t + 4 * cps < live_end {
            let order_at = standings
                .iter()
                .rev()
                .find(|(c, _)| *c <= t)
                .map(|(_, o)| o.clone())
                .unwrap_or_else(|| (0..DRIVERS.len()).collect());
            let leader = order_at[0];
            captions.push(Caption {
                kind: CaptionKind::Classification,
                text: format!("1 {}", DRIVERS[leader]),
                start_frame: clip_to_frame(t),
                end_frame: clip_to_frame(t + 4 * cps),
                driver: Some(leader),
            });
            t += rng.gen_range(90 * cps..150 * cps);
        }
        // Pit stop captions.
        for e in &events {
            if e.kind == EventKind::PitStop {
                if let Some(d) = e.driver {
                    captions.push(Caption {
                        kind: CaptionKind::PitStop,
                        text: format!("PIT STOP {}", DRIVERS[d]),
                        start_frame: clip_to_frame(e.span.start),
                        end_frame: clip_to_frame(e.span.end),
                        driver: Some(d),
                    });
                }
            }
        }
        // Fastest lap somewhere mid-race.
        if live.len() > 120 * cps {
            let at = live.start + live.len() / 2;
            let d = order[rng.gen_range(0..3)];
            captions.push(Caption {
                kind: CaptionKind::FastestLap,
                text: format!(
                    "FASTEST LAP {} 1:1{}.{}",
                    DRIVERS[d],
                    rng.gen_range(0..9),
                    rng.gen_range(0..9)
                ),
                start_frame: clip_to_frame(at),
                end_frame: clip_to_frame(at + 4 * cps),
                driver: Some(d),
            });
        }
        // Final lap + winner at the end.
        if live.len() > 60 * cps {
            let fl = live_end.saturating_sub(30 * cps);
            captions.push(Caption {
                kind: CaptionKind::FinalLap,
                text: "FINAL LAP".to_string(),
                start_frame: clip_to_frame(fl),
                end_frame: clip_to_frame(fl + 3 * cps),
                driver: None,
            });
            let winner = order[0];
            captions.push(Caption {
                kind: CaptionKind::Winner,
                text: format!("WINNER {}", DRIVERS[winner]),
                start_frame: clip_to_frame(live_end),
                end_frame: clip_to_frame((live_end + 5 * cps).min(n_clips)),
                driver: Some(winner),
            });
        }
        captions.sort_by_key(|c| c.start_frame);
        // The producer shows one caption at a time: later captions that
        // would overlap an earlier one are dropped.
        let mut kept: Vec<Caption> = Vec::with_capacity(captions.len());
        for c in captions {
            if kept
                .last()
                .is_none_or(|prev: &Caption| c.start_frame >= prev.end_frame)
            {
                kept.push(c);
            }
        }
        let captions = kept;

        // --- camera cuts ----------------------------------------------------
        let n_frames = n_clips * fps / cps;
        let mut shot_cuts = Vec::new();
        let mut f = rng.gen_range(2 * fps..6 * fps);
        while f < n_frames {
            shot_cuts.push(f);
            // Faster cutting during events.
            let clip = f * cps / fps;
            let busy = events.iter().any(|e| e.span.contains(clip));
            let gap_s = if busy {
                rng.gen_range(2..5)
            } else {
                rng.gen_range(4..11)
            };
            f += gap_s * fps + rng.gen_range(0..fps);
        }

        RaceScenario {
            config,
            n_clips,
            events,
            replays,
            speech,
            excited,
            keywords,
            captions,
            shot_cuts,
            live,
            standings,
            camera_jitter: params.camera_jitter,
            passing_motion_fidelity: params.passing_motion_fidelity,
        }
    }

    /// Ground-truth *highlight* spans: every event plus every replay plus
    /// the announcer's excited follow-through on those events, merged —
    /// the paper counts replay scenes among the interesting segments, and
    /// an interesting segment runs as long as the commentary carries it.
    pub fn highlights(&self) -> Vec<Span> {
        let event_spans: Vec<Span> = self
            .events
            .iter()
            .filter(|e| e.kind != EventKind::PitStop)
            .map(|e| e.span)
            .collect();
        let mut spans: Vec<Span> = event_spans
            .iter()
            .copied()
            .chain(self.replays.iter().map(|r| r.span))
            .chain(self.excited.iter().copied().filter(|x| {
                event_spans
                    .iter()
                    .any(|e| e.start < x.end && x.start < e.end)
            }))
            .collect();
        spans.sort_by_key(|s| s.start);
        merge_spans(&spans)
    }

    /// Event spans of one kind.
    pub fn events_of(&self, kind: EventKind) -> Vec<Span> {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.span)
            .collect()
    }

    /// True when the announcer speaks during `clip`.
    pub fn is_speech(&self, clip: usize) -> bool {
        self.speech.iter().any(|s| s.contains(clip))
    }

    /// True when the announcer is excited during `clip`.
    pub fn is_excited(&self, clip: usize) -> bool {
        self.excited.iter().any(|s| s.contains(clip))
    }

    /// True when a replay is on air during `clip`.
    pub fn is_replay(&self, clip: usize) -> bool {
        self.replays.iter().any(|r| r.span.contains(clip))
    }

    /// True when the race is live (between start and finish).
    pub fn is_live(&self, clip: usize) -> bool {
        self.live.contains(clip)
    }

    /// The event (if any) covering `clip`.
    pub fn event_at(&self, clip: usize) -> Option<&Event> {
        self.events.iter().find(|e| e.span.contains(clip))
    }

    /// The classification in force at `clip` (positions → drivers).
    pub fn standings_at(&self, clip: usize) -> &[DriverId] {
        &self
            .standings
            .iter()
            .rev()
            .find(|(c, _)| *c <= clip)
            .unwrap_or(&self.standings[0])
            .1
    }

    /// Total number of video frames.
    pub fn n_frames(&self) -> usize {
        self.n_clips * VIDEO_FPS / clips_per_second()
    }
}

/// Finds a start clip for a span of `len` that keeps `margin` clips of
/// distance from every existing event.
fn place_gap(
    rng: &mut StdRng,
    events: &[Event],
    lo: usize,
    hi: usize,
    len: usize,
    margin: usize,
) -> Option<usize> {
    let spans: Vec<Span> = events.iter().map(|e| e.span).collect();
    place_gap_spans(rng, &spans, lo, hi, len, margin)
}

fn place_gap_spans(
    rng: &mut StdRng,
    spans: &[Span],
    lo: usize,
    hi: usize,
    len: usize,
    margin: usize,
) -> Option<usize> {
    if hi <= lo + len {
        return None;
    }
    for _ in 0..64 {
        let at = rng.gen_range(lo..hi - len);
        let candidate = Span::new(at.saturating_sub(margin), at + len + margin);
        if !spans
            .iter()
            .any(|s| s.start < candidate.end && candidate.start < s.end)
        {
            return Some(at);
        }
    }
    None
}

/// Merges overlapping or touching spans (input sorted by start).
pub fn merge_spans(spans: &[Span]) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::with_capacity(spans.len());
    for &s in spans {
        match out.last_mut() {
            Some(last) if s.start <= last.end => {
                last.end = last.end.max(s.end);
            }
            _ => out.push(s),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(profile: RaceProfile) -> RaceScenario {
        RaceScenario::generate(ScenarioConfig::new(profile, 600))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = scenario(RaceProfile::German);
        let b = scenario(RaceProfile::German);
        assert_eq!(a.events, b.events);
        assert_eq!(a.captions, b.captions);
        assert_eq!(a.shot_cuts, b.shot_cuts);
    }

    #[test]
    fn different_seeds_differ() {
        let a = scenario(RaceProfile::German);
        let mut cfg = ScenarioConfig::new(RaceProfile::German, 600);
        cfg.seed ^= 0xDEADBEEF;
        let b = RaceScenario::generate(cfg);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn exactly_one_start_near_the_beginning() {
        for p in [RaceProfile::German, RaceProfile::Belgian, RaceProfile::Usa] {
            let s = scenario(p);
            let starts = s.events_of(EventKind::Start);
            assert_eq!(starts.len(), 1, "{p:?}");
            assert!(starts[0].start < s.n_clips / 4);
            assert_eq!(starts[0].start, s.live.start);
        }
    }

    #[test]
    fn usa_has_no_fly_outs_german_and_belgian_do() {
        assert!(
            scenario(RaceProfile::German)
                .events_of(EventKind::FlyOut)
                .len()
                >= 2
        );
        assert!(!scenario(RaceProfile::Belgian)
            .events_of(EventKind::FlyOut)
            .is_empty());
        assert!(scenario(RaceProfile::Usa)
            .events_of(EventKind::FlyOut)
            .is_empty());
    }

    #[test]
    fn events_are_ordered_and_inside_the_broadcast() {
        let s = scenario(RaceProfile::German);
        for w in s.events.windows(2) {
            assert!(w[0].span.start <= w[1].span.start);
        }
        for e in &s.events {
            assert!(e.span.end <= s.n_clips);
        }
    }

    #[test]
    fn excitement_mostly_covers_events() {
        let s = scenario(RaceProfile::German);
        let interesting: Vec<&Event> = s
            .events
            .iter()
            .filter(|e| e.kind != EventKind::PitStop)
            .collect();
        let caught = interesting
            .iter()
            .filter(|e| (e.span.start..e.span.end).any(|c| s.is_excited(c)))
            .count();
        assert!(
            caught * 10 >= interesting.len() * 6,
            "only {caught}/{} events caught",
            interesting.len()
        );
    }

    #[test]
    fn excitement_implies_speech() {
        let s = scenario(RaceProfile::Belgian);
        for clip in (0..s.n_clips).step_by(7) {
            if s.is_excited(clip) {
                assert!(s.is_speech(clip), "excited but silent at clip {clip}");
            }
        }
    }

    #[test]
    fn keywords_lie_inside_the_broadcast_and_cluster_in_excitement() {
        let s = scenario(RaceProfile::German);
        assert!(!s.keywords.is_empty());
        for k in &s.keywords {
            assert!(k.clip < s.n_clips);
        }
        let in_excited = s.keywords.iter().filter(|k| s.is_excited(k.clip)).count();
        assert!(in_excited * 2 > s.keywords.len());
    }

    #[test]
    fn highlights_merge_events_and_replays() {
        let s = scenario(RaceProfile::German);
        let hl = s.highlights();
        assert!(!hl.is_empty());
        for w in hl.windows(2) {
            assert!(w[0].end < w[1].start, "highlight spans must be disjoint");
        }
        // Every replay clip is inside a highlight.
        for r in &s.replays {
            assert!(hl
                .iter()
                .any(|h| h.start <= r.span.start && r.span.end <= h.end));
            // Replays re-show footage of the same length.
            assert_eq!(r.span.len(), r.source.len());
            assert!(r.source.start < r.span.start);
        }
    }

    #[test]
    fn captions_include_pit_stops_and_winner() {
        let s = scenario(RaceProfile::German);
        assert!(s.captions.iter().any(|c| c.kind == CaptionKind::PitStop));
        assert!(s.captions.iter().any(|c| c.kind == CaptionKind::Winner));
        assert!(s
            .captions
            .iter()
            .any(|c| c.kind == CaptionKind::Classification));
        for c in &s.captions {
            assert!(c.start_frame < c.end_frame);
            assert!(c.end_frame <= s.n_frames());
            // Text must be renderable by the caption font.
            for ch in c.text.chars() {
                assert!(crate::font::glyph(ch).is_some(), "unrenderable '{ch}'");
            }
        }
    }

    #[test]
    fn standings_evolve_with_passings() {
        let s = scenario(RaceProfile::German);
        assert!(s.standings.len() > 1, "passings should reshuffle standings");
        let first = s.standings_at(0).to_vec();
        let last = s.standings_at(s.n_clips - 1).to_vec();
        assert_eq!(first.len(), DRIVERS.len());
        assert_ne!(first, last);
        // Standings are always a permutation.
        let mut sorted = last.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..DRIVERS.len()).collect::<Vec<_>>());
    }

    #[test]
    fn shot_cuts_are_strictly_increasing_within_bounds() {
        let s = scenario(RaceProfile::Belgian);
        assert!(s.shot_cuts.len() > 20);
        for w in s.shot_cuts.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(*s.shot_cuts.last().unwrap() < s.n_frames());
    }

    #[test]
    fn profiles_differ_in_camera_work() {
        let g = scenario(RaceProfile::German);
        let b = scenario(RaceProfile::Belgian);
        assert!(g.camera_jitter < b.camera_jitter);
        assert!(g.passing_motion_fidelity > b.passing_motion_fidelity);
    }

    #[test]
    fn merge_spans_joins_overlaps() {
        let spans = [Span::new(0, 10), Span::new(5, 15), Span::new(20, 25)];
        assert_eq!(
            merge_spans(&spans),
            vec![Span::new(0, 15), Span::new(20, 25)]
        );
    }
}
