//! Quickstart: boot the Cobra VDBMS, ingest a synthetic Formula 1
//! broadcast, train the audio-visual highlight network, annotate, and run
//! a few of the paper's §5.6 retrieval queries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use f1_cobra::Vdbms;
use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};
use f1_media::time::clips_per_second;

fn main() {
    // A 3-minute German-GP-style broadcast (use 600+ s for real runs).
    let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 180));
    println!(
        "generated a {}s broadcast: {} events, {} replays, {} captions",
        scenario.config.duration_s,
        scenario.events.len(),
        scenario.replays.len(),
        scenario.captions.len()
    );

    // Boot the VDBMS (Monet kernel + HMM and DBN extension modules).
    let vdbms = Vdbms::new();

    // Ingest: keyword spotting, feature extraction, text recognition.
    let report = vdbms
        .ingest("german", &scenario)
        .expect("ingestion succeeds");
    println!(
        "ingested {} clips: {} keyword spots, {} captions recognized",
        report.n_clips, report.n_keyword_spots, report.n_captions
    );

    // Train the audio-visual DBN on six 50-second windows (§5.5) and
    // annotate the whole broadcast.
    let windows = f1_cobra::training_windows(scenario.n_clips);
    vdbms
        .train_highlight_net("german", &scenario, &windows, true)
        .expect("training succeeds");
    let ann = vdbms.annotate("german", "av").expect("annotation succeeds");
    println!(
        "annotated: {} highlights, {} sub-events, {} excited-speech segments",
        ann.n_highlights, ann.n_sub_events, ann.n_excited
    );

    // Retrieval (§5.6).
    let cps = clips_per_second();
    for query in [
        "RETRIEVE HIGHLIGHTS",
        "RETRIEVE EVENTS FLY_OUT",
        "RETRIEVE PITSTOPS",
        "RETRIEVE WINNER",
        "RETRIEVE EXCITED",
    ] {
        let results = vdbms.query("german", query).expect("query parses");
        println!("\n{query} -> {} segment(s)", results.len());
        for seg in results.iter().take(5) {
            println!(
                "  [{:>6.1}s, {:>6.1}s) {}{}",
                seg.start as f64 / cps as f64,
                seg.end as f64 / cps as f64,
                seg.label,
                seg.driver
                    .as_deref()
                    .map(|d| format!(" — {d}"))
                    .unwrap_or_default()
            );
        }
    }
}
