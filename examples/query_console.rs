//! A small retrieval console: builds the annotated German GP once, then
//! answers queries from the command line (or a demo set).
//!
//! ```text
//! cargo run --release --example query_console
//! cargo run --release --example query_console -- 'RETRIEVE EVENTS FLY_OUT'
//! ```

use f1_cobra::Vdbms;
use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig, Span};
use f1_media::time::clips_per_second;

fn main() {
    let queries: Vec<String> = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.is_empty() {
            [
                "RETRIEVE HIGHLIGHTS",
                r#"RETRIEVE SEGMENTS WITH DRIVER "SCHUMACHER""#,
                r#"RETRIEVE LEADER"#,
                "RETRIEVE EVENTS START",
                "RETRIEVE EVENTS FLY_OUT",
                "RETRIEVE PITSTOPS",
                "RETRIEVE FINALLAP",
                "RETRIEVE WINNER",
                "RETRIEVE EXCITED AT PITLANE",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect()
        } else {
            args
        }
    };

    eprintln!("building the annotated broadcast (~1 min)…");
    let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 240));
    let vdbms = Vdbms::new();
    vdbms.ingest("german", &scenario).expect("ingest");
    let cps = clips_per_second();
    let windows: Vec<Span> = (0..6)
        .map(|k| {
            let start = k * scenario.n_clips / 7;
            Span::new(start, (start + 40 * cps).min(scenario.n_clips))
        })
        .collect();
    vdbms
        .train_highlight_net("german", &scenario, &windows, true)
        .expect("train");
    vdbms.annotate("german", "av").expect("annotate");

    for q in queries {
        match vdbms.query("german", &q) {
            Ok(results) => {
                println!("\n> {q}\n  {} segment(s)", results.len());
                for seg in results.iter().take(8) {
                    println!(
                        "  [{:>6.1}s, {:>6.1}s) {:<14} {}",
                        seg.start as f64 / cps as f64,
                        seg.end as f64 / cps as f64,
                        seg.label,
                        seg.driver.as_deref().unwrap_or("")
                    );
                }
            }
            Err(e) => println!("\n> {q}\n  error: {e}"),
        }
    }
}
