//! The experiments binary: regenerates every table and figure of the
//! paper's evaluation on the synthetic substrate.
//!
//! With no experiment names, everything runs. Traces for Fig. 9 are
//! written to `fig9_traces.json` next to the working directory. An
//! unknown name or an unparsable duration prints the usage line and
//! exits with status 2 before anything runs.

use std::time::Instant;

use f1_bench::experiments;
use f1_bench::{Races, DEFAULT_DURATION_S};
use f1_media::synth::scenario::RaceProfile;

/// The paper experiments that need the synthetic German GP.
const GERMAN: [&str; 12] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "ablation",
    "fig9",
    "temporal",
    "clustering",
    "keywords",
    "endpoint",
    "shots",
    "queries",
];
/// The experiments that need no synthetic broadcast.
const STANDALONE: [&str; 1] = ["hmm"];

fn usage_error(why: &str) -> ! {
    eprintln!("experiments: {why}");
    eprintln!(
        "usage: experiments [--duration SECONDS] [{} {}]",
        GERMAN.join(" "),
        STANDALONE.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut duration = DEFAULT_DURATION_S;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--duration" {
            duration = match args.next().map(|v| v.parse()) {
                Some(Ok(seconds)) => seconds,
                _ => usage_error("--duration needs a whole number of seconds"),
            };
            continue;
        }
        let name = arg.to_lowercase();
        if !GERMAN.contains(&name.as_str()) && !STANDALONE.contains(&name.as_str()) {
            usage_error(&format!("unknown experiment '{arg}'"));
        }
        selected.push(name);
    }
    let want = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);

    println!("# Cobra VDBMS — paper experiment reproduction");
    println!("# synthetic broadcasts of {duration} s per race (paper: ~90 min)\n");

    let t0 = Instant::now();
    // Skip the expensive ingests when only experiments that need no
    // synthetic broadcast were requested; the Belgian and USA races
    // when no cross-race table was.
    let mut profiles = Vec::new();
    if GERMAN.iter().any(|name| want(name)) {
        profiles.push(RaceProfile::German);
        if want("table2") || want("table4") {
            profiles.extend([RaceProfile::Belgian, RaceProfile::Usa]);
        }
    }
    let races = Races::ingest(&profiles, duration);

    // Table 1 trains the audio networks, Table 3 the audio-visual ones;
    // the experiments that reuse them find them installed.
    if want("table1") || want("table2") || want("fig9") || want("clustering") {
        let table = experiments::table1(&races);
        if want("table1") {
            println!("{table}");
        }
    }
    if want("table2") {
        println!("{}", experiments::table2(&races));
    }
    if want("table3") || want("table4") || want("ablation") || want("queries") {
        let table = experiments::table3(&races);
        if want("table3") {
            println!("{table}");
        }
    }
    if want("table4") {
        println!("{}", experiments::table4(&races));
    }
    if want("ablation") {
        println!("{}", experiments::ablation(&races));
    }
    if want("fig9") {
        let (table, bn_trace, dbn_trace) = experiments::fig9(&races);
        println!("{table}");
        let json = serde_json::json!({
            "bn": bn_trace,
            "dbn": dbn_trace,
        });
        if std::fs::write("fig9_traces.json", json.to_string()).is_ok() {
            println!("(traces written to fig9_traces.json)");
        }
    }
    if want("temporal") {
        println!("{}", experiments::temporal(&races));
    }
    if want("clustering") {
        println!("{}", experiments::clustering(&races));
    }
    if want("keywords") {
        println!("{}", experiments::keywords(races.scenario("german")));
    }
    if want("endpoint") {
        println!("{}", experiments::endpoint(races.scenario("german")));
    }
    if want("shots") {
        println!("{}", experiments::shots(races.scenario("german")));
    }
    if want("hmm") {
        println!("{}", experiments::hmm_parallel());
    }
    if want("queries") {
        println!("{}", experiments::queries(&races));
    }

    eprintln!("\ntotal wall time: {:.1}s", t0.elapsed().as_secs_f64());
}
