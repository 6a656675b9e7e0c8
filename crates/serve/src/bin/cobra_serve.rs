//! The cobra-serve daemon.
//!
//! ```text
//! cobra-serve [--addr 127.0.0.1:7477] [--workers 8] [--queue-cap 32]
//!             [--data-dir PATH] [--demo SECONDS] [--seed N]
//!             [--stream-chunk SECONDS] [--stream-interval-ms N]
//!             [--idle-timeout-ms N] [--push-queue-cap N] [--sndbuf BYTES]
//!             [--debug]
//! ```
//!
//! `--idle-timeout-ms N` closes connections that stay silent for N
//! milliseconds (the reactor's timer wheel; off by default).
//! `--push-queue-cap N` bounds how many push frames a subscriber may
//! fall behind before the typed `slow_consumer` disconnect, and
//! `--sndbuf BYTES` clamps each connection's kernel send buffer so the
//! backpressure path is testable without gigabytes of queued data.
//!
//! `--data-dir PATH` makes the catalog durable: mutations are logged to
//! a write-ahead log under PATH before being acknowledged, a background
//! checkpointer snapshots dirty BATs, and boot replays the WAL tail over
//! the latest snapshot (the recovery outcome is logged to stderr).
//!
//! `--demo N` synthesizes an N-second German-profile broadcast and runs
//! the full ingest → train → annotate pipeline on it before listening,
//! so a fresh checkout has a queryable video named `german` without any
//! external data. `--seed N` overrides the scenario's RNG seed, so two
//! demo servers (or a demo server and a test) can agree on — or differ
//! in — the exact broadcast. Without an explicit `--data-dir`, `--demo`
//! persists to a per-process temp data dir so the durability path is
//! exercised out of the box. `--debug` enables the `sleep` and
//! `write_event` test commands.
//!
//! `--stream-chunk S` turns the demo into a *live race*: the server
//! starts listening immediately and the broadcast arrives in S-second
//! chunks through the incremental ingest path, one every
//! `--stream-interval-ms` (default 200). A `subscribe` issued while the
//! race streams in sees a push frame after each chunk that changes its
//! answer — this is the backing for the README's live-dashboard
//! quickstart and the CI stream smoke.
//!
//! The process serves until it receives a `quit` line on stdin (CI and
//! scripts use this for a graceful, draining shutdown) or is killed.

use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;

use cobra_serve::server::{start, ServerConfig};
use f1_cobra::{StoreConfig, Vdbms};
use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};

struct Cli {
    config: ServerConfig,
    demo: Option<usize>,
    data_dir: Option<PathBuf>,
    seed: Option<u64>,
    stream_chunk: Option<usize>,
    stream_interval_ms: u64,
}

fn parse_args() -> Result<Cli, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7477".into(),
        ..ServerConfig::default()
    };
    let mut demo = None;
    let mut data_dir = None;
    let mut seed = None;
    let mut stream_chunk = None;
    let mut stream_interval_ms = 200;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => config.addr = take("--addr")?,
            "--workers" => {
                config.workers = take("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue-cap" => {
                config.queue_cap = take("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--data-dir" => data_dir = Some(PathBuf::from(take("--data-dir")?)),
            "--demo" => {
                demo = Some(
                    take("--demo")?
                        .parse()
                        .map_err(|e| format!("--demo: {e}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    take("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--stream-chunk" => {
                stream_chunk = Some(
                    take("--stream-chunk")?
                        .parse()
                        .map_err(|e| format!("--stream-chunk: {e}"))?,
                )
            }
            "--stream-interval-ms" => {
                stream_interval_ms = take("--stream-interval-ms")?
                    .parse()
                    .map_err(|e| format!("--stream-interval-ms: {e}"))?
            }
            "--idle-timeout-ms" => {
                let ms: u64 = take("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--idle-timeout-ms must be at least 1".into());
                }
                config.idle_timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--push-queue-cap" => {
                config.push_queue_cap = take("--push-queue-cap")?
                    .parse()
                    .map_err(|e| format!("--push-queue-cap: {e}"))?
            }
            "--sndbuf" => {
                config.sndbuf = Some(
                    take("--sndbuf")?
                        .parse()
                        .map_err(|e| format!("--sndbuf: {e}"))?,
                )
            }
            "--debug" => config.debug = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if stream_chunk.is_some() && demo.is_none() {
        return Err("--stream-chunk needs --demo (it chunks the demo broadcast)".into());
    }
    if stream_chunk == Some(0) {
        return Err("--stream-chunk must be at least 1 second".into());
    }
    Ok(Cli {
        config,
        demo,
        data_dir,
        seed,
        stream_chunk,
        stream_interval_ms,
    })
}

/// The demo scenario config: the conventional German seed unless
/// `--seed` overrode it.
fn demo_config(seconds: usize, seed: Option<u64>) -> ScenarioConfig {
    let mut config = ScenarioConfig::new(RaceProfile::German, seconds);
    if let Some(seed) = seed {
        config.seed = seed;
    }
    config
}

fn prepare_demo(
    vdbms: &Vdbms,
    seconds: usize,
    seed: Option<u64>,
) -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("demo: synthesizing a {seconds}s German-profile broadcast");
    let scenario = RaceScenario::generate(demo_config(seconds, seed));
    let report = vdbms.ingest("german", &scenario)?;
    eprintln!(
        "demo: ingested {} clips ({} captions, {} keyword spots) via '{}'",
        report.n_clips, report.n_captions, report.n_keyword_spots, report.extraction_method
    );
    let windows = f1_cobra::training_windows(scenario.n_clips);
    vdbms.train_highlight_net("german", &scenario, &windows, true)?;
    let ann = vdbms.annotate("german", "av")?;
    eprintln!(
        "demo: annotated — {} highlights, {} excited-speech segments",
        ann.n_highlights, ann.n_excited
    );
    Ok(())
}

/// Feeds the demo broadcast through the incremental ingest path, one
/// chunk per interval, on a background thread — the "live race". Runs
/// after the server is already listening, so subscribers watch the
/// answer grow.
fn stream_demo(
    vdbms: Arc<Vdbms>,
    seconds: usize,
    seed: Option<u64>,
    chunk_s: usize,
    interval: std::time::Duration,
) {
    let spawned = std::thread::Builder::new()
        .name("cobra-demo-stream".into())
        .spawn(move || {
            eprintln!("demo: streaming a {seconds}s German-profile broadcast in {chunk_s}s chunks");
            let scenario = RaceScenario::generate(demo_config(seconds, seed));
            for chunk in scenario.chunks(chunk_s) {
                let index = chunk.index;
                match vdbms.ingest_chunk("german", &scenario, &chunk) {
                    Ok(report) => eprintln!(
                        "demo: chunk {} — {} clips, {} captions (data_version {})",
                        report.index, report.n_clips, report.n_captions, report.data_version
                    ),
                    Err(e) => {
                        eprintln!("demo: chunk {index} failed: {e}");
                        return;
                    }
                }
                if !chunk.is_last {
                    std::thread::sleep(interval);
                }
            }
            eprintln!("demo: stream complete");
        });
    if let Err(e) = spawned {
        eprintln!("cobra-serve: demo stream thread failed to start: {e}");
    }
}

fn main() {
    // One fd per connection is the whole per-connection story now, so
    // the soft nofile limit *is* the connection capacity.
    let _ = cobra_serve::raise_nofile_limit(65536);
    let cli = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("cobra-serve: {e}");
            std::process::exit(2);
        }
    };
    let Cli {
        config,
        demo,
        mut data_dir,
        seed,
        stream_chunk,
        stream_interval_ms,
    } = cli;
    // `--demo` without an explicit data dir still exercises the durable
    // path: persist to a per-process temp dir (kept after exit so a
    // crashed demo can be inspected and recovered by pointing
    // `--data-dir` at the logged path).
    if demo.is_some() && data_dir.is_none() {
        let dir = std::env::temp_dir().join(format!("cobra-demo-{}", std::process::id()));
        eprintln!("demo: persisting to {}", dir.display());
        data_dir = Some(dir);
    }
    let vdbms = match data_dir {
        Some(dir) => match Vdbms::open(&StoreConfig::new(&dir)) {
            Ok(v) => {
                if let Some(rec) = v.recovery_report() {
                    eprintln!(
                        "recovery: epoch {} — {} videos and {} BATs from snapshot, \
                         {} WAL records replayed ({} bytes across {} files){}",
                        rec.epoch,
                        rec.videos,
                        rec.bats_loaded,
                        rec.replayed,
                        rec.wal_bytes,
                        rec.wal_files,
                        if rec.torn_tail {
                            "; torn tail discarded"
                        } else {
                            ""
                        }
                    );
                }
                Arc::new(v)
            }
            Err(e) => {
                eprintln!(
                    "cobra-serve: opening data dir {} failed: {e}",
                    dir.display()
                );
                std::process::exit(1);
            }
        },
        None => Arc::new(Vdbms::new()),
    };
    let mut stream_pending = false;
    if let Some(seconds) = demo {
        // A recovered catalog already has the demo video: skip the
        // (expensive) pipeline and prove the data survived instead.
        if vdbms.catalog.videos().iter().any(|v| v == "german") {
            eprintln!("demo: 'german' recovered from the data dir; skipping re-ingest");
        } else if stream_chunk.is_some() {
            stream_pending = true; // starts after the server listens
        } else if let Err(e) = prepare_demo(&vdbms, seconds, seed) {
            eprintln!("cobra-serve: demo setup failed: {e}");
            std::process::exit(1);
        }
    }
    let stream_vdbms = Arc::clone(&vdbms);
    let handle = match start(vdbms, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cobra-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    // The readiness line scripts wait for; stdout, flushed by newline.
    println!("listening on {}", handle.addr());
    if stream_pending {
        if let (Some(seconds), Some(chunk_s)) = (demo, stream_chunk) {
            stream_demo(
                stream_vdbms,
                seconds,
                seed,
                chunk_s,
                std::time::Duration::from_millis(stream_interval_ms),
            );
        }
    }

    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(cmd) if matches!(cmd.trim(), "quit" | "shutdown") => {
                eprintln!("cobra-serve: draining and shutting down");
                handle.shutdown();
                return;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    // Stdin closed without a quit command (e.g. launched with
    // stdin < /dev/null): serve until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
