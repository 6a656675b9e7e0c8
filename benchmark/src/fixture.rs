//! The four workloads and the systems they run against.
//!
//! A fixture is built only through public functions (`Vdbms`, the
//! catalog, `server::start`, `router::start`) and is the same for every
//! seed; what the seed changes is the order of requests sent to it.
//! Sizes are chosen against the program's own caches: the result cache
//! of a `Vdbms` and the router's cache each hold 512 answers.
//!
//! Every workload has one video the session appends to. On `mixed_rw`
//! it is also the video the session reads; on the others only the
//! cross-video reads and the standing query touch it.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cobra_serve::client::Client;
use cobra_serve::router::{self, RouterConfig, RouterHandle};
use cobra_serve::server::{self, ServerConfig, ServerHandle};
use cobra_serve::{Ring, DEFAULT_SEED};
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::{FsyncPolicy, StoreConfig, Vdbms};
use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};
use f1_media::time::{clips_per_second, VIDEO_FPS};

use crate::gen::{Popularity, Statement};

/// Two workers per server, as `cobra-serve` would be started on the
/// recorded two-processor host. The run itself is confined to one
/// processor and has one operation in flight (`main.rs`), so the second
/// worker is there and idle.
const WORKERS: usize = 2;

/// Group commit: `fdatasync` every 32 WAL records, the same on every
/// commit compared. `Always` would make the run a benchmark of the
/// sandbox's disk flush.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(32);

/// The standing query of the writer thread, and the driver tag that
/// makes a write change its answer.
pub const SUB_TEXT: &str = "RETRIEVE PITSTOPS WITH DRIVER \"SUB\"";
pub const SUB_DRIVER: &str = "SUB";

/// Seconds of synthetic German GP broadcast `mixed_rw` ingests through
/// the extraction pipeline, and the window it arrives in.
const BROADCAST_S: usize = 10;
const CHUNK_S: usize = 5;

/// Upper bound on any single reply or push; reaching it is a failed
/// operation, never a hang.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

pub const WORKLOADS: [&str; 4] = ["serve_cold", "serve_hot", "mixed_rw", "routed"];

/// A video filled with synthetic events instead of an ingested one.
struct SyntheticVideo {
    name: String,
    clips: usize,
    drivers: usize,
}

/// What one workload runs: the system to build and the load to send.
pub struct Spec {
    pub name: &'static str,
    videos: Vec<SyntheticVideo>,
    /// Ingest a broadcast into `write_video` through the real pipeline
    /// and keep the catalog on disk.
    durable: bool,
    /// Two shards behind a router instead of one server.
    routed: bool,
    /// The video the writer thread appends to and subscribes on.
    pub write_video: String,
    /// The reader's statement table, most popular first.
    pub statements: Vec<Statement>,
    pub popularity: Popularity,
    /// Texts of the writer's cross-video reads, all driver-filtered: a
    /// table that mixed them with the unfiltered ones would give the
    /// few samples of a window two latency modes and no stable median.
    pub scatter_texts: Vec<String>,
}

const TARGETS: [&str; 3] = ["HIGHLIGHTS", "EXCITED", "PITSTOPS"];

/// `3 × drivers` driver-filtered texts.
fn filtered_texts(drivers: usize) -> Vec<String> {
    (0..drivers)
        .flat_map(|d| {
            TARGETS
                .iter()
                .map(move |t| format!("RETRIEVE {t} WITH DRIVER \"D{d}\""))
        })
        .collect()
}

/// A small video: 1,800 clips, 600 events, 4 drivers. A driver-filtered
/// answer has 50 rows and an unfiltered one 200, so a served read is a
/// few hundred microseconds of encoding, framing and decoding rather
/// than four thread hand-offs, which on a shared host do not repeat.
fn small_video(name: &str) -> SyntheticVideo {
    SyntheticVideo {
        name: name.to_string(),
        clips: 1800,
        drivers: 4,
    }
}

/// The 15-statement table of one small video, most popular first: the
/// three unfiltered statements sit at ranks 2–4, where a Zipf(1.0)
/// reader sends about a quarter of its requests. The median read is a
/// 50-row answer and the 95th percentile a 200-row one, each well
/// inside its own mode.
fn small_table(video: &str) -> Vec<Statement> {
    let mut texts = filtered_texts(4);
    for (i, target) in TARGETS.iter().enumerate() {
        texts.insert(2 + i, format!("RETRIEVE {target}"));
    }
    on_video(video, texts)
}

fn on_video(video: &str, texts: Vec<String>) -> Vec<Statement> {
    texts
        .into_iter()
        .map(|text| Statement {
            video: video.to_string(),
            text,
        })
        .collect()
}

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        Some(match name {
            // 12,288 statements against a 512-entry cache: ≈4 % hits,
            // so every read plans, evaluates MIL and runs the kernel
            // over a race-length video.
            "serve_cold" => Spec {
                name: "serve_cold",
                videos: vec![
                    SyntheticVideo {
                        name: "gp-full".into(),
                        clips: 54_000,
                        drivers: 4096,
                    },
                    small_video("gp-side"),
                ],
                durable: false,
                routed: false,
                write_video: "gp-side".into(),
                statements: on_video("gp-full", filtered_texts(4096)),
                popularity: Popularity::Uniform(3 * 4096),
                scatter_texts: filtered_texts(4096),
            },
            // 15 statements, all cached: the kernel does nothing and
            // the serving layer is the whole cost.
            "serve_hot" => Spec {
                name: "serve_hot",
                videos: vec![small_video("gp-short"), small_video("gp-side")],
                durable: false,
                routed: false,
                write_video: "gp-side".into(),
                statements: small_table("gp-short"),
                popularity: Popularity::zipf(15, 1.0),
                scatter_texts: filtered_texts(4),
            },
            // A durable catalog whose live video is ingested, appended
            // to, checkpointed and read by the same session: a write
            // voids the cached answers on that video, so the first read
            // of each statement after it executes again (the 95th
            // percentile) and the rest are hits (the median). Only the
            // driver-filtered statements: the unfiltered pit-stop
            // answer would grow from 200 rows to 640 during a run.
            "mixed_rw" => Spec {
                name: "mixed_rw",
                videos: vec![small_video("gp-prev")],
                durable: true,
                routed: false,
                write_video: "gp-live".into(),
                statements: on_video("gp-live", filtered_texts(4)),
                popularity: Popularity::zipf(12, 1.0),
                scatter_texts: filtered_texts(4),
            },
            // 7 × 15 single-video statements plus the 12 cross-video
            // ones = 117 router cache keys (< its 512 entries) over two
            // shards; writes land on race-0's shard and invalidate
            // every answer the router cached from that shard.
            "routed" => {
                let tables: Vec<Vec<Statement>> =
                    (1..8).map(|v| small_table(&format!("race-{v}"))).collect();
                Spec {
                    name: "routed",
                    videos: (0..8).map(|v| small_video(&format!("race-{v}"))).collect(),
                    durable: false,
                    routed: true,
                    write_video: "race-0".into(),
                    // Rank r is statement r / 7 of video 1 + r % 7, so
                    // the popular ranks spread over both shards.
                    statements: (0..105).map(|r| tables[r % 7][r / 7].clone()).collect(),
                    popularity: Popularity::zipf(105, 1.0),
                    scatter_texts: filtered_texts(4),
                }
            }
            _ => return None,
        })
    }

    /// The pre-generated broadcast `mixed_rw` ingests. Generating it is
    /// input preparation, not set-up of the system under test.
    pub fn broadcast(&self) -> Option<RaceScenario> {
        self.durable
            .then(|| RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, BROADCAST_S)))
    }
}

/// One event per three clips, kinds cycling through the three targets,
/// each consecutive triple sharing a driver.
fn synthetic_events(clips: usize, drivers: usize) -> Vec<EventRecord> {
    (0..clips / 3)
        .map(|i| EventRecord {
            kind: ["highlight", "excited", "caption:pit_stop"][i % 3].into(),
            start: i * 3,
            end: i * 3 + 2,
            driver: Some(format!("D{}", (i / 3) % drivers)),
        })
        .collect()
}

fn add_synthetic(vdbms: &Vdbms, video: &SyntheticVideo) -> Result<(), String> {
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: video.name.clone(),
            n_clips: video.clips,
            n_frames: video.clips * VIDEO_FPS / clips_per_second(),
        })
        .and_then(|()| {
            vdbms
                .catalog
                .store_events(&video.name, &synthetic_events(video.clips, video.drivers))
        })
        .map_err(|e| format!("building video '{}': {e}", video.name))
}

/// One `Vdbms` behind one server.
pub struct Shard {
    pub vdbms: Arc<Vdbms>,
    server: ServerHandle,
}

impl Shard {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// How the broadcast ingest of a durable set-up went.
pub struct IngestTiming {
    pub chunk_ms: Vec<f64>,
    pub x_realtime: f64,
}

/// A running system under test.
pub struct Fixture {
    pub shards: Vec<Shard>,
    pub router: Option<RouterHandle>,
    ring: Ring,
    pub data_dir: Option<PathBuf>,
    pub ingest: Option<IngestTiming>,
}

impl Fixture {
    /// Builds the workload's system up to "accepting": fixture data,
    /// servers, router, and one answered ping through the front door.
    /// Durable data goes under `scratch`, which must not exist yet.
    pub fn build(
        spec: &Spec,
        broadcast: Option<&RaceScenario>,
        scratch: &Path,
    ) -> Result<Fixture, String> {
        let n_shards = if spec.routed { 2 } else { 1 };
        let ring = Ring::new(n_shards, DEFAULT_SEED);
        let data_dir = spec.durable.then(|| scratch.join("data"));
        let mut ingest = None;
        let mut shards = Vec::new();
        for shard in 0..n_shards {
            let vdbms = match &data_dir {
                Some(dir) => Vdbms::open(&store_config(dir)),
                None => Vdbms::try_new(),
            }
            .map_err(|e| format!("booting shard {shard}: {e}"))?;
            for video in spec.videos.iter().filter(|v| ring.owner(&v.name) == shard) {
                add_synthetic(&vdbms, video)?;
            }
            if let Some(scenario) = broadcast {
                ingest = Some(ingest_broadcast(&vdbms, &spec.write_video, scenario)?);
                vdbms
                    .catalog
                    .store_events(&spec.write_video, &synthetic_events(1800, 4))
                    .and_then(|()| vdbms.checkpoint())
                    .map_err(|e| format!("seeding '{}': {e}", spec.write_video))?;
            }
            let vdbms = Arc::new(vdbms);
            let server = server::start(
                Arc::clone(&vdbms),
                ServerConfig {
                    workers: WORKERS,
                    debug: true,
                    ..ServerConfig::default()
                },
            )
            .map_err(|e| format!("starting shard {shard}: {e}"))?;
            shards.push(Shard { vdbms, server });
        }
        let router = if spec.routed {
            Some(
                router::start(RouterConfig {
                    shards: shards.iter().map(|s| s.addr().to_string()).collect(),
                    ..RouterConfig::default()
                })
                .map_err(|e| format!("starting router: {e}"))?,
            )
        } else {
            None
        };
        let fixture = Fixture {
            shards,
            router,
            ring,
            data_dir,
            ingest,
        };
        fixture
            .connect()
            .and_then(|mut c| c.ping().map_err(|e| e.to_string()))
            .map_err(|e| format!("front door not accepting: {e}"))?;
        Ok(fixture)
    }

    /// The address clients of this workload talk to.
    pub fn front(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.addr(),
            None => self.shards[0].addr(),
        }
    }

    /// A client of the front door.
    pub fn connect(&self) -> Result<Client, String> {
        connect(self.front())
    }

    /// One client per shard, past the router, in shard order.
    pub fn connect_shards(&self) -> Result<Vec<Client>, String> {
        self.shards.iter().map(|s| connect(s.addr())).collect()
    }

    /// Index in `shards` of the shard that holds `video`.
    pub fn owner_index(&self, video: &str) -> usize {
        self.ring.owner(video) as usize
    }

    /// The shard that holds `video`.
    pub fn owner(&self, video: &str) -> &Shard {
        &self.shards[self.owner_index(video)]
    }

    /// Drains and stops every server; removes nothing from disk.
    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for shard in self.shards {
            shard.server.shutdown();
        }
    }
}

/// A client whose reads give up after `REPLY_TIMEOUT`.
fn connect(addr: SocketAddr) -> Result<Client, String> {
    let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("setting the reply timeout: {e}"))?;
    Ok(client)
}

pub fn store_config(dir: &Path) -> StoreConfig {
    StoreConfig {
        fsync: FSYNC,
        // Checkpoints happen when the writer thread asks for one, so a
        // run's disk work is the same from seed to seed.
        checkpoint_every: 0,
        ..StoreConfig::new(dir)
    }
}

fn ingest_broadcast(
    vdbms: &Vdbms,
    video: &str,
    scenario: &RaceScenario,
) -> Result<IngestTiming, String> {
    let started = Instant::now();
    let mut chunk_ms = Vec::new();
    for chunk in scenario.chunks(CHUNK_S) {
        let t = Instant::now();
        vdbms
            .ingest_chunk(video, scenario, &chunk)
            .map_err(|e| format!("ingesting chunk {}: {e}", chunk.index))?;
        chunk_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(IngestTiming {
        chunk_ms,
        x_realtime: BROADCAST_S as f64 / started.elapsed().as_secs_f64(),
    })
}
