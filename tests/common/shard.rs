//! Multi-shard cluster harness: a real router over real worker
//! *processes*.
//!
//! [`ShardCluster::start`] seeds each shard's durable data dir with its
//! slice of the catalog (assignment computed with the exact same
//! [`Ring`] the router uses), spawns one genuine `cobra-serve` child
//! per shard on an OS-assigned port, boots an in-process scatter-gather
//! router over them, and hands out protocol clients. Kill/restart
//! helpers exercise the failure path: [`kill`](ShardCluster::kill) is a
//! hard SIGKILL (no drain, no flush), and
//! [`restart`](ShardCluster::restart) respawns the worker over the same
//! data dir (fresh port, fresh epoch — the router is re-pointed via
//! `set_shard_addr`, so no TIME_WAIT rebind race).
//!
//! Everything is deterministic: shard assignment is a pure function of
//! the seed, worker data dirs are seeded before any process starts, and
//! clients get a generous read timeout so a hung request fails the test
//! instead of wedging the suite.
#![allow(dead_code)]

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use cobra_faults::FaultHandle;
use cobra_obs::Registry;
use cobra_serve::ring::{Ring, DEFAULT_SEED};
use cobra_serve::router::{self, RouterConfig, RouterHandle};
use cobra_serve::spawn::{find_worker_binary, spawn_worker, WorkerProcess};
use cobra_serve::Client;
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::{RetryPolicy, StoreConfig, Vdbms};

/// Read timeout on every harness client: the no-hang bound. A request
/// that outlives this fails its test with a transport timeout instead
/// of hanging the suite.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(15);

/// A video seeded into the cluster before any worker boots.
pub struct SeedVideo {
    pub name: String,
    pub n_clips: usize,
    pub events: Vec<EventRecord>,
}

/// Shorthand event constructor (same shape as the cache tests).
pub fn event(kind: &str, start: usize, end: usize, driver: Option<&str>) -> EventRecord {
    EventRecord {
        kind: kind.into(),
        start,
        end,
        driver: driver.map(str::to_string),
    }
}

/// Shorthand seed-video constructor.
pub fn seed_video(name: &str, n_clips: usize, events: Vec<EventRecord>) -> SeedVideo {
    SeedVideo {
        name: name.into(),
        n_clips,
        events,
    }
}

/// Locates (or, once per process, builds) the `cobra-serve` binary the
/// workers run as.
pub fn worker_binary() -> PathBuf {
    if let Ok(found) = find_worker_binary() {
        return found;
    }
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let mut cmd = Command::new("cargo");
        cmd.args(["build", "-p", "cobra-serve", "--bins"]);
        // Match the profile this test binary was compiled under, so the
        // freshly built worker lands where find_worker_binary looks.
        let release = std::env::current_exe()
            .ok()
            .map(|p| p.components().any(|c| c.as_os_str() == "release"))
            .unwrap_or(false);
        if release {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("running cargo build for cobra-serve");
        assert!(status.success(), "cargo build -p cobra-serve --bins failed");
    });
    find_worker_binary().expect("cobra-serve binary after cargo build")
}

static CLUSTER_ID: AtomicU32 = AtomicU32::new(0);

/// A live sharded cluster: N worker processes and a router over them.
pub struct ShardCluster {
    root: PathBuf,
    ring: Ring,
    binary: PathBuf,
    workers: Vec<Option<WorkerProcess>>,
    router: Option<RouterHandle>,
    faults: FaultHandle,
}

impl ShardCluster {
    /// Starts `shards` workers seeded with `videos`, router cache on.
    pub fn start(shards: u32, videos: &[SeedVideo]) -> ShardCluster {
        Self::start_opts(shards, videos, true)
    }

    /// Starts the cluster with an explicit router-cache setting.
    pub fn start_opts(shards: u32, videos: &[SeedVideo], cache: bool) -> ShardCluster {
        let root = std::env::temp_dir().join(format!(
            "cobra-shard-cluster-{}-{}",
            std::process::id(),
            CLUSTER_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let ring = Ring::new(shards, DEFAULT_SEED);

        // Seed each shard's durable slice of the catalog before any
        // process exists; the workers recover it from their own WAL +
        // snapshot on boot, exactly like a production restart.
        for shard in 0..shards {
            let dir = root.join(format!("shard-{shard}"));
            let vdbms = Vdbms::open(&StoreConfig::new(&dir)).expect("seed shard data dir");
            for video in videos.iter().filter(|v| ring.owner(&v.name) == shard) {
                vdbms
                    .catalog
                    .register_video(VideoInfo {
                        name: video.name.clone(),
                        n_clips: video.n_clips,
                        n_frames: video.n_clips * 25 / 10,
                    })
                    .expect("register seed video");
                vdbms
                    .catalog
                    .store_events(&video.name, &video.events)
                    .expect("store seed events");
            }
            vdbms.checkpoint().expect("checkpoint seed data");
        }

        let binary = worker_binary();
        let workers: Vec<Option<WorkerProcess>> = (0..shards)
            .map(|shard| Some(spawn_shard(&binary, &root, shard)))
            .collect();
        let addrs = workers
            .iter()
            .map(|w| w.as_ref().map(|w| w.addr().to_string()).unwrap_or_default())
            .collect();
        let faults = FaultHandle::default();
        let router = router::start(RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: addrs,
            seed: DEFAULT_SEED,
            retry: RetryPolicy {
                max_retries: 2,
                backoff_ms: 25,
            },
            cache,
            faults: faults.clone(),
        })
        .expect("start router");
        // The router follows each shard's stamp over a feed it opens in
        // the background when the first request arrives; send one and
        // wait for all of them, so a test's first reads are cacheable
        // rather than racing the handshakes.
        Client::connect(router.addr())
            .and_then(|mut c| c.videos().map_err(std::io::Error::other))
            .expect("first request through the router");
        let deadline = std::time::Instant::now() + CLIENT_TIMEOUT;
        while router.registry().snapshot().gauge("router.feeds_up", &[]) < i64::from(shards) {
            assert!(
                std::time::Instant::now() < deadline,
                "router feeds must connect to freshly started shards"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        ShardCluster {
            root,
            ring,
            binary,
            workers: workers.into_iter().collect(),
            router: Some(router),
            faults,
        }
    }

    /// The ring the router routes with (same seed, same assignment).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The shard that owns `video`.
    pub fn owner(&self, video: &str) -> u32 {
        self.ring.owner(video)
    }

    /// `shard`'s durable data dir.
    pub fn data_dir(&self, shard: u32) -> PathBuf {
        self.root.join(format!("shard-{shard}"))
    }

    fn router_ref(&self) -> &RouterHandle {
        self.router.as_ref().expect("router is running")
    }

    /// The router's fault injector (`router.forward`).
    pub fn faults(&self) -> &FaultHandle {
        &self.faults
    }

    /// The router's own metrics registry (forward + cache counters).
    pub fn registry(&self) -> Arc<Registry> {
        self.router_ref().registry()
    }

    /// Where the router listens.
    pub fn router_addr(&self) -> std::net::SocketAddr {
        self.router_ref().addr()
    }

    /// A protocol client connected to the router, with the harness
    /// timeout armed.
    pub fn client(&self) -> Client {
        let client = Client::connect(self.router_ref().addr()).expect("connect to router");
        client
            .set_timeout(Some(CLIENT_TIMEOUT))
            .expect("arm client timeout");
        client
    }

    /// Where `shard`'s worker listens.
    pub fn worker_addr(&self, shard: u32) -> &str {
        self.workers[shard as usize]
            .as_ref()
            .expect("worker is running")
            .addr()
    }

    /// A client connected directly to `shard`'s worker.
    pub fn worker_client(&self, shard: u32) -> Client {
        let client = Client::connect(self.worker_addr(shard)).expect("connect to worker");
        client
            .set_timeout(Some(CLIENT_TIMEOUT))
            .expect("arm client timeout");
        client
    }

    /// Hard-kills `shard`'s worker (SIGKILL: no drain, no flush).
    pub fn kill(&mut self, shard: u32) {
        if let Some(mut worker) = self.workers[shard as usize].take() {
            worker.kill();
        }
    }

    /// Respawns `shard`'s worker over the same data dir. The fresh
    /// process binds a new OS-assigned port (no TIME_WAIT rebind race)
    /// and the router is re-pointed at it. Returns the new address.
    pub fn restart(&mut self, shard: u32) -> String {
        self.kill(shard);
        let worker = spawn_shard(&self.binary, &self.root, shard);
        let addr = worker.addr().to_string();
        self.workers[shard as usize] = Some(worker);
        self.router_ref().set_shard_addr(shard, addr.clone());
        addr
    }
}

/// A raw protocol session — frames out, payload bytes in, nothing
/// decoded and the ids the test's own — for comparing replies byte for
/// byte.
pub struct RawSession {
    stream: std::net::TcpStream,
}

impl RawSession {
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> RawSession {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(CLIENT_TIMEOUT))
            .expect("arm the no-hang bound");
        RawSession { stream }
    }

    /// Sends `request` as it stands and returns the next frame's payload.
    pub fn call(&mut self, request: &serde_json::Value) -> String {
        use std::io::{Read, Write};
        let frame = cobra_serve::protocol::encode_frame(request).expect("request encodes");
        self.stream.write_all(&frame).expect("send");
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix).expect("frame prefix");
        let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
        self.stream.read_exact(&mut payload).expect("frame payload");
        String::from_utf8(payload).expect("frames are UTF-8")
    }
}

fn spawn_shard(binary: &std::path::Path, root: &std::path::Path, shard: u32) -> WorkerProcess {
    let args = vec![
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--workers".to_string(),
        "2".to_string(),
        "--queue-cap".to_string(),
        "64".to_string(),
        "--debug".to_string(),
        "--data-dir".to_string(),
        root.join(format!("shard-{shard}")).display().to_string(),
    ];
    match spawn_worker(binary, &args) {
        Ok(worker) => worker,
        Err(e) => panic!("spawning shard {shard}: {e}"),
    }
}

impl Drop for ShardCluster {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        self.workers.clear(); // WorkerProcess::drop kills and reaps
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
