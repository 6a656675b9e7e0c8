//! The router guards what it caches, and the standing queries its hub
//! runs, by what each statement reads on each shard: every shard reports
//! what its commits touched, and the router keeps a mirror of the
//! shard's guards from those reports. This differential test holds that
//! to the answers themselves.
//!
//! Two in-process shards, each a durable catalog behind its own server,
//! sit behind one router. The test interleaves random appends (through
//! the router's `write_event` and straight into a shard's catalog, named
//! and unnamed drivers), re-annotations (`replace_events`),
//! re-registrations, feed drops (a shard's server restarted over the same
//! catalog, with a commit while the feed is down) and shard reboots (the
//! catalog reopened from its directory, a new epoch) with sweeps of
//! single-video and `"*"` reads through the router. Each answer the
//! router gives — cached or forwarded — and each push of its standing
//! queries must equal what a fresh single node, replaying the same
//! commits, computes on its first and only evaluation.
//!
//! A scripted case walks the overlap rule's unnamed rows through the same
//! doors: a driver-named answer whose kind has no unnamed rows stays in
//! the router's cache through a write naming the driver, on a mirror
//! started by the feed handshake, kept through a replace's report, and
//! restarted by a reboot's.
//!
//! After a commit straight into a shard's catalog the test waits, on a
//! bare watcher of the router, until the router has seen the shard's
//! stamp move past it: the router's view lags a direct commit by design,
//! and an answer read before it may be the commit's predecessor.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cobra_serve::client::{ClientError, QueryReply};
use cobra_serve::ring::{Ring, DEFAULT_SEED};
use cobra_serve::router::{self, RetryPolicy, RouterConfig, RouterHandle};
use cobra_serve::server::{self, ServerConfig, ServerHandle};
use cobra_serve::{Client, ErrorKind};
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::json::segment_to_json;
use f1_cobra::{FsyncPolicy, QueryOutput, RetrievedSegment, Stamp, StoreConfig, Vdbms};
use proptest::prelude::*;
use serde_json::{json, Value};

/// The no-hang bound of every wait.
const PATIENCE: Duration = Duration::from_secs(10);

const SHARDS: u32 = 2;

const KINDS: [&str; 6] = [
    "highlight",
    "excited",
    "caption:pit_stop",
    "caption:classification",
    "caption:winner",
    "fly_out",
];

const DRIVERS: [Option<&str>; 4] = [None, Some("A"), Some("B"), Some("C")];

/// Statement shapes over every source and filter, one of which cannot
/// run (`SEGMENTS` without a driver).
const STATEMENTS: [&str; 9] = [
    "RETRIEVE HIGHLIGHTS",
    "RETRIEVE HIGHLIGHTS WITH DRIVER \"A\"",
    "RETRIEVE PITSTOPS WITH DRIVER \"B\"",
    "RETRIEVE EXCITED",
    "RETRIEVE LEADER",
    "RETRIEVE HIGHLIGHTS AT PITLANE",
    "RETRIEVE EVENTS FLY_OUT WITH DRIVER \"A\"",
    "RETRIEVE SEGMENTS WITH DRIVER \"C\"",
    "RETRIEVE SEGMENTS",
];

/// Standing queries: the index of a video (`None`: `"*"`) and a text.
const STANDING: [(Option<usize>, &str); 3] = [
    (Some(0), "RETRIEVE HIGHLIGHTS WITH DRIVER \"A\""),
    (None, "RETRIEVE PITSTOPS WITH DRIVER \"B\""),
    (Some(1), "RETRIEVE EXCITED"),
];

/// One acknowledged commit, as the fresh node replays it.
#[derive(Debug, Clone)]
enum Commit {
    Register(usize, usize),
    Append(usize, Vec<EventRecord>),
    Replace(usize, Vec<&'static str>, Vec<EventRecord>),
}

/// What one step of a case does.
#[derive(Debug)]
enum Op {
    /// A commit straight into the owning shard's catalog.
    Direct(Commit),
    /// A one-row append through the router's `write_event`.
    Routed(usize, EventRecord),
    /// The server of a shard restarts over the same catalog, and the
    /// commit lands while the router's feed of it is down.
    FeedDrop(u32, Commit),
    /// The catalog of a shard is reopened from its directory: a new epoch.
    Reboot(u32),
    /// Nothing: the read sweep runs again over the same commits.
    Idle,
}

/// Draws from one step's seed.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn row(&mut self) -> EventRecord {
        let start = self.below(240);
        EventRecord {
            kind: KINDS[self.below(KINDS.len())].into(),
            start,
            end: start + 1 + self.below(20),
            driver: DRIVERS[self.below(DRIVERS.len())].map(str::to_string),
        }
    }

    fn rows(&mut self) -> Vec<EventRecord> {
        (0..1 + self.below(3)).map(|_| self.row()).collect()
    }

    fn commit(&mut self, videos: usize) -> Commit {
        let video = self.below(videos);
        match self.below(8) {
            0..=4 => Commit::Append(video, self.rows()),
            5 | 6 => {
                let drop = KINDS
                    .iter()
                    .copied()
                    .filter(|_| self.below(3) == 0)
                    .collect();
                Commit::Replace(video, drop, self.rows())
            }
            _ => Commit::Register(video, 200 + self.below(80)),
        }
    }

    fn op(&mut self, videos: usize) -> Op {
        match self.below(20) {
            0..=6 => Op::Routed(self.below(videos), self.row()),
            7..=13 => Op::Direct(self.commit(videos)),
            14 | 15 => Op::FeedDrop(self.below(SHARDS as usize) as u32, self.commit(videos)),
            16 => Op::Reboot(self.below(SHARDS as usize) as u32),
            _ => Op::Idle,
        }
    }
}

/// Two videos per shard, by the ring the router routes with.
fn videos(ring: &Ring) -> Vec<String> {
    let mut per_shard = vec![Vec::new(); SHARDS as usize];
    for name in (0..).map(|i| format!("v{i}")) {
        let owned = &mut per_shard[ring.owner(&name) as usize];
        if owned.len() < 2 {
            owned.push(name);
        }
        if per_shard.iter().all(|owned| owned.len() == 2) {
            break;
        }
    }
    let mut names: Vec<String> = per_shard.concat();
    names.sort();
    names
}

fn apply(vdbms: &Vdbms, names: &[String], commit: &Commit) -> f1_cobra::Result<()> {
    let catalog = &vdbms.catalog;
    match commit {
        Commit::Register(v, n_clips) => catalog.register_video(VideoInfo {
            name: names[*v].clone(),
            n_clips: *n_clips,
            n_frames: n_clips * 25 / 10,
        }),
        Commit::Append(v, rows) => catalog.store_events(&names[*v], rows),
        Commit::Replace(v, drop, rows) => catalog.replace_events(&names[*v], drop, rows),
    }
}

fn store(dir: &Path) -> StoreConfig {
    StoreConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
        ..StoreConfig::new(dir)
    }
}

fn serve(vdbms: &Arc<Vdbms>) -> ServerHandle {
    let config = ServerConfig {
        workers: 2,
        debug: true,
        ..ServerConfig::default()
    };
    server::start(Arc::clone(vdbms), config).expect("a shard's server starts")
}

fn connect(addr: impl std::net::ToSocketAddrs) -> Client {
    let client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(PATIENCE))
        .expect("arm the no-hang bound");
    client
}

/// One shard: a durable catalog and the server in front of it.
struct Shard {
    dir: PathBuf,
    vdbms: Arc<Vdbms>,
    server: Option<ServerHandle>,
}

/// A standing query through the router, on a connection of its own, and
/// the answer it has delivered so far, by video.
struct Standing {
    client: Client,
    video: String,
    text: &'static str,
    views: BTreeMap<String, Vec<RetrievedSegment>>,
}

static CLUSTER_ID: AtomicU32 = AtomicU32::new(0);

/// The cluster under test and everything the test drives it through.
struct Cluster {
    root: PathBuf,
    ring: Ring,
    names: Vec<String>,
    shards: Vec<Shard>,
    router: Option<RouterHandle>,
    /// Reads and routed writes.
    client: Client,
    /// A bare watcher of the router per shard, on one of its videos: a
    /// frame whenever the router's stamp of that shard moves.
    watchers: Vec<Client>,
    standing: Vec<Standing>,
    /// Every commit acknowledged so far.
    log: Vec<Commit>,
}

impl Cluster {
    fn start() -> Cluster {
        let root = std::env::temp_dir().join(format!(
            "cobra-routed-guards-{}-{}",
            std::process::id(),
            CLUSTER_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let ring = Ring::new(SHARDS, DEFAULT_SEED);
        let names = videos(&ring);
        let log: Vec<Commit> = (0..names.len())
            .flat_map(|v| {
                let seed = EventRecord {
                    kind: "highlight".into(),
                    start: v,
                    end: v + 10,
                    driver: Some("A".into()),
                };
                [Commit::Register(v, 240), Commit::Append(v, vec![seed])]
            })
            .collect();
        let shards: Vec<Shard> = (0..SHARDS)
            .map(|shard| {
                let dir = root.join(format!("shard-{shard}"));
                let vdbms = Arc::new(Vdbms::open(&store(&dir)).expect("a shard's catalog opens"));
                for commit in &log {
                    if ring.owner(&names[video_of(commit)]) == shard {
                        apply(&vdbms, &names, commit).expect("seed commit");
                    }
                }
                let server = Some(serve(&vdbms));
                Shard { dir, vdbms, server }
            })
            .collect();
        let router = router::start(RouterConfig {
            shards: shards.iter().map(|s| addr_of(s).to_string()).collect(),
            retry: RetryPolicy {
                max_retries: 3,
                backoff_ms: 10,
            },
            ..RouterConfig::default()
        })
        .expect("the router starts");
        let mut client = connect(router.addr());
        client.videos().expect("a first request starts the feeds");
        let addr = router.addr();
        let mut cluster = Cluster {
            root,
            ring,
            names,
            shards,
            client,
            watchers: Vec::new(),
            standing: Vec::new(),
            log,
            router: Some(router),
        };
        cluster.feeds_up(SHARDS as i64);
        for shard in 0..SHARDS {
            let video = cluster
                .names
                .iter()
                .find(|v| cluster.ring.owner(v) == shard);
            let mut watcher = connect(addr);
            watcher
                .send(json!({"cmd": "subscribe", "video": (video.cloned())}))
                .expect("subscribe a bare watcher");
            cluster.watchers.push(watcher);
        }
        for (video, text) in STANDING {
            let video = video.map_or("*".to_string(), |v| cluster.names[v].clone());
            let mut client = connect(addr);
            let (_, initial) = client.subscribe(&video, text).expect("subscribe");
            let views = cluster.fresh_views(&video, text);
            let wire: Vec<Value> = views
                .iter()
                .map(|(video, rows)| {
                    let rows: Vec<Value> = rows.iter().map(segment_to_json).collect();
                    json!({"video": (video.as_str()), "segments": (rows)})
                })
                .collect();
            assert_eq!(
                initial.get("videos"),
                Some(&Value::Array(wire)),
                "{text} on {video}"
            );
            cluster.standing.push(Standing {
                client,
                video,
                text,
                views,
            });
        }
        cluster
    }

    fn shard_of(&self, video: usize) -> u32 {
        self.ring.owner(&self.names[video])
    }

    fn router(&self) -> &RouterHandle {
        self.router.as_ref().expect("the router runs")
    }

    fn registry_gauge(&self, name: &str) -> i64 {
        self.router().registry().snapshot().gauge(name, &[])
    }

    /// Waits until exactly `up` feeds are up.
    fn feeds_up(&self, up: i64) {
        let deadline = Instant::now() + PATIENCE;
        while self.registry_gauge("router.feeds_up") != up {
            assert!(
                Instant::now() < deadline,
                "router.feeds_up never reached {up}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Waits until the router has seen `shard`'s stamp reach `at`.
    fn sync(&mut self, shard: u32, at: Stamp) {
        let watcher = &mut self.watchers[shard as usize];
        loop {
            let frame = watcher
                .recv()
                .expect("the router's stamp of the shard moves");
            let Some(moved) = frame.get("result").filter(|_| frame.get("push").is_some()) else {
                continue;
            };
            let field = |name| moved.get(name).and_then(Value::as_u64);
            if field("epoch") == Some(at.epoch) && field("data_version") >= Some(at.seq) {
                return;
            }
        }
    }

    /// A fresh node holding every commit so far.
    fn fresh(&self) -> Vdbms {
        let fresh = Vdbms::try_new().expect("a fresh node");
        for commit in &self.log {
            apply(&fresh, &self.names, commit).expect("replay");
        }
        fresh
    }

    /// The fresh node's answer to `text` over `video`, by video.
    fn fresh_views(&self, video: &str, text: &str) -> BTreeMap<String, Vec<RetrievedSegment>> {
        match self
            .fresh()
            .run(video, text)
            .expect("a standing statement runs")
        {
            QueryOutput::Segments(rows) => BTreeMap::from([(video.to_string(), rows)]),
            QueryOutput::Multi(groups) => {
                groups.into_iter().map(|g| (g.video, g.segments)).collect()
            }
            other => panic!("a plain retrieval answered {other:?}"),
        }
    }

    /// Applies `commit` straight to its shard's catalog and waits for the
    /// router to see it.
    fn direct(&mut self, commit: Commit) {
        let shard = self.shard_of(video_of(&commit));
        let vdbms = Arc::clone(&self.shards[shard as usize].vdbms);
        apply(&vdbms, &self.names, &commit).expect("a direct commit");
        self.log.push(commit);
        self.sync(shard, vdbms.catalog.stamp());
    }

    /// Restarts `shard`'s server; `gap` commits while the feed is down,
    /// and `reopen` reopens the catalog (a new epoch).
    fn restart(&mut self, shard: u32, gap: Option<Commit>, reopen: bool) {
        let s = shard as usize;
        if let Some(server) = self.shards[s].server.take() {
            server.shutdown();
        }
        self.feeds_up(SHARDS as i64 - 1);
        if reopen {
            let reopened = Vdbms::open(&store(&self.shards[s].dir)).expect("the catalog reopens");
            self.shards[s].vdbms = Arc::new(reopened);
        }
        if let Some(commit) = gap {
            apply(&self.shards[s].vdbms, &self.names, &commit).expect("a commit in the gap");
            self.log.push(commit);
        }
        let server = serve(&self.shards[s].vdbms);
        self.router()
            .set_shard_addr(shard, server.addr().to_string());
        self.shards[s].server = Some(server);
        self.feeds_up(SHARDS as i64);
        let at = self.shards[s].vdbms.catalog.stamp();
        self.sync(shard, at);
    }

    fn step(&mut self, op: Op) {
        match op {
            Op::Direct(commit) => self.direct(commit),
            Op::Routed(v, row) => {
                let video = self.names[v].clone();
                let (start, end) = (row.start as u64, row.end as u64);
                self.client
                    .write_event(&video, &row.kind, start, end, row.driver.as_deref())
                    .expect("a routed write");
                self.log.push(Commit::Append(v, vec![row]));
                let shard = self.shard_of(v);
                let at = self.shards[shard as usize].vdbms.catalog.stamp();
                self.sync(shard, at);
            }
            Op::FeedDrop(shard, commit) => {
                // The gap's commit goes to the shard that is down.
                let commit = match commit {
                    Commit::Append(v, rows) => Commit::Append(self.on(shard, v), rows),
                    Commit::Replace(v, drop, rows) => {
                        Commit::Replace(self.on(shard, v), drop, rows)
                    }
                    Commit::Register(v, n) => Commit::Register(self.on(shard, v), n),
                };
                self.restart(shard, Some(commit), false);
            }
            Op::Reboot(shard) => self.restart(shard, None, true),
            Op::Idle => {}
        }
    }

    /// A video of `shard`, drawn by `v`.
    fn on(&self, shard: u32, v: usize) -> usize {
        let owned: Vec<usize> = (0..self.names.len())
            .filter(|&i| self.shard_of(i) == shard)
            .collect();
        owned[v % owned.len()]
    }

    /// Every standing query's pushes since the last check are exactly the
    /// deltas from what it delivered to the fresh node's answer now.
    fn check_pushes(&mut self) -> Result<(), TestCaseError> {
        for s in 0..self.standing.len() {
            let (video, text) = (self.standing[s].video.clone(), self.standing[s].text);
            let now = self.fresh_views(&video, text);
            let standing = &mut self.standing[s];
            let mut owed: BTreeMap<String, (Vec<RetrievedSegment>, u64, u64)> = BTreeMap::new();
            for (group, rows) in &now {
                let old = standing.views.get(group).map_or(&[][..], Vec::as_slice);
                let added: Vec<_> = rows.iter().filter(|r| !old.contains(r)).cloned().collect();
                let removed = old.iter().filter(|r| !rows.contains(r)).count() as u64;
                if !added.is_empty() || removed > 0 || !standing.views.contains_key(group) {
                    owed.insert(group.clone(), (added, removed, rows.len() as u64));
                }
            }
            while !owed.is_empty() {
                let push = match standing.client.next_push() {
                    Ok(push) => push,
                    // A shard that was down under the subscription.
                    Err(ClientError::Server {
                        kind: ErrorKind::ShardUnavailable,
                        ..
                    }) => continue,
                    Err(e) => {
                        return Err(TestCaseError::Fail(format!(
                            "{text} on {video}: no push for {owed:?}: {e}"
                        )))
                    }
                };
                let want = owed.remove(&push.video);
                let got = (push.added, push.removed, push.total);
                prop_assert_eq!(Some(got), want, "{} on {}: a push", text, video);
            }
            standing.views = now;
        }
        Ok(())
    }

    /// Every statement over every video and `"*"` answers through the
    /// router what the fresh node answers.
    fn check_reads(&mut self) -> Result<(), TestCaseError> {
        let fresh = self.fresh();
        let targets = self.names.iter().cloned().chain(["*".to_string()]);
        for video in targets.collect::<Vec<_>>() {
            for text in STATEMENTS {
                let want = fresh.run(&video, text).map_err(|e| e.to_string());
                let got = self.client.query(&video, text);
                match (got, want) {
                    (Ok(QueryReply::Segments(got)), Ok(QueryOutput::Segments(want))) => {
                        prop_assert_eq!(got, want, "{} on {}", text, video)
                    }
                    (Ok(QueryReply::Multi(got)), Ok(QueryOutput::Multi(want))) => {
                        prop_assert_eq!(got, want, "{} on {}", text, video)
                    }
                    (Err(ClientError::Server { .. }), Err(_)) => {}
                    (got, want) => {
                        prop_assert!(false, "{text} on {video}: {got:?} against {want:?}")
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether the router answers `text` over video `v` from its cache.
    fn router_hit(&mut self, v: usize, text: &str) -> bool {
        let registry = self.router().registry();
        let hits = || {
            registry
                .snapshot()
                .counter("cache.result", &[("result", "hit")])
        };
        let before = hits();
        self.client
            .query(&self.names[v], text)
            .expect("a routed read");
        hits() > before
    }

    /// The quiescent end: no push is owed or in flight, every feed is up
    /// and the router's pool and cache are at rest, read once without
    /// waiting.
    fn at_rest(&mut self) -> Result<(), TestCaseError> {
        for standing in &mut self.standing {
            let _ = standing
                .client
                .set_timeout(Some(Duration::from_millis(300)));
            let stray = loop {
                match standing.client.next_push() {
                    Err(ClientError::Server {
                        kind: ErrorKind::ShardUnavailable,
                        ..
                    }) => continue,
                    stray => break stray,
                }
            };
            prop_assert!(
                matches!(stray, Err(ClientError::Transport(_))),
                "{} on {}: a push nothing owed: {:?}",
                standing.text,
                standing.video,
                stray
            );
        }
        prop_assert_eq!(self.registry_gauge("router.feeds_up"), SHARDS as i64);
        let snapshot = self.router().registry().snapshot();
        let gauges = ["serve.running", "serve.queue_depth"].map(|g| snapshot.gauge(g, &[]));
        prop_assert_eq!(gauges, [0, 0], "the router's pool at rest");
        let resident = self.router().cache_at_rest();
        for (gauge, resident) in resident {
            prop_assert_eq!(snapshot.gauge(gauge, &[]), resident, "{} at rest", gauge);
        }
        Ok(())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for shard in &mut self.shards {
            if let Some(server) = shard.server.take() {
                server.shutdown();
            }
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn addr_of(shard: &Shard) -> std::net::SocketAddr {
    shard.server.as_ref().expect("the shard serves").addr()
}

fn video_of(commit: &Commit) -> usize {
    match commit {
        Commit::Register(v, _) | Commit::Append(v, _) | Commit::Replace(v, _, _) => *v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn routed_answers_and_pushes_equal_a_fresh_single_node_at_the_same_commits(
        seeds in proptest::collection::vec(0u64..u64::MAX, 4..14),
    ) {
        let mut cluster = Cluster::start();
        cluster.check_reads()?;
        let videos = cluster.names.len();
        for seed in seeds {
            let op = Draws(seed).op(videos);
            cluster.step(op);
            cluster.check_pushes()?;
            cluster.check_reads()?;
        }
        cluster.at_rest()?;
    }
}

fn row(kind: &str, start: usize, driver: Option<&str>) -> EventRecord {
    EventRecord {
        kind: kind.into(),
        start,
        end: start + 10,
        driver: driver.map(str::to_string),
    }
}

/// The overlap rule behind the router. Every video starts with one
/// highlight, naming A, so `RETRIEVE HIGHLIGHTS WITH DRIVER "A"` over
/// video 0 reads no other row naming A: a write naming A leaves it in
/// the router's cache. Unnamed rows then come through `write_event`
/// without a driver and straight into a shard, across a feed drop and a
/// reboot, and a replace takes video 0's away again; a reboot starts
/// the mirror while the shard's other video has one. Each step, every
/// routed answer and push equals a fresh node's, and the cache holds
/// exactly where the statement's answer cannot have changed.
#[test]
fn a_driver_named_answer_stays_cached_behind_the_router_while_its_kind_has_no_unnamed_rows() {
    const TEXT: &str = "RETRIEVE HIGHLIGHTS WITH DRIVER \"A\"";
    let mut cluster = Cluster::start();
    let home = cluster.shard_of(0);
    let on = |shard_is_home: bool| {
        let mut videos =
            (1..cluster.names.len()).filter(|&v| (cluster.shard_of(v) == home) == shard_is_home);
        videos.next().expect("a video there")
    };
    let (twin, away) = (on(true), on(false));
    let named_a = |start| row("caption:pit_stop", start, Some("A"));
    // Each step, and whether the read of TEXT over the video named after
    // it is a router cache hit. A reconnected feed's mirror lags its
    // handshake, and a reboot starts a new epoch: both miss.
    let script = [
        (Op::Routed(0, named_a(100)), 0, true),
        (Op::Routed(0, row("highlight", 30, None)), 0, false),
        (Op::Routed(0, named_a(200)), 0, false),
        (
            Op::Direct(Commit::Append(away, vec![row("highlight", 40, None)])),
            0,
            true,
        ),
        (
            Op::FeedDrop(home, Commit::Append(0, vec![named_a(150)])),
            0,
            false,
        ),
        (Op::Reboot(home), 0, false),
        (
            Op::Direct(Commit::Replace(
                0,
                vec!["highlight"],
                vec![row("highlight", 60, Some("A"))],
            )),
            0,
            false,
        ),
        (Op::Routed(0, named_a(120)), 0, true),
        (Op::Direct(Commit::Append(0, vec![named_a(300)])), 0, true),
        (Op::Reboot(home), 0, false),
        (Op::Routed(0, named_a(140)), 0, true),
        (Op::Routed(0, row("highlight", 170, None)), 0, false),
        (
            Op::FeedDrop(home, Commit::Append(0, vec![named_a(190)])),
            0,
            false,
        ),
        (Op::Idle, 0, true),
        // An unnamed highlight out of A's view on the shard's other
        // video; the mirror a reboot starts knows of it from the
        // handshake alone, and a row naming A then puts it in view.
        (Op::Routed(twin, row("highlight", 200, None)), twin, false),
        (Op::Reboot(home), twin, false),
        (Op::Routed(twin, named_a(195)), twin, false),
        (Op::Idle, twin, true),
    ];
    cluster.check_reads().unwrap();
    for (i, (op, v, hit)) in script.into_iter().enumerate() {
        cluster.step(op);
        assert_eq!(cluster.router_hit(v, TEXT), hit, "step {}", i + 1);
        cluster.check_pushes().unwrap();
        cluster.check_reads().unwrap();
    }
    cluster.at_rest().unwrap();
}
