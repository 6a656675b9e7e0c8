//! Closed- and open-loop load generator for the serve experiments.
//!
//! `clients` threads each open one session and issue
//! `requests_per_client` queries, cycling through a query mix. Latency
//! is recorded per successful request (exact percentiles from the
//! sorted vector — no histogram bucketing error in the report);
//! rejections are counted by type. An `overloaded` answer is followed
//! by bounded exponential backoff ([`crate::scheduler::overload_backoff`],
//! reset on the next success), which is the cooperative reaction the
//! admission-control contract asks of clients.
//!
//! [`connection_sweep`] measures the other axis: not how fast requests
//! complete, but how many *connections* the server can hold. It ramps a
//! population of idle connections through configured levels while a
//! small closed-loop core keeps issuing queries, and reports per-level
//! server-visible RSS — a per-idle-connection cost near two stack sizes
//! would betray a thread-per-connection server; the reactor should hold
//! an idle connection for roughly one fd plus bookkeeping.
//!
//! By default the loop is *closed*: each client fires its next request
//! the moment the previous answer lands, so offered load adapts to the
//! server. [`LoadConfig::arrival_rps`] switches to an *open* loop: the
//! target rate is split evenly across clients and each request is
//! fired on a fixed schedule regardless of how the previous one fared,
//! with latency measured from the request's *scheduled* arrival time —
//! a server that falls behind the arrival rate shows the backlog as
//! growing latency instead of quietly slowing the generator down
//! (coordinated omission).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::client::{Client, ClientError, RequestOpts};
use crate::protocol::ErrorKind;

/// Shape of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// The catalog video every query targets.
    pub video: String,
    /// Statements cycled per request (client k starts at offset k).
    pub queries: Vec<String>,
    /// Optional per-request deadline.
    pub deadline_ms: Option<u64>,
    /// Number of distinct query texts to synthesize (the `--distinct`
    /// knob). `0` keeps the legacy behavior: cycle `queries` verbatim.
    /// Otherwise each request picks rank `r < distinct` and appends a
    /// driver variant to a base query, so `distinct = 1` is an all-hot
    /// (maximally cacheable/coalescable) workload and a large value
    /// approaches all-cold.
    pub distinct: usize,
    /// Zipf skew exponent for rank selection when `distinct > 0`;
    /// `None` draws ranks uniformly. Realistic hot-key traffic is
    /// `Some(1.0)`-ish: rank r drawn with weight 1/(r+1)^s.
    pub zipf: Option<f64>,
    /// Base seed mixed into every client's rank sampler, so two runs
    /// with the same seed offer the same request sequence and two
    /// seeds offer different ones.
    pub seed: u64,
    /// Open-loop arrival rate in requests/second, split evenly across
    /// clients; `None` keeps the closed loop.
    pub arrival_rps: Option<f64>,
}

/// Deterministic per-client rank sampler over `[0, distinct)`:
/// uniform, or Zipf(s) by inverse-CDF over precomputed weights. A tiny
/// xorshift PRNG keeps runs reproducible without a rand dependency.
struct RankSampler {
    cdf: Vec<f64>,
    state: u64,
}

impl RankSampler {
    fn new(distinct: usize, zipf: Option<f64>, seed: u64) -> Self {
        let s = zipf.unwrap_or(0.0);
        let mut cdf = Vec::with_capacity(distinct);
        let mut total = 0.0;
        for r in 0..distinct {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for w in &mut cdf {
            *w /= total;
        }
        RankSampler {
            cdf,
            state: seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
        }
    }

    fn next(&mut self) -> usize {
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let u = (self.state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Clients that ran.
    pub clients: usize,
    /// Requests issued.
    pub total: usize,
    /// Successful answers.
    pub ok: usize,
    /// Typed `overloaded` rejections.
    pub overloaded: usize,
    /// Typed `deadline` cancellations.
    pub deadline: usize,
    /// Anything else (transport failures, internal errors) — the load
    /// acceptance criterion requires this to be zero.
    pub errors: usize,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Sorted per-request latencies of successful answers, microseconds.
    pub latencies_us: Vec<u64>,
}

impl LoadReport {
    /// Exact latency percentile (`p` in `0.0..=1.0`) over the successful
    /// answers, microseconds; 0 when nothing succeeded.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = ((self.latencies_us.len() - 1) as f64 * p).round() as usize;
        self.latencies_us[rank]
    }

    /// Successful requests per second over the run.
    pub fn throughput_rps(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs the closed loop against `addr` and aggregates the outcome.
pub fn run(addr: SocketAddr, config: &LoadConfig) -> LoadReport {
    let ok = Arc::new(AtomicUsize::new(0));
    let overloaded = Arc::new(AtomicUsize::new(0));
    let deadline = Arc::new(AtomicUsize::new(0));
    let errors = Arc::new(AtomicUsize::new(0));
    let latencies = Arc::new(Mutex::new(Vec::new()));

    let started = Instant::now();
    let threads: Vec<_> = (0..config.clients)
        .map(|k| {
            let config = config.clone();
            let (ok, overloaded, deadline, errors, latencies) = (
                Arc::clone(&ok),
                Arc::clone(&overloaded),
                Arc::clone(&deadline),
                Arc::clone(&errors),
                Arc::clone(&latencies),
            );
            std::thread::spawn(move || {
                let Ok(mut client) = Client::connect(addr) else {
                    errors.fetch_add(config.requests_per_client, Ordering::Relaxed);
                    return;
                };
                let mut mine = Vec::with_capacity(config.requests_per_client);
                let mut sampler = (config.distinct > 0).then(|| {
                    RankSampler::new(
                        config.distinct,
                        config.zipf,
                        config.seed.wrapping_add(k as u64).wrapping_add(1),
                    )
                });
                // Open loop: this client's fixed inter-arrival gap.
                let gap = config
                    .arrival_rps
                    .filter(|r| *r > 0.0)
                    .map(|r| Duration::from_secs_f64(config.clients as f64 / r));
                let opened = Instant::now();
                let mut rejections_in_a_row = 0u32;
                for i in 0..config.requests_per_client {
                    let text = match &mut sampler {
                        // Distinct regime: a driver-variant suffix makes
                        // rank r a distinct normalized query text.
                        Some(s) => {
                            let r = s.next();
                            let base = &config.queries[r % config.queries.len()];
                            format!("{base} WITH DRIVER \"Z{r}\"")
                        }
                        None => config.queries[(k + i) % config.queries.len()].clone(),
                    };
                    let opts = RequestOpts {
                        deadline_ms: config.deadline_ms,
                        fuel: None,
                    };
                    // Open loop: wait for the schedule slot, then charge
                    // latency from the slot — a late send *is* latency.
                    let t = match gap {
                        Some(gap) => {
                            let due = opened + gap.mul_f64(i as f64);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            due
                        }
                        None => Instant::now(),
                    };
                    match client.query_opts(&config.video, &text, opts) {
                        Ok(_) => {
                            mine.push(t.elapsed().as_micros() as u64);
                            ok.fetch_add(1, Ordering::Relaxed);
                            rejections_in_a_row = 0;
                        }
                        Err(e) => match e.server_kind() {
                            Some(ErrorKind::Overloaded) => {
                                overloaded.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(crate::scheduler::overload_backoff(
                                    rejections_in_a_row,
                                ));
                                rejections_in_a_row += 1;
                            }
                            Some(ErrorKind::Deadline) => {
                                deadline.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                    }
                }
                latencies.lock().expect("latency vec").extend(mine);
            })
        })
        .collect();
    for t in threads {
        let _ = t.join();
    }
    let elapsed = started.elapsed();

    let mut latencies_us = std::mem::take(&mut *latencies.lock().expect("latency vec"));
    latencies_us.sort_unstable();
    LoadReport {
        clients: config.clients,
        total: config.clients * config.requests_per_client,
        ok: ok.load(Ordering::Relaxed),
        overloaded: overloaded.load(Ordering::Relaxed),
        deadline: deadline.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed,
        latencies_us,
    }
}

/// Resident set size of this process in bytes, from `/proc/self/statm`
/// (0 where procfs is unavailable). The serve experiment runs server
/// and generator in one process, so this covers both sides — an idle
/// client-side `TcpStream` is one fd, so the delta per held connection
/// is dominated by the server's cost, which is the number under test.
pub fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

/// One level of a [`connection_sweep`]: the idle population held, what
/// holding it cost, and how the active core fared meanwhile.
#[derive(Debug, Clone)]
pub struct SweepLevel {
    /// Idle connections held at this level (fewer than asked for when
    /// the fd limit or the accept backlog cut the ramp short).
    pub connections: usize,
    /// Resident set size of the process with the population held.
    pub rss_total_bytes: u64,
    /// RSS growth over the pre-sweep baseline, per held connection.
    pub rss_per_idle_conn_bytes: u64,
    /// The active core's run at this level.
    pub active: LoadReport,
}

/// Ramps a mostly-idle connection population through `levels` while a
/// small active core (shaped by `active`) keeps querying, and reports
/// per-level RSS and active-core latency. Idle connections are plain
/// TCP connects that never send a frame; they are held open across
/// levels (the ramp only ever grows) and closed when the sweep returns.
pub fn connection_sweep(
    addr: SocketAddr,
    levels: &[usize],
    active: &LoadConfig,
) -> Vec<SweepLevel> {
    let baseline = rss_bytes();
    let mut idle: Vec<std::net::TcpStream> = Vec::new();
    let mut out = Vec::new();
    for &level in levels {
        while idle.len() < level {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => idle.push(s),
                Err(_) => break, // fd limit or backlog — report what we hold
            }
        }
        // Let the reactor accept and register the new arrivals before
        // sampling memory.
        std::thread::sleep(Duration::from_millis(200));
        let held = idle.len();
        let rss = rss_bytes();
        out.push(SweepLevel {
            connections: held,
            rss_total_bytes: rss,
            rss_per_idle_conn_bytes: rss.saturating_sub(baseline) / held.max(1) as u64,
            active: run(addr, active),
        });
    }
    out
}

/// Handles `ClientError` classification for callers that use the raw
/// API (kept next to [`run`] so the mapping stays in one place).
pub fn classify_client_error(e: &ClientError) -> &'static str {
    match e.server_kind() {
        Some(ErrorKind::Overloaded) => "overloaded",
        Some(ErrorKind::Deadline) => "deadline",
        Some(_) => "server_error",
        None => "transport",
    }
}
