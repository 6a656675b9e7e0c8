//! The measured phase: one live session over two connections.
//!
//! One generator thread on every workload. It reads in a closed loop on
//! its first connection: the next statement goes out only after the
//! previous reply (a dashboard or `cobra-cli` caller waits for its
//! answer). On its second connection it has subscribed to a standing
//! query, and whenever a write of its seeded schedule is due it appends
//! one event there, timed from send to ack. A tagged write changes the
//! standing answer, and the session waits for the push that carries it;
//! after an untagged write it sends one cross-video read (`video =
//! "*"`), which has to re-execute on the video just written. Then it
//! goes back to reading. It reports how late its writes left instead of
//! silently slowing down.
//!
//! One operation is in flight at a time. The run is confined to one
//! processor (`main.rs`), where a reader thread beside a writer thread
//! would only take turns with each other and with the program's threads,
//! and every latency would hold somebody else's time slice. It also
//! keeps out a known race: a read that evaluates while another thread
//! appends to the same video can fail (README.md, "Known race"), and the
//! benchmark keeps to workloads on which no operation fails.
//!
//! A reply that is an error, a refusal or a transport failure is never
//! unwrapped: it is counted against the operations attempted (warm-up
//! included), kept out of the latency samples, and its first messages
//! are printed.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::iter::Peekable;
use std::time::{Duration, Instant};

use cobra_serve::client::{Client, ClientError, QueryReply};
use f1_cobra::{QueryOutput, RetrievedSegment, VideoSegments};
use f1_monet::ExecBudget;

use crate::fixture::{Fixture, Spec, SUB_DRIVER, SUB_TEXT};
use crate::gen::{write_schedule, ReadStream, Statement, WriteOp, WRITE_RATE};
use crate::speed::{self, Yardstick};
use crate::stats::Windows;

/// Every this-many-th reply is kept and compared with the embedded
/// answer once the measured interval is over.
const CHECK_EVERY: u64 = 50;

fn micros_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Failed operations by kind, with the first messages of each.
#[derive(Default)]
pub struct Failures {
    by_kind: BTreeMap<String, (u64, Vec<String>)>,
}

impl Failures {
    pub fn record(&mut self, op: &str, error: &ClientError) {
        let kind = match error {
            ClientError::Server { kind, .. } => kind.as_str(),
            ClientError::Transport(_) => "transport",
            ClientError::Protocol(_) => "protocol",
        };
        self.note(kind, format!("{op}: {error}"));
    }

    pub fn note(&mut self, kind: &str, message: String) {
        let entry = self.by_kind.entry(kind.to_string()).or_default();
        entry.0 += 1;
        if entry.1.len() < 3 {
            entry.1.push(message);
        }
    }

    pub fn total(&self) -> u64 {
        self.by_kind.values().map(|(n, _)| n).sum()
    }

    pub fn merge(&mut self, other: Failures) {
        for (kind, (n, messages)) in other.by_kind {
            let entry = self.by_kind.entry(kind).or_default();
            entry.0 += n;
            let room = 3usize.saturating_sub(entry.1.len());
            entry.1.extend(messages.into_iter().take(room));
        }
    }

    /// One line per kind plus its first three messages, on stderr.
    pub fn print(&self) {
        for (kind, (n, messages)) in &self.by_kind {
            eprintln!("failed [{kind}] x{n}");
            for m in messages {
                eprintln!("    {m}");
            }
        }
    }
}

/// Digest of an answer: what is kept of a sampled reply, so that the
/// memory the samples take does not grow with the size of the answers
/// and show up in `peak_rss_mb`.
fn digest<'a>(segments: impl Iterator<Item = &'a RetrievedSegment>) -> u64 {
    let mut hasher = DefaultHasher::new();
    let mut n = 0u64;
    for s in segments {
        (s.start, s.end, &s.label, &s.driver).hash(&mut hasher);
        n += 1;
    }
    n.hash(&mut hasher);
    hasher.finish()
}

/// A reply kept for checking after the run.
pub struct Sample {
    pub rank: usize,
    pub digest: u64,
    /// The session's events at clips from here on were not yet written
    /// when the read was sent.
    pub written_below: u64,
}

/// What the session measured and has to be checked.
pub struct PhaseResult {
    pub reads: Windows,
    pub writes: Windows,
    pub pushes: Windows,
    pub scatters: Windows,
    pub checkpoints: Windows,
    /// The yardstick's times beside them (`speed.rs`).
    pub speed: Windows,
    /// Operations sent, warm-up included.
    pub attempted: u64,
    pub failures: Failures,
    /// Every `CHECK_EVERY`-th reply to a read, measured or not.
    pub samples: Vec<Sample>,
    /// Paced writes inside the measured interval, and how many of them
    /// left more than one interval after they were due.
    pub paced: u64,
    pub late: u64,
    /// Acknowledged tagged writes: each must be in the standing answer
    /// at the end, and in the crash image.
    pub acked_tagged: Vec<u64>,
    pub checkpoint_bytes: Vec<f64>,
}

/// The embedded answer to `text` on `video` (`"*"` = every video of
/// every shard, in video-name order, as the router merges them).
pub fn embedded(fx: &Fixture, video: &str, text: &str) -> Result<QueryOutput, String> {
    let budget = ExecBudget::unlimited();
    if video != "*" {
        return fx
            .owner(video)
            .vdbms
            .run_with_budget(video, text, &budget)
            .map_err(|e| e.to_string());
    }
    let mut groups: Vec<VideoSegments> = Vec::new();
    for shard in &fx.shards {
        match shard.vdbms.run_multi_with_budget(text, &budget) {
            Ok(QueryOutput::Multi(g)) => groups.extend(g),
            Ok(_) => return Err("cross-video query answered a non-multi shape".into()),
            Err(e) => return Err(e.to_string()),
        }
    }
    groups.sort_by(|a, b| a.video.cmp(&b.video));
    Ok(QueryOutput::Multi(groups))
}

/// True when a served reply carries exactly the embedded answer.
pub fn same_answer(reply: &QueryReply, expected: &QueryOutput) -> bool {
    match (reply, expected) {
        (QueryReply::Segments(a), QueryOutput::Segments(b)) => a == b,
        (QueryReply::Multi(a), QueryOutput::Multi(b)) => a == b,
        _ => false,
    }
}

/// The sampled replies against the embedded answers. Run it when
/// nothing is writing any more: what a reply should have held is the
/// final answer less the events written after the read was sent (the
/// session only ever appends, at rising clip positions). Checking inside
/// the loop instead would put one embedded query per sample into the
/// program's own counters and into the closed loop.
pub fn check_samples(fx: &Fixture, spec: &Spec, samples: &[Sample]) -> Vec<String> {
    let mut finals: BTreeMap<usize, Result<Vec<RetrievedSegment>, String>> = BTreeMap::new();
    let mut problems = Vec::new();
    for sample in samples {
        let Statement { video, text } = &spec.statements[sample.rank];
        let expected =
            finals
                .entry(sample.rank)
                .or_insert_with(|| match embedded(fx, video, text)? {
                    QueryOutput::Segments(segments) => Ok(segments),
                    _ => Err("answered another shape than segments".to_string()),
                });
        match expected {
            Ok(expected) => {
                let then = expected
                    .iter()
                    .filter(|s| (s.start as u64) < sample.written_below);
                if digest(then) != sample.digest {
                    problems.push(format!(
                        "served answer to '{text}' on '{video}' differs from the embedded one"
                    ));
                }
            }
            Err(e) => problems.push(format!("embedded '{text}' on '{video}': {e}")),
        }
    }
    problems
}

/// Runs warm-up then the measured interval. `checkpoints` are offsets
/// into the measured interval at which the session asks for a storage
/// checkpoint; `at_measure_start` runs between the two.
pub fn run_phase(
    fx: &Fixture,
    spec: &Spec,
    seed: u64,
    warmup: Duration,
    measure: Duration,
    checkpoints: &[Duration],
    at_measure_start: impl FnOnce(),
) -> Result<PhaseResult, String> {
    let mut write_client = fx.connect()?;
    write_client
        .subscribe(&spec.write_video, SUB_TEXT)
        .map_err(|e| format!("subscribing on '{}': {e}", spec.write_video))?;
    let schedule = write_schedule(seed, warmup + measure, spec.scatter_texts.len());
    let begin = Instant::now();
    let measured_from = begin + warmup;
    let end = measured_from + measure;
    let checkpoints: Vec<Instant> = checkpoints.iter().map(|&d| measured_from + d).collect();
    let windows = || Windows::new(measured_from, measure);
    let mut session = Session {
        spec,
        read_client: fx.connect()?,
        write_client,
        stream: ReadStream::new(seed, &spec.popularity),
        schedule: schedule.iter().enumerate().peekable(),
        checkpoints: checkpoints.iter().peekable(),
        begin,
        answered: 0,
        yardstick: Yardstick::new(),
        yardstick_ran: begin,
        out: PhaseResult {
            reads: windows(),
            writes: windows(),
            pushes: windows(),
            scatters: windows(),
            checkpoints: windows(),
            speed: windows(),
            attempted: 0,
            failures: Failures::default(),
            samples: Vec::new(),
            paced: 0,
            late: 0,
            acked_tagged: Vec::new(),
            checkpoint_bytes: Vec::new(),
        },
    };
    session.run_until(measured_from);
    at_measure_start();
    session.run_until(end);
    Ok(session.out)
}

/// The live session: the seed's statement stream over one connection,
/// its write schedule over the subscribed other.
struct Session<'a> {
    spec: &'a Spec,
    read_client: Client,
    write_client: Client,
    stream: ReadStream<'a>,
    schedule: Peekable<std::iter::Enumerate<std::slice::Iter<'a, WriteOp>>>,
    checkpoints: Peekable<std::slice::Iter<'a, Instant>>,
    begin: Instant,
    answered: u64,
    yardstick: Yardstick,
    yardstick_ran: Instant,
    out: PhaseResult,
}

impl Session<'_> {
    /// Every write due before `until`, reading in between and after the
    /// last of them up to `until`.
    fn run_until(&mut self, until: Instant) {
        let begin = self.begin;
        while let Some((k, op)) = self.schedule.next_if(|(_, op)| begin + op.due < until) {
            self.read_until(begin + op.due, op.start);
            self.write(k, op);
        }
        let next_write = self.schedule.peek().map_or(u64::MAX, |(_, op)| op.start);
        self.read_until(until, next_write);
    }

    /// Sends reads one after the other until `until`; a read under way
    /// at `until` is finished. The session has written no event at clip
    /// `written_below` or beyond yet.
    fn read_until(&mut self, until: Instant, written_below: u64) {
        loop {
            let mut sent = Instant::now();
            if sent.duration_since(self.yardstick_ran) >= speed::EVERY {
                let micros = self.yardstick.run();
                self.out.speed.record(sent, micros);
                sent = Instant::now();
                self.yardstick_ran = sent;
            }
            if sent >= until {
                return;
            }
            let rank = self.stream.next().expect("the read stream is endless");
            let Statement { video, text } = &self.spec.statements[rank];
            self.out.attempted += 1;
            let reply = self.read_client.query(video, text);
            let micros = micros_since(sent);
            match reply {
                Ok(QueryReply::Segments(segments)) => {
                    self.out.reads.record(sent, micros);
                    self.answered += 1;
                    if self.answered.is_multiple_of(CHECK_EVERY) {
                        self.out.samples.push(Sample {
                            rank,
                            digest: digest(segments.iter()),
                            written_below,
                        });
                    }
                }
                Ok(_) => self.out.failures.note(
                    "protocol",
                    format!("read '{text}' on '{video}' answered another shape than segments"),
                ),
                Err(e) => self.out.failures.record("read", &e),
            }
        }
    }

    /// The `k`-th write of the schedule, which is due now, and what
    /// follows it: the push it owes or one cross-video read.
    fn write(&mut self, k: usize, op: &WriteOp) {
        let (spec, out, client) = (self.spec, &mut self.out, &mut self.write_client);
        let due = self.begin + op.due;
        if self.checkpoints.next_if(|&&at| at <= due).is_some() {
            out.attempted += 1;
            let t = Instant::now();
            match client.checkpoint() {
                Ok(summary) => {
                    out.checkpoints.record(t, micros_since(t));
                    let bytes = summary.get("bytes_written").and_then(|v| v.as_f64());
                    out.checkpoint_bytes.push(bytes.unwrap_or(0.0));
                }
                Err(e) => out.failures.record("checkpoint", &e),
            }
        }
        let sent = Instant::now();
        if out.writes.covers(sent) {
            out.paced += 1;
            let interval = Duration::from_secs_f64(1.0 / WRITE_RATE);
            out.late += u64::from(sent.duration_since(due) > interval);
        }
        out.attempted += 1;
        let driver = if op.tagged {
            SUB_DRIVER.to_string()
        } else {
            format!("D{}", k % 4)
        };
        let ack = client.write_event(
            &spec.write_video,
            "caption:pit_stop",
            op.start,
            op.start + 1,
            Some(&driver),
        );
        if let Err(e) = ack {
            out.failures.record("write", &e);
            return;
        }
        out.writes.record(sent, micros_since(sent));
        out.attempted += 1;
        if op.tagged {
            out.acked_tagged.push(op.start);
            // The push owed for this write is the delta that adds its
            // segment. (Not "the first delta at or past the ack's
            // data_version": the router stamps a delta with the version
            // it probed *before* evaluating, which can predate a write
            // the evaluation already saw.)
            loop {
                match client.next_push() {
                    Ok(push) if push.added.iter().any(|s| s.start as u64 == op.start) => {
                        out.pushes.record(sent, micros_since(sent));
                        break;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        out.failures.record("push", &e);
                        break;
                    }
                }
            }
        } else {
            let text = &spec.scatter_texts[op.rank];
            let sent = Instant::now();
            match client.query("*", text) {
                Ok(_) => out.scatters.record(sent, micros_since(sent)),
                Err(e) => out.failures.record("scatter", &e),
            }
        }
    }
}
