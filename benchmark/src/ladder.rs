//! The layer ladder: one thread, every public boundary, outermost first.
//!
//! After the measured phase of a traced run, a single thread replays
//! the workload's own read stream at each boundary a request crosses —
//! through the router, straight to the owning server, a bare ping, the
//! embedded `Vdbms`, the `PROFILE` span tree underneath it, the kernel —
//! and times each call from outside. The rungs take turns, and each
//! turn takes the next request of the stream rather than the same one
//! again: a repeated request would find the answer its outer rung just
//! cached, and the rungs would stop doing the same work. Caches
//! therefore sit in the state the workload itself leaves them in, and
//! every rung sees `RUNG` requests drawn from the same distribution.
//!
//! A rung's self time is its median minus the median of the rung below
//! it; inside the `PROFILE` tree, where real parent links exist, it is
//! the span's duration minus its children's. The yardstick of `speed.rs`
//! runs once per turn, and every duration reported is divided by the
//! slowdown it measured over the whole ladder; the spans in the trace
//! file are as the clock read them.

use std::collections::BTreeMap;
use std::time::Instant;

use cobra_serve::client::Client;
use cobra_serve::protocol::{encode_frame, ok_response, FrameDecoder};
use f1_cobra::catalog::EventRecord;
use f1_cobra::json::query_output_to_json;
use f1_cobra::{parse_statement, QueryOutput};
use f1_monet::ExecBudget;

use crate::fixture::{Fixture, Spec};
use crate::gen::{ReadStream, Statement, WRITE_BASE_CLIP};
use crate::speed::{slowdown, Yardstick};
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::workload::Failures;

/// Requests replayed per rung.
pub const RUNG: usize = 500;

/// Embedded one-event appends timed for `store.store_events_us`.
const STORE_EVENTS: usize = 200;

pub struct Ladder {
    pub trace: Trace,
    /// `serve.query` durations of the requests that were timed without
    /// recording a span, interleaved with the recorded ones.
    unrecorded_serve_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    /// How much slower than quiet the host was while the ladder ran.
    slowdown: f64,
    pub attempted: u64,
    pub failures: Failures,
}

/// The layer a span name belongs to.
fn layer(name: &str) -> &'static str {
    match name.split(['.', ':']).next().unwrap_or("") {
        "router" => "router",
        "serve" => "serve",
        "moa" => "moa",
        "mil" | "kernel" | "monet" => "monet",
        "store" => "store",
        _ => "core",
    }
}

pub fn run(fx: &Fixture, spec: &Spec, seed: u64) -> Result<Ladder, String> {
    let mut ladder = Ladder::new();
    let mut stream = ReadStream::new(seed, &spec.popularity)
        .enumerate()
        .map(|(req, rank)| (req as u32, &spec.statements[rank]));
    let mut next = || stream.next().expect("the read stream is endless");
    let mut front = match fx.router {
        Some(_) => Some(fx.connect()?),
        None => None,
    };
    let mut direct = fx.connect_shards()?;

    // The rungs take turns, request by request, so that a change in the
    // host's speed half-way through falls on all of them alike.
    let mut yardstick = Yardstick::new();
    let mut yardstick_us = Vec::new();
    for _ in 0..RUNG {
        yardstick_us.push(yardstick.run());
        if let Some(front) = front.as_mut() {
            let (req, s) = next();
            ladder.query("router.query", front, req, s, true);
        }
        for record in [true, false] {
            let (req, s) = next();
            let client = &mut direct[fx.owner_index(&s.video)];
            ladder.query("serve.query", client, req, s, record);
        }
        let (req, _) = next();
        ladder.ping(&mut direct[0], req);
        let (req, s) = next();
        ladder.embedded(fx, req, s)?;
        let (req, s) = next();
        ladder.profile(fx, req, s)?;
    }

    let vdbms = &fx.owner(&spec.write_video).vdbms;
    for i in 0..STORE_EVENTS {
        if i % 10 == 0 {
            yardstick_us.push(yardstick.run());
        }
        ladder.attempted += 1;
        let start = (2 * WRITE_BASE_CLIP) as usize + 2 * i;
        let record = EventRecord {
            kind: "caption:pit_stop".into(),
            start,
            end: start + 1,
            driver: Some("LADDER".into()),
        };
        let t = Instant::now();
        let stored = vdbms.catalog.store_events(&spec.write_video, &[record]);
        let end = Instant::now();
        match stored {
            Ok(()) => {
                ladder
                    .trace
                    .record("store.store_events", t, end, None, i as u32);
            }
            Err(e) => ladder
                .failures
                .note("embedded", format!("store_events: {e}")),
        }
    }
    ladder.slowdown = slowdown(yardstick_us);
    Ok(ladder)
}

impl Ladder {
    fn new() -> Ladder {
        Ladder {
            trace: Trace::new(),
            unrecorded_serve_us: Vec::new(),
            reply_bytes: Vec::new(),
            slowdown: 1.0,
            attempted: 0,
            failures: Failures::default(),
        }
    }

    /// One `Client::query` at a served boundary; `record` = keep a span
    /// (otherwise only the duration, for the tracing-overhead figure).
    fn query(&mut self, name: &str, client: &mut Client, req: u32, s: &Statement, record: bool) {
        self.attempted += 1;
        let t = Instant::now();
        let reply = client.query(&s.video, &s.text);
        let end = Instant::now();
        match reply {
            Ok(_) if record => {
                self.trace.record(name, t, end, None, req);
            }
            Ok(_) => self
                .unrecorded_serve_us
                .push(end.duration_since(t).as_secs_f64() * 1e6),
            Err(e) => self.failures.record(name, &e),
        }
    }

    fn ping(&mut self, client: &mut Client, req: u32) {
        self.attempted += 1;
        let t = Instant::now();
        match client.ping() {
            Ok(()) => {
                self.trace
                    .record("serve.ping", t, Instant::now(), None, req);
            }
            Err(e) => self.failures.record("ping", &e),
        }
    }

    /// The embedded `Vdbms` boundary, then the reply that answer
    /// becomes on the wire, stage by stage.
    fn embedded(&mut self, fx: &Fixture, req: u32, s: &Statement) -> Result<(), String> {
        self.attempted += 1;
        let vdbms = &fx.owner(&s.video).vdbms;
        let t = Instant::now();
        let parsed = parse_statement(&s.text);
        self.trace
            .record("core.parse", t, Instant::now(), None, req);
        if let Err(e) = parsed {
            self.failures
                .note("parse", format!("parse '{}': {e}", s.text));
            return Ok(());
        }
        let t = Instant::now();
        let output = vdbms.run_with_budget(&s.video, &s.text, &ExecBudget::unlimited());
        let end = Instant::now();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                self.failures
                    .note("embedded", format!("run '{}': {e}", s.text));
                return Ok(());
            }
        };
        self.trace.record("core.run", t, end, None, req);
        let t = Instant::now();
        let result = query_output_to_json(&output);
        self.trace
            .record("core.json_encode", t, Instant::now(), None, req);
        let response = ok_response(u64::from(req), result);
        let t = Instant::now();
        let frame = encode_frame(&response).map_err(|e| format!("encoding a reply: {e}"))?;
        self.trace
            .record("serve.frame_encode", t, Instant::now(), None, req);
        self.reply_bytes.push(frame.len() as f64);
        let mut decoder = FrameDecoder::new();
        let t = Instant::now();
        decoder.extend(&frame);
        let decoded = decoder.next_frame();
        self.trace
            .record("serve.frame_decode", t, Instant::now(), None, req);
        if !matches!(decoded, Ok(Some(ref v)) if *v == response) {
            return Err("a reply frame did not decode to what was encoded".into());
        }
        Ok(())
    }

    /// `PROFILE` through the embedded `Vdbms`: the span tree of where
    /// the time went inside, then the MIL text the plan reported,
    /// evaluated at the kernel's own boundary. A request answered from
    /// the cache reports no MIL.
    fn profile(&mut self, fx: &Fixture, req: u32, s: &Statement) -> Result<(), String> {
        self.attempted += 1;
        let vdbms = &fx.owner(&s.video).vdbms;
        let statement = format!("PROFILE {}", s.text);
        let t = Instant::now();
        let output = vdbms.run_with_budget(&s.video, &statement, &ExecBudget::unlimited());
        let end = Instant::now();
        let profile = match output {
            Ok(QueryOutput::Profile(profile)) => profile,
            Ok(_) => return Err("PROFILE answered without a span tree".into()),
            Err(e) => {
                self.failures
                    .note("embedded", format!("'{statement}': {e}"));
                return Ok(());
            }
        };
        let root = self.trace.record("core.profile", t, end, None, req);
        self.trace.graft(&profile.span, root, req);
        let mil = profile
            .span
            .find("moa:compile")
            .and_then(|n| n.meta.iter().find(|(k, _)| k == "mil"));
        if let Some((_, mil)) = mil {
            let t = Instant::now();
            let value = vdbms.kernel().eval_mil(&format!("RETURN {mil};"));
            let end = Instant::now();
            match value {
                Ok(_) => {
                    self.trace.record("monet.select_mil", t, end, None, req);
                }
                Err(e) => self
                    .failures
                    .note("kernel", format!("eval_mil '{mil}': {e}")),
            }
        }
        Ok(())
    }

    /// Median duration of the spans called `name`, counting each of the
    /// `of` requests of the rung that has no such span as zero (a
    /// request answered from a cache never reaches the layers below).
    fn p50_us(&self, name: &str, of: usize) -> f64 {
        let mut durations = self.trace.durations_us(name);
        durations.resize(durations.len().max(of), 0.0);
        median(durations).unwrap_or(0.0)
    }

    /// Per request of the `PROFILE` rung, the self time (µs) `of_layer`
    /// accounts for in that request's span tree.
    fn profile_self_us(&self, of_layer: &str) -> Vec<f64> {
        let mut per_req: BTreeMap<u32, f64> = BTreeMap::new();
        for (span, self_ns) in self.trace.spans.iter().zip(self.trace.self_times_ns()) {
            let in_tree = span.name == "core.profile" || span.parent.is_some();
            if in_tree {
                let sum = per_req.entry(span.req).or_default();
                if layer(&span.name) == of_layer {
                    *sum += self_ns as f64 / 1e3;
                }
            }
        }
        per_req.into_values().collect()
    }

    /// The timing-based per-layer metrics, durations scaled to a quiet
    /// host.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let p50 = |name: &str| self.p50_us(name, 0);
        let in_profile = |name: &str| self.p50_us(name, RUNG);
        let (router, serve, run) = (p50("router.query"), p50("serve.query"), p50("core.run"));
        let unrecorded = median(self.unrecorded_serve_us.clone()).unwrap_or(0.0);
        let mut bytes = self.reply_bytes.clone();
        bytes.sort_by(f64::total_cmp);
        let mut metrics = BTreeMap::from([
            ("router.query_us", router),
            // Zero, not minus the server's time, where no router runs.
            (
                "router.self_us",
                if router > 0.0 { router - serve } else { 0.0 },
            ),
            ("serve.query_us", serve),
            ("serve.ping_us", p50("serve.ping")),
            ("serve.self_us", serve - run),
            ("serve.frame_encode_us", p50("serve.frame_encode")),
            ("serve.frame_decode_us", p50("serve.frame_decode")),
            ("serve.reply_bytes", percentile(&bytes, 0.5).unwrap_or(0.0)),
            ("core.run_us", run),
            (
                "core.self_us",
                median(self.profile_self_us("core")).unwrap_or(0.0),
            ),
            ("core.parse_us", p50("core.parse")),
            ("core.fetch_us", in_profile("fetch:results")),
            ("core.json_encode_us", p50("core.json_encode")),
            ("moa.compile_us", in_profile("moa:compile")),
            ("monet.mil_eval_us", in_profile("mil:eval")),
            ("monet.select_mil_us", in_profile("monet.select_mil")),
            ("monet.op_us.select", in_profile("kernel:select")),
            ("monet.op_us.join", in_profile("kernel:join")),
            ("monet.op_us.mirror", in_profile("kernel:mirror")),
            ("store.store_events_us", p50("store.store_events")),
            (
                "bench.trace_overhead_pct",
                if unrecorded > 0.0 {
                    100.0 * (serve - unrecorded) / unrecorded
                } else {
                    0.0
                },
            ),
        ]);
        for (name, value) in &mut metrics {
            if name.contains("_us") {
                *value /= self.slowdown;
            }
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_obs::SpanNode;
    use std::time::Duration;

    #[test]
    fn span_names_map_to_layers() {
        for (name, expected) in [
            ("router.query", "router"),
            ("serve.frame_encode", "serve"),
            ("core.profile", "core"),
            ("conceptual:select_events", "core"),
            ("filter:driver", "core"),
            ("cache:result", "core"),
            ("moa:compile", "moa"),
            ("mil:eval", "monet"),
            ("kernel:join", "monet"),
            ("monet.select_mil", "monet"),
            ("store.store_events", "store"),
        ] {
            assert_eq!(layer(name), expected, "{name}");
        }
    }

    #[test]
    fn cached_requests_count_as_zero_below_the_cache() {
        let mut ladder = Ladder::new();
        let t0 = Instant::now();
        // Request 0 misses and runs MIL; requests 1 and 2 hit the cache.
        for req in 0..3u32 {
            let start = t0 + Duration::from_micros(1000 * u64::from(req));
            let tree = if req == 0 {
                SpanNode::leaf("query", 100_000).with_child(
                    SpanNode::leaf("conceptual:select_events", 90_000)
                        .with_child(SpanNode::leaf("moa:compile", 10_000))
                        .with_child(SpanNode::leaf("mil:eval", 60_000)),
                )
            } else {
                SpanNode::leaf("query", 5_000).with_child(SpanNode::leaf("cache:result", 2_000))
            };
            let end = start + Duration::from_nanos(tree.elapsed_ns);
            let root = ladder.trace.record("core.profile", start, end, None, req);
            ladder.trace.graft(&tree, root, req);
        }
        assert_eq!(ladder.p50_us("mil:eval", 3), 0.0);
        assert_eq!(ladder.p50_us("mil:eval", 0), 60.0);
        // Core keeps what moa and monet do not cover: 10 + 20 µs on the
        // miss, the whole 5 µs on each hit.
        assert_eq!(ladder.profile_self_us("core"), [30.0, 5.0, 5.0]);
        assert_eq!(ladder.profile_self_us("moa"), [10.0, 0.0, 0.0]);
        assert_eq!(ladder.profile_self_us("monet"), [60.0, 0.0, 0.0]);
    }
}
