//! The repo benchmark. One invocation runs one workload:
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! builds the workload's system, warms it up, measures for `S` seconds,
//! checks that the answers are right, and prints one JSON object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer ones and writes
//! `out/trace-NAME.json`. See `README.md` for what each number means.

mod fixture;
mod gen;
mod ladder;
mod layers;
mod speed;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use f1_cobra::{RetrievedSegment, Vdbms};

use fixture::{store_config, Fixture, Spec, SUB_TEXT, WORKLOADS};
use gen::{Rng, Statement};
use layers::{count_metrics, Counts, Interval};
use speed::Yardstick;
use stats::{median, Windows};
use workload::{check_samples, embedded, run_phase, same_answer, Failures, PhaseResult};

/// Both threads reach their steady state here; nothing is recorded.
const WARMUP: Duration = Duration::from_secs(2);

/// Set-ups per untraced run, of which `setup_s` is the median (each
/// scaled by the slowdown measured around it): at least `MIN_SETUPS`,
/// then more while they have taken less than `SETUP_BUDGET` together, up
/// to `MAX_SETUPS`. A fixture that builds
/// in milliseconds needs more for a median that repeats than one that
/// takes seconds can afford. (Not dozens: memory of earlier set-ups
/// that the allocator keeps would become most of `peak_rss_mb`.)
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// A traced run spends this share of `--seconds` on the two-thread
/// phase its counts come from and the rest on the ladder.
const TRACED_PHASE_SHARE: f64 = 0.4;

/// Statements compared served, routed and embedded at quiescence.
const QUIESCENCE_SAMPLE: usize = 256;

/// Opens of the crash image timed for `store.reopen_ms`.
const REOPENS: usize = 5;

/// Name and unit of every metric, in the order `BENCHMARK.json` lists
/// them (a unit test keeps the two in step).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p95_us", "us"),
    ("read_rps", "1/s"),
    ("scatter_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("router.query_us", "us"),
    ("router.self_us", "us"),
    ("router.version_probes_per_req", "count"),
    ("router.forwards_per_req", "count"),
    ("router.cache_hit_ratio", "ratio"),
    ("serve.query_us", "us"),
    ("serve.ping_us", "us"),
    ("serve.self_us", "us"),
    ("serve.frame_encode_us", "us"),
    ("serve.frame_decode_us", "us"),
    ("serve.reply_bytes", "bytes"),
    ("serve.server_latency_us", "us"),
    ("serve.reactor_wakeups_per_req", "count"),
    ("serve.reactor_events_per_req", "count"),
    ("serve.rejected_per_kreq", "count"),
    ("core.run_us", "us"),
    ("core.self_us", "us"),
    ("core.parse_us", "us"),
    ("core.fetch_us", "us"),
    ("core.json_encode_us", "us"),
    ("core.ingest_chunk_ms", "ms"),
    ("core.ingest_x_realtime", "ratio"),
    ("cache.result_hit_ratio", "ratio"),
    ("cache.plan_hit_ratio", "ratio"),
    ("cache.result_invalidated_per_write", "count"),
    ("cache.coalesced_per_kreq", "count"),
    ("moa.compile_us", "us"),
    ("monet.mil_eval_us", "us"),
    ("monet.select_mil_us", "us"),
    ("monet.op_us.select", "us"),
    ("monet.op_us.join", "us"),
    ("monet.op_us.mirror", "us"),
    ("monet.mil_evals_per_req", "count"),
    ("monet.morsel_rows_per_req", "count"),
    ("monet.index_cache_hit_ratio", "ratio"),
    ("monet.sketch_cache_hit_ratio", "ratio"),
    ("store.store_events_us", "us"),
    ("store.wal_bytes_per_write", "bytes"),
    ("store.wal_fsyncs_per_write", "count"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoint_bytes", "bytes"),
    ("store.reopen_ms", "ms"),
    ("store.replayed_records", "count"),
    ("stream.pushes_per_tagged_write", "count"),
    ("stream.unchanged_per_write", "count"),
    ("stream.skipped", "count"),
    ("gen.late_ratio", "ratio"),
    ("gen.read_p99_us", "us"),
    ("gen.write_p50_us", "us"),
    ("gen.write_p95_us", "us"),
    ("gen.push_p50_us", "us"),
    ("gen.push_p95_us", "us"),
    ("gen.reads", "count"),
    ("gen.scatters", "count"),
    ("gen.writes", "count"),
    ("gen.pushes", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_slowdown", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        values
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let args = Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
        },
    };
    if let Some(extra) = values.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Confines this thread, and with it every thread the benchmark and the
/// program start from here on, to one of the processors the process may
/// run on, and returns which. On the shared two-processor host a request
/// whose client, reactor and worker threads sit on one processor takes
/// ≈ 320 µs, one whose threads the kernel spread over both 320–880 µs
/// depending on where they landed and what the neighbours were doing;
/// which of the two a run got differed from run to run (README.md, "How
/// steady it is"). With one operation in flight at a time a second
/// processor has nothing to add but that.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The highest-numbered one allowed: the lowest ones take more of the
    // host's interrupts.
    for cpu in (0..u64::BITS as usize).rev() {
        let mask: u64 = 1 << cpu;
        // SAFETY: `mask` outlives the call and is the 8 bytes the size
        // argument says; the call only reads it. Pid 0 is the calling
        // thread, and a refused mask (a processor the process may not
        // use) changes nothing and returns -1.
        if unsafe { sched_setaffinity(0, size_of::<u64>(), &mask) } == 0 {
            return Ok(cpu);
        }
    }
    Err("sched_setaffinity: none of processors 0-63 is allowed".into())
}

/// Where this run keeps what it writes: under the benchmark's own
/// directory, whatever the working directory is.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Removes the run's scratch directory when the run ends, however it
/// ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// What the checks after the measured phase found.
#[derive(Default)]
struct Verdict {
    problems: Vec<String>,
    attempted: u64,
    failures: Failures,
    reopen_ms: Vec<f64>,
    replayed: Vec<f64>,
}

/// At quiescence every statement has one right answer: compare the
/// embedded one with what the owning server and the front door serve.
fn check_quiescent(
    fx: &Fixture,
    spec: &Spec,
    seed: u64,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let mut rng = Rng::new(seed ^ 0x5155_4945_5343);
    let n = spec.statements.len();
    let sampled: Vec<&Statement> = if n <= QUIESCENCE_SAMPLE {
        spec.statements.iter().collect()
    } else {
        (0..QUIESCENCE_SAMPLE)
            .map(|_| &spec.statements[rng.below(n)])
            .collect()
    };
    let mut picks: Vec<(&str, &str)> = sampled
        .iter()
        .map(|s| (s.video.as_str(), s.text.as_str()))
        .collect();
    // The cross-video form of the three most popular statements, and
    // what the run changed: the written video and the standing answer.
    picks.extend(
        spec.statements
            .iter()
            .take(3)
            .map(|s| ("*", s.text.as_str())),
    );
    for text in [
        "RETRIEVE PITSTOPS",
        "RETRIEVE PITSTOPS WITH DRIVER \"D3\"",
        SUB_TEXT,
    ] {
        picks.push((&spec.write_video, text));
    }

    let mut front = fx.connect()?;
    let mut direct = fx.connect_shards()?;
    for (video, text) in picks {
        let expected = match embedded(fx, video, text) {
            Ok(expected) => expected,
            Err(e) => {
                verdict
                    .problems
                    .push(format!("embedded '{text}' on '{video}': {e}"));
                continue;
            }
        };
        let mut doors = vec![("front door", &mut front)];
        // Behind a router the owning server is a second way to the same
        // answer (a cross-video statement has no single owner).
        if fx.router.is_some() && video != "*" {
            doors.push(("owning server", &mut direct[fx.owner_index(video)]));
        }
        for (door, client) in doors {
            verdict.attempted += 1;
            match client.query(video, text) {
                Ok(reply) if same_answer(&reply, &expected) => {}
                Ok(_) => verdict.problems.push(format!(
                    "'{text}' on '{video}': the {door} and the embedded answer differ at quiescence"
                )),
                Err(e) => verdict.failures.record("quiescence read", &e),
            }
        }
    }
    Ok(())
}

/// Every acknowledged tagged write must be in the standing answer, and
/// — on a durable workload — in a crash image: the data directory
/// file-copied while the `Vdbms` is still live, right after `flush()`,
/// then opened `reopens` times as a second catalog.
fn check_writes(
    fx: &Fixture,
    spec: &Spec,
    acked_tagged: &[u64],
    scratch: &Path,
    reopens: usize,
    yardstick: &mut Yardstick,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let missing = |answer: &[RetrievedSegment], what: &str, problems: &mut Vec<String>| {
        for &start in acked_tagged {
            if !answer.iter().any(|s| s.start as u64 == start) {
                problems.push(format!(
                    "acknowledged write at clip {start} is missing from {what}"
                ));
            }
        }
    };
    let live = &fx.owner(&spec.write_video).vdbms;
    let answer = live
        .query(&spec.write_video, SUB_TEXT)
        .map_err(|e| format!("standing query at quiescence: {e}"))?;
    missing(&answer, "the live answer", &mut verdict.problems);

    let Some(data_dir) = &fx.data_dir else {
        return Ok(());
    };
    live.flush()
        .map_err(|e| format!("flush before the crash image: {e}"))?;
    let image = scratch.join("crash-image");
    copy_dir(data_dir, &image).map_err(|e| format!("copying the crash image: {e}"))?;
    for i in 0..reopens {
        let (reopened, seconds, _) = yardstick.timed(|| Vdbms::open(&store_config(&image)));
        let reopened = reopened.map_err(|e| format!("opening the crash image: {e}"))?;
        verdict.reopen_ms.push(seconds * 1e3);
        let replayed = reopened.recovery_report().map_or(0, |r| r.replayed);
        verdict.replayed.push(replayed as f64);
        if i == 0 {
            let answer = reopened
                .query(&spec.write_video, SUB_TEXT)
                .map_err(|e| format!("standing query on the crash image: {e}"))?;
            missing(&answer, "the crash image", &mut verdict.problems);
        }
    }
    Ok(())
}

/// Percentile `p` of one operation type over the measured interval,
/// scaled to a quiet host.
fn scaled(phase: &PhaseResult, of: &Windows, p: f64, what: &str) -> Result<f64, String> {
    of.percentile(p, &phase.speed)
        .ok_or_else(|| format!("no {what} inside the measured interval"))
}

/// The generator-side and storage-side per-layer metrics of a traced
/// run (the ladder and the registries supply the rest). `setup_slowdown`
/// is what the set-up that built `fx` was scaled by.
fn generator_metrics(
    fx: &Fixture,
    setup_slowdown: f64,
    phase: &PhaseResult,
    verdict: &Verdict,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let median_or_zero = |values: &[f64]| median(values.to_vec()).unwrap_or(0.0);
    let ingest = fx.ingest.as_ref();
    let of = |windows: &Windows, p: f64, what: &str| scaled(phase, windows, p, what);
    Ok(BTreeMap::from([
        (
            "core.ingest_chunk_ms",
            ingest.map_or(0.0, |i| median_or_zero(&i.chunk_ms) / setup_slowdown),
        ),
        (
            "core.ingest_x_realtime",
            ingest.map_or(0.0, |i| i.x_realtime * setup_slowdown),
        ),
        (
            "store.checkpoint_ms",
            phase
                .checkpoints
                .percentile(0.5, &phase.speed)
                .map_or(0.0, |us| us / 1e3),
        ),
        (
            "store.checkpoint_bytes",
            median_or_zero(&phase.checkpoint_bytes),
        ),
        ("store.reopen_ms", median_or_zero(&verdict.reopen_ms)),
        ("store.replayed_records", median_or_zero(&verdict.replayed)),
        (
            "gen.late_ratio",
            phase.late as f64 / phase.paced.max(1) as f64,
        ),
        ("gen.read_p99_us", of(&phase.reads, 0.99, "reads")?),
        ("gen.write_p50_us", of(&phase.writes, 0.50, "writes")?),
        ("gen.write_p95_us", of(&phase.writes, 0.95, "writes")?),
        ("gen.push_p50_us", of(&phase.pushes, 0.50, "pushes")?),
        ("gen.push_p95_us", of(&phase.pushes, 0.95, "pushes")?),
        ("gen.reads", phase.reads.count() as f64),
        ("gen.scatters", phase.scatters.count() as f64),
        ("gen.writes", phase.writes.count() as f64),
        ("gen.pushes", phase.pushes.count() as f64),
    ]))
}

fn run(args: &Args) -> Result<Value, String> {
    let spec = Spec::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload '{}' (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        )
    })?;
    let cpu = pin_to_one_cpu()?;
    let out = out_dir();
    let scratch = Scratch(out.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("creating {}: {e}", scratch.0.display()))?;
    let broadcast = spec.broadcast();

    // Set-up, several times over; the last system built is the one used.
    let mut yardstick = Yardstick::new();
    let mut setup_s = Vec::new();
    let began = Instant::now();
    let (fx, setup_slowdown) = loop {
        let dir = scratch.0.join(format!("setup-{}", setup_s.len()));
        let (built, seconds, slowdown) =
            yardstick.timed(|| Fixture::build(&spec, broadcast.as_ref(), &dir));
        let built = built?;
        setup_s.push(seconds);
        let enough = setup_s.len() >= MIN_SETUPS
            && (began.elapsed() >= SETUP_BUDGET || setup_s.len() >= MAX_SETUPS);
        if args.trace || enough {
            break (built, slowdown);
        }
        built.shutdown();
    };

    let seconds = Duration::from_secs(args.seconds);
    let measure = if args.trace {
        seconds.mul_f64(TRACED_PHASE_SHARE)
    } else {
        seconds
    };
    // Two checkpoints per run where there is a disk to checkpoint to.
    let checkpoints: Vec<Duration> = match fx.data_dir {
        Some(_) => vec![measure / 3, measure * 2 / 3],
        None => Vec::new(),
    };
    let mut before = None;
    let phase = run_phase(&fx, &spec, args.seed, WARMUP, measure, &checkpoints, || {
        if args.trace {
            before = Some(Counts::take(&fx));
        }
    })?;
    let counts = before.map(|before| Counts::take(&fx).since(&before));

    // Only now: every embedded query below would otherwise be in the
    // counts, and nothing is writing any more.
    let mut verdict = Verdict::default();
    verdict
        .problems
        .extend(check_samples(&fx, &spec, &phase.samples));
    check_quiescent(&fx, &spec, args.seed, &mut verdict)?;
    let reopens = if args.trace { REOPENS } else { 1 };
    check_writes(
        &fx,
        &spec,
        &phase.acked_tagged,
        &scratch.0,
        reopens,
        &mut yardstick,
        &mut verdict,
    )?;

    let slowdown = phase
        .speed
        .slowdown()
        .ok_or("the yardstick never ran inside the measured interval")?;
    let mut attempted = phase.attempted + verdict.attempted;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut ladder_failures = Failures::default();
    let table: &[(&str, &str)] = if let Some(counts) = counts {
        let ladder = ladder::run(&fx, &spec, args.seed)?;
        let trace_path = out.join(format!("trace-{}.json", spec.name));
        ladder
            .trace
            .write(&trace_path)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        attempted += ladder.attempted;
        values.extend(ladder.metrics());
        values.insert("bench.host_slowdown", slowdown);
        values.extend(count_metrics(
            &counts,
            slowdown,
            &Interval {
                reads: (phase.reads.count() + phase.scatters.count()) as f64,
                writes: phase.writes.count() as f64,
                tagged: phase.pushes.count() as f64,
            },
        ));
        values.extend(generator_metrics(&fx, setup_slowdown, &phase, &verdict)?);
        ladder_failures = ladder.failures;
        PER_LAYER
    } else {
        values.extend([
            ("setup_s", median(setup_s.clone()).ok_or("no set-up ran")?),
            ("read_p50_us", scaled(&phase, &phase.reads, 0.50, "reads")?),
            ("read_p95_us", scaled(&phase, &phase.reads, 0.95, "reads")?),
            (
                "read_rps",
                phase
                    .reads
                    .rate(&phase.speed)
                    .ok_or("no reads inside the measured interval")?,
            ),
            (
                "scatter_p50_us",
                scaled(&phase, &phase.scatters, 0.50, "cross-video reads")?,
            ),
            ("peak_rss_mb", peak_rss_mb()?),
        ]);
        END_TO_END
    };
    fx.shutdown();

    let mut failures = Failures::default();
    for part in [phase.failures, verdict.failures, ladder_failures] {
        failures.merge(part);
    }
    failures.print();
    for problem in verdict.problems.iter().take(10) {
        eprintln!("wrong: {problem}");
    }
    eprintln!(
        "{}: seed {} trace {} on processor {cpu}, host slowdown {slowdown:.2} — {} set-ups, {} sampled reads checked, {} problems, {} of {} operations failed",
        spec.name,
        args.seed,
        u8::from(args.trace),
        setup_s.len(),
        phase.samples.len(),
        verdict.problems.len(),
        failures.total(),
        attempted
    );
    let mut metrics = BTreeMap::new();
    for &(name, unit) in table {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        eprintln!("  {name:<36} {value:>14.4} {unit}");
        metrics.insert(name.to_string(), json!({"value": (value), "unit": (unit)}));
    }
    Ok(json!({
        "correct": (verdict.problems.is_empty()),
        "attempted": (attempted),
        "failed": (failures.total()),
        "metrics": (Value::Object(metrics)),
    }))
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the program must name the same metrics with
    /// the same units, or the driver refuses the run.
    #[test]
    fn benchmark_json_lists_the_metrics_the_program_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, printed, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("a workload list")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
