//! The cost-based optimizer's query-layer surface: `EXPLAIN`'s
//! before/after plan view (rule-based vs chosen, per-node estimates),
//! plan-cache behaviour across cold, warm, and post-cost-model-refresh
//! lookups, and result-identity of planned queries.

use cobra_obs::SpanNode;
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::{QueryOutput, Vdbms};

/// A catalog-only fixture with a handful of events.
fn fixture() -> Vdbms {
    let vdbms = Vdbms::try_new().unwrap();
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: "v".into(),
            n_clips: 200,
            n_frames: 200 * 25 / 10,
        })
        .expect("register test video");
    let ev = |kind: &str, start: usize, end: usize, driver: Option<&str>| EventRecord {
        kind: kind.into(),
        start,
        end,
        driver: driver.map(str::to_string),
    };
    vdbms
        .catalog
        .store_events(
            "v",
            &[
                ev("highlight", 10, 40, None),
                ev("highlight", 60, 80, Some("MONTOYA")),
                ev("fly_out", 15, 25, Some("SCHUMACHER")),
                ev("caption:pit_stop", 20, 35, Some("MONTOYA")),
            ],
        )
        .unwrap();
    vdbms
}

fn explain(vdbms: &Vdbms, q: &str) -> SpanNode {
    match vdbms.run("v", &format!("EXPLAIN {q}")).unwrap() {
        QueryOutput::Plan(span) => span,
        other => panic!("EXPLAIN returned {other:?}"),
    }
}

fn meta<'a>(node: &'a SpanNode, key: &str) -> &'a str {
    node.meta
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("node {} missing meta '{key}'", node.name))
}

#[test]
fn explain_shows_rule_based_and_chosen_plans_with_estimates() {
    let vdbms = fixture();
    let plan = explain(&vdbms, "RETRIEVE HIGHLIGHTS");
    let rule_based = plan.find("plan:rule_based").expect("rule-based view");
    let chosen = plan.find("plan:chosen").expect("chosen view");

    // Both sides carry a cost estimate and a node-by-node rendering
    // with cardinalities.
    let baseline_cost: f64 = meta(rule_based, "est_cost_ns").parse().unwrap();
    let chosen_cost: f64 = meta(chosen, "est_cost_ns").parse().unwrap();
    assert!(baseline_cost >= 0.0);
    assert!(
        chosen_cost <= baseline_cost,
        "the planner must never pick a plan it estimates as worse: {chosen_cost} > {baseline_cost}"
    );
    for view in [rule_based, chosen] {
        let nodes = meta(view, "nodes");
        assert!(nodes.contains("collection:v.ev.kind"), "{nodes}");
        assert!(nodes.contains("select"), "{nodes}");
        assert!(nodes.contains("rows="), "{nodes}");
        assert!(nodes.contains("ns="), "{nodes}");
    }
    // The threadcnt decision and its reasoning are visible.
    let threads: usize = meta(chosen, "threads").parse().unwrap();
    assert!(threads >= 1);
    assert!(meta(chosen, "rationale").contains("threadcnt"));
}

#[test]
fn explain_reports_cold_then_warm_then_regenerated_plan_cache() {
    let vdbms = fixture();

    // Cold: nothing cached at generation 0.
    let plan = explain(&vdbms, "RETRIEVE HIGHLIGHTS");
    let compile = plan.find("moa:compile").unwrap();
    assert_eq!(meta(compile, "cache"), "miss");
    assert_eq!(meta(compile, "generation"), "0");

    // Warm: executing the query populates the plan cache, EXPLAIN sees
    // the hit without executing anything itself.
    vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();
    let plan = explain(&vdbms, "RETRIEVE HIGHLIGHTS");
    assert_eq!(meta(plan.find("moa:compile").unwrap(), "cache"), "hit");

    // A cost-model refresh advances the generation: the cached plan is
    // orphaned and the next lookup must replan.
    let generation = vdbms.refresh_plan_costs();
    let plan = explain(&vdbms, "RETRIEVE HIGHLIGHTS");
    let compile = plan.find("moa:compile").unwrap();
    assert_eq!(meta(compile, "cache"), "miss");
    assert_eq!(meta(compile, "generation"), generation.to_string());

    // Re-executing recompiles under the new generation and warms it
    // up. (A distinct query text dodges the result cache — the plan
    // cache is keyed by event kind, so EXPLAIN RETRIEVE HIGHLIGHTS
    // still sees the recompiled plan.)
    vdbms
        .query("v", "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\"")
        .unwrap();
    let plan = explain(&vdbms, "RETRIEVE HIGHLIGHTS");
    assert_eq!(meta(plan.find("moa:compile").unwrap(), "cache"), "hit");
}

#[test]
fn cost_model_refresh_recompiles_plans_and_keeps_answers_identical() {
    let vdbms = fixture();
    let before_refresh = vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();
    let misses = |v: &Vdbms| {
        v.kernel()
            .metrics()
            .registry()
            .snapshot()
            .counter("cache.plan", &[("result", "miss")])
    };
    let baseline_misses = misses(&vdbms);

    // Warm plan cache: a different query over the same event kind (its
    // own result-cache entry, same plan key) compiles nothing.
    vdbms
        .query("v", "RETRIEVE HIGHLIGHTS WITH DRIVER \"MONTOYA\"")
        .unwrap();
    assert_eq!(misses(&vdbms), baseline_misses, "warm run must hit");

    // Invalidate the result cache with an unrelated re-annotation (a
    // whole-layer change: every guard over the video moves; highlight
    // answers are untouched), then refresh the cost model: the re-run
    // must replan — a plan-cache miss — and still return byte-identical
    // results. (An unrelated append would leave the highlight answer
    // cached: its guard reads only highlight rows.)
    vdbms
        .catalog
        .store_events(
            "v",
            &[EventRecord {
                kind: "caption:final_lap".into(),
                start: 150,
                end: 160,
                driver: None,
            }],
        )
        .unwrap();
    vdbms
        .catalog
        .replace_events("v", &["caption:final_lap"], &[])
        .unwrap();
    vdbms.refresh_plan_costs();
    let after_refresh = vdbms.query("v", "RETRIEVE HIGHLIGHTS").unwrap();
    assert!(misses(&vdbms) > baseline_misses, "refresh must replan");
    assert_eq!(before_refresh, after_refresh);

    // The regeneration is visible in the generation gauge.
    let snap = vdbms.kernel().metrics().registry().snapshot();
    assert_eq!(snap.gauge("cache.plan.generation", &[]), 1);
}

#[test]
fn explain_never_executes_or_skews_plan_cache_counters() {
    let vdbms = fixture();
    let counters = |v: &Vdbms| {
        let snap = v.kernel().metrics().registry().snapshot();
        (
            snap.counter("cache.plan", &[("result", "hit")]),
            snap.counter("cache.plan", &[("result", "miss")]),
            snap.counter("mil.evals", &[]),
        )
    };
    let before = counters(&vdbms);
    explain(&vdbms, "RETRIEVE HIGHLIGHTS");
    explain(&vdbms, "RETRIEVE PITSTOPS");
    assert_eq!(counters(&vdbms), before, "EXPLAIN must be read-only");
}

/// The shape of the benchmark's race-length video: one event per three
/// clips, kinds cycling, each consecutive triple sharing a driver.
fn race_length(kinds: usize, drivers: usize) -> Vdbms {
    const EVENTS: usize = 18_000;
    let vdbms = Vdbms::try_new().unwrap();
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: "v".into(),
            n_clips: EVENTS * 3,
            n_frames: EVENTS * 3 * 25 / 10,
        })
        .expect("register test video");
    let kind = |k: usize| match k {
        0 => "highlight".to_string(),
        1 => "excited".to_string(),
        2 => "caption:pit_stop".to_string(),
        k => format!("k{k}"),
    };
    let events: Vec<EventRecord> = (0..EVENTS)
        .map(|i| EventRecord {
            kind: kind(i % kinds),
            start: i * 3,
            end: i * 3 + 2,
            driver: Some(format!("D{}", (i / 3) % drivers)),
        })
        .collect();
    vdbms.catalog.store_events("v", &events).unwrap();
    vdbms
}

/// Cache-missing driver-filtered reads are O(answer), stated as counts,
/// which repeat exactly, not as timings. The first read of a layer
/// builds the driver column's value index in one pass over its 18,000
/// rows; every later read of that layer probes the index and scans no
/// row of the column, only the rows the probe kept; an append makes one
/// rebuild. Each read is one MIL evaluation.
#[test]
fn cold_driver_reads_are_one_evaluation_over_one_value_index() {
    let vdbms = race_length(3, 4_096);
    let registry = vdbms.kernel().metrics().registry();
    // The rows naming `D{d}`: the fetch of the kind field at the rows
    // the probe kept, and the selection on what it fetched, walk each
    // of them once.
    let naming = |d: usize| (0..18_000).filter(|i| (i / 3) % 4_096 == d).count() as u64;
    let read = |d: usize| {
        let name = format!("D{d}");
        let before = registry.snapshot();
        let got = vdbms
            .query("v", &format!("RETRIEVE HIGHLIGHTS WITH DRIVER \"{name}\""))
            .unwrap();
        assert!(got
            .iter()
            .all(|s| s.driver.as_deref() == Some(name.as_str())));
        let delta = registry.snapshot().delta(&before);
        assert_eq!(delta.counter("mil.evals", &[]), 1, "{name}");
        let uses = |result| delta.counter("kernel.index_cache", &[("result", result)]);
        let scanned = delta.counter("kernel.morsel_rows", &[]);
        (got, (uses("miss"), uses("hit")), scanned)
    };

    let (got, uses, scanned) = read(17);
    let starts: Vec<usize> = got.iter().map(|s| s.start).collect();
    assert_eq!(starts, [153, 37_017], "events 51 and 12,339");
    assert_eq!(uses, (1, 0), "the first read builds the index");
    assert_eq!(
        scanned,
        18_000 + 2 * naming(17),
        "one build pass, then six rows"
    );

    for d in [18, 2_000, 4_095] {
        let (_, uses, scanned) = read(d);
        assert_eq!(uses, (0, 1), "D{d} probes the cached index");
        assert_eq!(scanned, 2 * naming(d), "D{d} scans no row of the column");
    }

    // An append grows the unshared layer in place and extends the
    // cached index by its row: the read after it probes the index,
    // rebuilds nothing, and sees the new row.
    let appended = EventRecord {
        kind: "highlight".into(),
        start: 100,
        end: 101,
        driver: Some("D5".into()),
    };
    vdbms.catalog.store_events("v", &[appended]).unwrap();
    let (got, uses, _) = read(5);
    assert_eq!(uses, (0, 1), "the append left the index cached");
    assert_eq!(got.last().map(|s| s.start), Some(100));
    let (_, uses, _) = read(6);
    assert_eq!(uses, (0, 1));
}

/// The plan is chosen per (video, kind), never per driver: a stream of
/// distinct names compiles each kind once.
#[test]
fn distinct_drivers_share_one_plan_per_kind() {
    let vdbms = race_length(3, 4_096);
    let read = |drivers: std::ops::Range<usize>| {
        for d in drivers {
            for target in ["HIGHLIGHTS", "EXCITED", "PITSTOPS"] {
                let text = format!("RETRIEVE {target} WITH DRIVER \"D{d}\"");
                assert!(!vdbms.query("v", &text).unwrap().is_empty(), "{text}");
            }
        }
    };
    // Enough evaluations first that the doubling refresh policy stays
    // out of the measured stretch; then start it on a new generation.
    read(1_000..1_128);
    vdbms.refresh_plan_costs();
    let misses = || {
        let snap = vdbms.kernel().metrics().registry().snapshot();
        snap.counter("cache.plan", &[("result", "miss")])
    };
    let before = misses();
    read(0..64);
    assert_eq!(misses() - before, 3, "one compilation per kind");
}

#[test]
fn explain_starts_the_conjunction_from_its_most_selective_field() {
    let first_node = |view: &SpanNode| {
        let nodes = meta(view, "nodes");
        nodes.split('[').next().unwrap().to_string()
    };
    let cost = |view: &SpanNode| meta(view, "est_cost_ns").parse::<f64>().unwrap();

    // Three kinds, 4,096 drivers: start from the driver's few rows.
    let vdbms = race_length(3, 4_096);
    let plan = explain(&vdbms, "RETRIEVE HIGHLIGHTS WITH DRIVER \"D17\"");
    let rule_based = plan.find("plan:rule_based").expect("rule-based view");
    let chosen = plan.find("plan:chosen").expect("chosen view");
    assert_eq!(first_node(rule_based), "collection:v.ev.kind");
    assert_eq!(first_node(chosen), "collection:v.ev.driver");
    assert!(cost(chosen) <= cost(rule_based));
    // The reported MIL is the program that runs, name bound: evaluated
    // at the kernel's own boundary it keeps the two rows of the answer.
    let mil = meta(plan.find("moa:compile").unwrap(), "mil");
    assert!(mil.contains("select(\"D17\")"), "{mil}");
    let kept = vdbms
        .kernel()
        .eval_mil(&format!("RETURN {mil};"))
        .unwrap()
        .bat_snapshot()
        .unwrap();
    assert_eq!(kept.len(), 2);

    // Fifty kinds, two drivers: the written order, kind first, is best.
    let vdbms = race_length(50, 2);
    let plan = explain(&vdbms, "RETRIEVE EVENTS K7 WITH DRIVER \"D1\"");
    let rule_based = plan.find("plan:rule_based").expect("rule-based view");
    let chosen = plan.find("plan:chosen").expect("chosen view");
    assert_eq!(first_node(rule_based), "collection:v.ev.kind");
    assert_eq!(first_node(chosen), "collection:v.ev.kind");
    assert!(cost(chosen) <= cost(rule_based));
    let answer = vdbms
        .query("v", "RETRIEVE EVENTS K7 WITH DRIVER \"D1\"")
        .unwrap();
    let expected = (0..18_000).filter(|i| i % 50 == 7 && (i / 3) % 2 == 1);
    assert_eq!(answer.len(), expected.count());
}

/// Every driver's cold read answers what its statement's `EXPLAIN` MIL
/// selects at the kernel's own boundary: the program the plan cache
/// holds parsed, run with the name bound as its parameter, agrees row
/// for row with the text rendered with the name spelled in. A name that
/// looks like MIL is data: it selects nothing and runs nothing.
#[test]
fn every_driver_reads_what_its_explained_mil_selects() {
    let vdbms = race_length(3, 4_096);
    let hostile = [
        "$0",
        "\\",
        "D1\\",
        "); unregister(v.ev.kind); (",
        "D17 $0 \\n Ωmega 漢字",
    ];
    let names = (0..4_096)
        .map(|d| format!("D{d}"))
        .chain(hostile.map(String::from));
    for name in names {
        let statement = format!("RETRIEVE HIGHLIGHTS WITH DRIVER \"{name}\"");
        let read: Vec<usize> = vdbms
            .query("v", &statement)
            .unwrap()
            .iter()
            .map(|s| s.start)
            .collect();
        let plan = explain(&vdbms, &statement);
        let mil = meta(plan.find("moa:compile").unwrap(), "mil");
        let kept = vdbms
            .kernel()
            .eval_mil(&format!("RETURN {mil};"))
            .unwrap()
            .bat_snapshot()
            .unwrap();
        // Event `i` of the fixture starts at clip `3 i`.
        let explained: Vec<usize> = kept
            .head()
            .to_vec()
            .iter()
            .map(|oid| match oid {
                f1_monet::Atom::Oid(i) => *i as usize * 3,
                other => panic!("{name}: head {other}"),
            })
            .collect();
        assert_eq!(read, explained, "{name}: {mil}");
        assert_eq!(read.is_empty(), hostile.contains(&name.as_str()), "{name}");
    }
    assert!(vdbms.kernel().has_bat("v.ev.kind"));
}

/// A cold read parses nothing: once each kind's plan is cached, 1,000
/// reads with distinct drivers are 1,000 evaluations of the programs
/// parsed with the plans, and not one more parse.
#[test]
fn cold_driver_reads_evaluate_prepared_programs_without_parsing() {
    let vdbms = race_length(3, 4_096);
    let targets = ["HIGHLIGHTS", "EXCITED", "PITSTOPS"];
    let read = |d: usize| {
        let text = format!("RETRIEVE {} WITH DRIVER \"D{d}\"", targets[d % 3]);
        assert!(!vdbms.query("v", &text).unwrap().is_empty(), "{text}");
    };
    // Enough evaluations first that the doubling refresh policy stays
    // out of the measured stretch; then the first read of each kind on
    // a new generation compiles and parses its plan.
    let counters = || {
        let snap = vdbms.kernel().metrics().registry().snapshot();
        (
            snap.counter("mil.parses", &[]),
            snap.counter("mil.evals", &[]),
        )
    };
    (0..1_100).for_each(read);
    vdbms.refresh_plan_costs();
    let (parses, _) = counters();
    (1_100..1_103).for_each(read);
    let (parses_after, _) = counters();
    assert_eq!(
        parses_after - parses,
        6,
        "each plan parses its two programs"
    );
    let (parses, evals) = counters();
    (2_000..3_000).for_each(read);
    let (parses_after, evals_after) = counters();
    assert_eq!(parses_after - parses, 0, "no read parses");
    assert_eq!(evals_after - evals, 1_000, "one evaluation per read");
}
