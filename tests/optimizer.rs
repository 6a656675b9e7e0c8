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

    // Invalidate the result cache with an unrelated event append (the
    // version vector moves; highlight answers are untouched), then
    // refresh the cost model: the re-run must replan — a plan-cache
    // miss — and still return byte-identical results.
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

/// A cache-missing driver-filtered read is O(answer) plus one scan of
/// one dictionary-coded column — stated as counts, which repeat
/// exactly, not as timings.
#[test]
fn a_cold_driver_read_is_one_evaluation_over_one_column_scan() {
    let vdbms = race_length(3, 4_096);
    let registry = vdbms.kernel().metrics().registry();
    let before = registry.snapshot();
    let got = vdbms
        .query("v", "RETRIEVE HIGHLIGHTS WITH DRIVER \"D17\"")
        .unwrap();
    let starts: Vec<usize> = got.iter().map(|s| s.start).collect();
    assert_eq!(starts, [153, 37_017], "events 51 and 12,339");
    assert!(got.iter().all(|s| s.driver.as_deref() == Some("D17")));
    let delta = registry.snapshot().delta(&before);
    assert_eq!(delta.counter("mil.evals", &[]), 1);
    let scanned = delta.counter("kernel.morsel_rows", &[]);
    assert!(
        (18_000..=20_000).contains(&scanned),
        "one scan of one 18,000-row column, then the rows it kept: {scanned}"
    );
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
