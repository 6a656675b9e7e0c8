//! Demonstrates the fault-tolerance machinery end to end: guarded MIL
//! execution (fuel, deadline, cancellation), and a fault-injected
//! ingest window that fails typed, changes nothing, and lands once
//! when it is sent again.
//!
//! ```text
//! cargo run --release --example fault_drill
//! ```

use std::time::Duration;

use cobra_faults::{FaultPlan, Trigger};
use f1_cobra::Vdbms;
use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};
use f1_monet::{CancellationToken, ExecBudget, Kernel};

fn main() {
    // 1. A runaway MIL program is cut off by the fuel budget.
    let kernel = Kernel::new();
    let budget = ExecBudget::unlimited().with_fuel(10_000);
    let err = kernel
        .eval_mil_guarded("WHILE (true) { } RETURN 1;", &budget)
        .expect_err("a busy loop must not terminate normally");
    println!("busy loop      -> {err}");

    // 2. The same program against a wall-clock deadline.
    let budget = ExecBudget::unlimited().with_deadline(Duration::from_millis(50));
    let err = kernel
        .eval_mil_guarded("WHILE (true) { } RETURN 1;", &budget)
        .expect_err("a busy loop must hit the deadline");
    println!("deadline       -> {err}");

    // 3. A pre-cancelled token aborts before the first statement.
    let token = CancellationToken::new();
    token.cancel();
    let budget = ExecBudget::unlimited().with_cancel(token);
    let err = kernel
        .eval_mil_guarded("RETURN 1;", &budget)
        .expect_err("a cancelled run must not start");
    println!("cancellation   -> {err}");

    // 4. A healthy program under a generous budget still completes.
    let budget = ExecBudget::unlimited().with_fuel(1_000_000);
    let v = kernel
        .eval_mil_guarded(
            "VAR x := 0; WHILE (x < 100) { x := x + 1; } RETURN x;",
            &budget,
        )
        .expect("bounded loop fits the budget");
    println!("bounded loop   -> {v:?}");

    // 5. A streamed ingest whose extractor fails on a mid-stream
    //    window: the window returns the typed fault and changes nothing.
    eprintln!("\nsynthesizing a short German GP broadcast…");
    let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 45));
    let chunks: Vec<_> = scenario.chunks(15).collect();
    let vdbms = Vdbms::try_new().expect("boot");
    vdbms
        .ingest_chunk("german", &scenario, &chunks[0])
        .expect("the opening window lands");
    let stored = || {
        let rows = vdbms.catalog.feature_rows("german");
        (vdbms.catalog.data_version(), rows)
    };
    let before = stored();
    let plan = FaultPlan::new(7).fail("media.vector.extract", Trigger::Always);
    let (err, faults) = vdbms.faults().scope(plan, || {
        vdbms
            .ingest_chunk("german", &scenario, &chunks[1])
            .expect_err("the extractor is down")
    });
    println!(
        "faults fired          -> {}",
        faults.count("media.vector.extract")
    );
    println!("failed window         -> {err}");
    let mut cause: Option<&dyn std::error::Error> = std::error::Error::source(&err);
    while let Some(c) = cause {
        println!("  caused by           -> {c}");
        cause = c.source();
    }
    println!(
        "(version, rows)       -> {before:?} before, {:?} after",
        stored()
    );

    // 6. The fault clears: sending the window again is the retry, and
    //    the rest of the stream follows it.
    for chunk in &chunks[1..] {
        vdbms
            .ingest_chunk("german", &scenario, chunk)
            .expect("the window lands");
    }
    println!(
        "feature rows          -> {} of {} clips",
        vdbms.catalog.feature_rows("german"),
        scenario.n_clips
    );
}
