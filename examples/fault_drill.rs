//! Demonstrates the fault-tolerance machinery end to end: guarded MIL
//! execution (fuel, deadline, cancellation) and fault-injected ingest
//! falling back to a cheaper extraction method.
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

    // 5. Ingest with the primary extractor scripted to fail: the
    //    pre-processor retries, then falls back to the next-ranked method.
    eprintln!("\nsynthesizing a short German GP broadcast…");
    let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, 45));

    let plan = FaultPlan::new(7).fail("extract.full", Trigger::Always);
    let vdbms = Vdbms::try_new().expect("boot");
    let (report, faults) = vdbms.faults().scope(plan, || {
        vdbms.ingest("german", &scenario).expect("fallback ingest")
    });
    println!("faults fired          -> {}", faults.count("extract.full"));
    println!(
        "extraction method     -> {} (degraded: {})",
        report.extraction_method, report.degraded
    );
    for a in &report.attempts {
        match &a.error {
            Some(e) => println!("  attempt {:<6} tries {} -> {e}", a.method, a.tries),
            None => println!("  attempt {:<6} tries {} -> ok", a.method, a.tries),
        }
    }

    // 6. Every extractor down: ingest surfaces a typed error chain.
    let plan = FaultPlan::new(11).fail("extract.*", Trigger::Always);
    let vdbms = Vdbms::try_new().expect("boot");
    let (err, _) = vdbms.faults().scope(plan, || {
        vdbms
            .ingest("german", &scenario)
            .expect_err("no extractor left")
    });
    println!("all methods down      -> {err}");
    let mut cause: Option<&dyn std::error::Error> = std::error::Error::source(&err);
    while let Some(c) = cause {
        println!("  caused by           -> {c}");
        cause = c.source();
    }
}
