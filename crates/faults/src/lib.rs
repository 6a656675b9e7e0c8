//! # cobra-faults — deterministic fault injection and cancellation
//!
//! Robustness support for the Cobra VDBMS reproduction. Three facilities:
//!
//! * **Fault injection**: the thing under test owns a [`FaultHandle`]
//!   (disarmed by default) and marks *named sites* with
//!   [`handle.fire`](FaultHandle::fire)`("site.name")`. Normally that is
//!   a single relaxed atomic load. Inside
//!   [`handle.scope`](FaultHandle::scope), a seed-driven [`FaultPlan`]
//!   decides — deterministically, with no wall clock and no OS entropy —
//!   which invocations of which sites fail, so tests can script failures
//!   of BAT operations, extension-module procedures, feature extractors,
//!   or EM iterations and assert how the system degrades. There is no
//!   process-global injector: a plan armed on one handle is invisible to
//!   every other, so tests running in parallel cannot fire each other's
//!   faults.
//! * **Cancellation**: [`CancellationToken`], a cheaply clonable flag
//!   shared between an execution and its controller, checked
//!   cooperatively by the MIL interpreter's execution guard.
//! * **Lock poisoning**: [`Recover`], the one rule every `std::sync`
//!   lock in the workspace is taken under.
//!
//! Site naming convention used across the workspace:
//! `bat.{method}` (kernel BAT methods), `proc.{name}` (extension-module
//! dispatch), `media.vector.extract` (the feature extractor),
//! `em.iteration` (Bayes EM steps).
//!
//! ```
//! use cobra_faults::{FaultHandle, FaultPlan, Trigger};
//!
//! let faults = FaultHandle::default();
//! let (result, report) = faults.scope(
//!     FaultPlan::new(7).fail("demo.step", Trigger::Times(1)),
//!     || (faults.fire("demo.step").is_err(), faults.fire("demo.step").is_err()),
//! );
//! assert_eq!(result, (true, false)); // first invocation fails, second runs
//! assert_eq!(report.fired.len(), 1);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

mod poison;
pub use poison::Recover;

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// A cooperative cancellation flag.
///
/// Clones share the same flag; any clone may [`cancel`](Self::cancel),
/// and workers poll [`is_cancelled`](Self::is_cancelled) at safe points.
#[derive(Clone, Debug, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; visible to every clone of the token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any clone has called [`cancel`](Self::cancel).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// Fault model
// ---------------------------------------------------------------------------

/// The error an armed fault site raises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that failed (e.g. `"media.vector.extract"`).
    pub site: String,
    /// Zero-based invocation index at which the site failed.
    pub invocation: u64,
    /// Whether the failure models a transient condition: retry policies
    /// may retry transient faults but must not retry permanent ones.
    pub transient: bool,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} fault at site '{}' (invocation {})",
            if self.transient {
                "transient"
            } else {
                "permanent"
            },
            self.site,
            self.invocation
        )
    }
}

impl std::error::Error for FaultError {}

/// When a rule fires, relative to the per-site invocation counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every invocation fails.
    Always,
    /// The first `n` invocations fail, later ones succeed.
    Times(u32),
    /// Invocations in `[skip, skip + times)` fail.
    Nth {
        /// Invocations to let through first.
        skip: u32,
        /// How many subsequent invocations fail.
        times: u32,
    },
    /// Each invocation fails with this probability, decided by a hash of
    /// (plan seed, site, invocation index) — deterministic across runs.
    Probability(f64),
}

/// One injection rule: which site(s), when, and how the failure presents.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Exact site name, or a prefix followed by `*` (e.g. `"bat.*"`).
    pub site: String,
    /// When the rule fires.
    pub trigger: Trigger,
    /// Whether raised faults are transient (retryable).
    pub transient: bool,
    /// When nonzero the rule injects *latency* instead of failure: the
    /// site sleeps this long and then succeeds. Models a degraded (slow
    /// but functional) dependency for cost-model tests.
    pub delay_ms: u64,
}

impl FaultRule {
    fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.site == site,
        }
    }
}

/// A deterministic script of failures for one [`FaultHandle::scope`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed feeding [`Trigger::Probability`] decisions.
    pub seed: u64,
    /// Rules checked in order; the first matching rule decides.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no sites fail) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a permanent-failure rule for `site`.
    pub fn fail(mut self, site: impl Into<String>, trigger: Trigger) -> Self {
        self.rules.push(FaultRule {
            site: site.into(),
            trigger,
            transient: false,
            delay_ms: 0,
        });
        self
    }

    /// Adds a transient-failure (retryable) rule for `site`.
    pub fn fail_transient(mut self, site: impl Into<String>, trigger: Trigger) -> Self {
        self.rules.push(FaultRule {
            site: site.into(),
            trigger,
            transient: true,
            delay_ms: 0,
        });
        self
    }

    /// Adds a slowdown rule for `site`: matching invocations sleep
    /// `delay_ms` and then succeed, so the operation completes but its
    /// measured cost inflates.
    pub fn slow(mut self, site: impl Into<String>, trigger: Trigger, delay_ms: u64) -> Self {
        self.rules.push(FaultRule {
            site: site.into(),
            trigger,
            transient: false,
            delay_ms,
        });
        self
    }
}

/// A fault that actually fired during a [`FaultHandle::scope`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// Site that failed.
    pub site: String,
    /// Zero-based invocation index at which it failed.
    pub invocation: u64,
}

/// Everything that fired during one [`FaultHandle::scope`].
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Faults in firing order.
    pub fired: Vec<FiredFault>,
    /// Slowdown injections in firing order (the site succeeded late).
    pub slowed: Vec<FiredFault>,
}

impl FaultReport {
    /// How many times `site` failed during the scope.
    pub fn count(&self, site: &str) -> usize {
        self.fired.iter().filter(|f| f.site == site).count()
    }
}

// ---------------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------------

struct Injector {
    plan: FaultPlan,
    counters: Mutex<HashMap<String, u64>>,
    fired: Mutex<Vec<FiredFault>>,
    slowed: Mutex<Vec<FiredFault>>,
}

/// What every clone of one [`FaultHandle`] shares.
#[derive(Default)]
struct Shared {
    /// Fast-path flag: `fire()` is a single relaxed load when disarmed.
    armed: AtomicBool,
    injector: Mutex<Option<Arc<Injector>>>,
    /// Serializes scopes on this handle: a second `scope` waits for
    /// the first to disarm instead of replacing its plan mid-run.
    turn: Mutex<()>,
}

/// SplitMix64 over (seed, site, invocation): deterministic verdicts
/// for `Trigger::Probability` with no global RNG state.
fn decision_hash(seed: u64, site: &str, invocation: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in site.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= invocation.wrapping_mul(0x2545_f491_4f6c_dd1d);
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fault injector of one system under test.
///
/// Whatever owns fault sites — a `Kernel`, a `FileBackend`, a `Vdbms`,
/// a router — owns a handle (disarmed by default) and marks its sites
/// with [`fire`](Self::fire). Clones share one injector, so a `Vdbms`
/// hands the same handle to its kernel, its storage backend and its
/// extractors, and a test arms exactly the instance it is looking at:
/// faults scripted for one handle can never fire in a neighbour's.
#[derive(Clone, Default)]
pub struct FaultHandle {
    shared: Arc<Shared>,
}

impl fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultHandle")
            .field("armed", &self.is_armed())
            .finish()
    }
}

impl FaultHandle {
    /// True while a [`scope`](Self::scope) is armed on this handle.
    pub fn is_armed(&self) -> bool {
        self.shared.armed.load(Ordering::Relaxed)
    }

    /// Marks a named fault site. Returns `Err` when the armed
    /// [`FaultPlan`] scripts a failure for this invocation; otherwise
    /// `Ok(())`. Disarmed (the overwhelmingly common case) this is one
    /// relaxed atomic load.
    pub fn fire(&self, site: &str) -> Result<(), FaultError> {
        if !self.is_armed() {
            return Ok(());
        }
        let injector = {
            let slot = self.shared.injector.lock().recover();
            match slot.as_ref() {
                Some(i) => Arc::clone(i),
                None => return Ok(()),
            }
        };
        let invocation = {
            let mut counters = injector.counters.lock().recover();
            let c = counters.entry(site.to_string()).or_insert(0);
            let inv = *c;
            *c += 1;
            inv
        };
        let rule = injector.plan.rules.iter().find(|r| r.matches(site));
        let Some(rule) = rule else { return Ok(()) };
        let fails = match rule.trigger {
            Trigger::Always => true,
            Trigger::Times(n) => invocation < n as u64,
            Trigger::Nth { skip, times } => {
                invocation >= skip as u64 && invocation < (skip + times) as u64
            }
            Trigger::Probability(p) => {
                let h = decision_hash(injector.plan.seed, site, invocation);
                (h as f64 / u64::MAX as f64) < p
            }
        };
        if !fails {
            return Ok(());
        }
        let hit = FiredFault {
            site: site.to_string(),
            invocation,
        };
        if rule.delay_ms > 0 {
            // A slowdown rule: stall the caller, record it, succeed.
            injector.slowed.lock().recover().push(hit);
            std::thread::sleep(std::time::Duration::from_millis(rule.delay_ms));
            return Ok(());
        }
        injector.fired.lock().recover().push(hit);
        Err(FaultError {
            site: site.to_string(),
            invocation,
            transient: rule.transient,
        })
    }

    /// Runs `f` with `plan` armed on this handle (and every clone of
    /// it), returning `f`'s result plus a report of every fault that
    /// fired. The plan is disarmed even if `f` panics.
    pub fn scope<R>(&self, plan: FaultPlan, f: impl FnOnce() -> R) -> (R, FaultReport) {
        let _turn = self.shared.turn.lock().recover();
        let injector = Arc::new(Injector {
            plan,
            counters: Default::default(),
            fired: Default::default(),
            slowed: Default::default(),
        });
        *self.shared.injector.lock().recover() = Some(Arc::clone(&injector));
        self.shared.armed.store(true, Ordering::SeqCst);

        struct Disarm<'a>(&'a Shared);
        impl Drop for Disarm<'_> {
            fn drop(&mut self) {
                self.0.armed.store(false, Ordering::SeqCst);
                *self.0.injector.lock().recover() = None;
            }
        }
        let disarm = Disarm(&self.shared);
        let result = f();
        drop(disarm);

        let take = |m: &Mutex<Vec<FiredFault>>| std::mem::take(&mut *m.lock().recover());
        let report = FaultReport {
            fired: take(&injector.fired),
            slowed: take(&injector.slowed),
        };
        (result, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_never_fail() {
        let h = FaultHandle::default();
        assert!(!h.is_armed());
        for _ in 0..100 {
            assert!(h.fire("any.site").is_ok());
        }
    }

    #[test]
    fn times_trigger_fails_then_recovers() {
        let h = FaultHandle::default();
        let ((), report) = h.scope(
            FaultPlan::new(1).fail_transient("io.read", Trigger::Times(2)),
            || {
                assert_eq!(
                    h.fire("io.read"),
                    Err(FaultError {
                        site: "io.read".into(),
                        invocation: 0,
                        transient: true
                    })
                );
                assert!(h.fire("io.read").is_err());
                assert!(h.fire("io.read").is_ok());
                assert!(h.fire("other.site").is_ok());
            },
        );
        assert_eq!(report.count("io.read"), 2);
        assert_eq!(report.count("other.site"), 0);
    }

    #[test]
    fn nth_trigger_skips_then_fails() {
        let h = FaultHandle::default();
        let ((), report) = h.scope(
            FaultPlan::new(1).fail("x", Trigger::Nth { skip: 1, times: 1 }),
            || {
                assert!(h.fire("x").is_ok());
                assert!(h.fire("x").is_err());
                assert!(h.fire("x").is_ok());
            },
        );
        assert_eq!(
            report.fired,
            vec![FiredFault {
                site: "x".into(),
                invocation: 1
            }]
        );
    }

    #[test]
    fn slow_rule_delays_but_succeeds() {
        let h = FaultHandle::default();
        let (elapsed, report) = h.scope(
            FaultPlan::new(1).slow("net.fetch", Trigger::Times(1), 20),
            || {
                let t = std::time::Instant::now();
                assert!(h.fire("net.fetch").is_ok());
                let first = t.elapsed();
                assert!(h.fire("net.fetch").is_ok());
                first
            },
        );
        assert!(elapsed >= std::time::Duration::from_millis(20));
        assert!(report.fired.is_empty());
        assert_eq!(report.slowed.len(), 1);
    }

    #[test]
    fn prefix_wildcard_matches_site_family() {
        let h = FaultHandle::default();
        let ((), report) = h.scope(FaultPlan::new(1).fail("bat.*", Trigger::Always), || {
            assert!(h.fire("bat.insert").is_err());
            assert!(h.fire("bat.join").is_err());
            assert!(h.fire("proc.dbnInfer").is_ok());
        });
        assert_eq!(report.fired.len(), 2);
    }

    #[test]
    fn probability_trigger_is_deterministic() {
        let h = FaultHandle::default();
        let run = || {
            h.scope(
                FaultPlan::new(42).fail("p.site", Trigger::Probability(0.5)),
                || {
                    (0..64)
                        .map(|_| h.fire("p.site").is_err())
                        .collect::<Vec<_>>()
                },
            )
            .0
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        // With p = 0.5 over 64 draws, both outcomes must occur.
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn disarms_even_when_scope_panics() {
        let h = FaultHandle::default();
        let caught = std::panic::catch_unwind(|| {
            h.scope(FaultPlan::new(0).fail("x", Trigger::Always), || {
                panic!("scope panics");
            })
        });
        assert!(caught.is_err());
        assert!(!h.is_armed());
        assert!(h.fire("x").is_ok());
    }

    #[test]
    fn a_scope_arms_its_own_handle_and_clones_only() {
        let h = FaultHandle::default();
        let clone = h.clone();
        let neighbour = FaultHandle::default();
        let ((), report) = h.scope(FaultPlan::new(0).fail("x", Trigger::Always), || {
            assert!(clone.is_armed(), "clones share the injector");
            assert!(clone.fire("x").is_err());
            assert!(!neighbour.is_armed());
            assert!(
                neighbour.fire("x").is_ok(),
                "another handle never sees the plan"
            );
        });
        assert_eq!(report.count("x"), 1);
    }

    #[test]
    fn cancellation_token_is_shared_between_clones() {
        let token = CancellationToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }
}
