//! Retrieval: the §5.6 query set, through all three levels.
//!
//! A [`Query`] resolves once to a short list of [`Stage`]s — a source
//! (`conceptual:select_events`, `conceptual:leader_segments` or
//! `conceptual:driver_visible`), then `filter:pitlane` and
//! `filter:driver` where the query asks for them. `EXPLAIN` renders that
//! list; `RETRIEVE` and `PROFILE` run it, behind the result cache,
//! through one [`Trace`] that records spans only when profiling.
//!
//! Every predicate over the event layer is the kernel's to evaluate.
//! `select_events` plans one Moa conjunction over the video's event
//! tuple — `<v>.ev.kind = K`, and `<v>.ev.driver = D` too when `WITH
//! DRIVER` follows the source directly — evaluates its MIL once, and
//! reads `start`/`end`/`driver` at the positions the selection kept.
//! Where a driver is visible is the selection `<v>.ev.driver = D`
//! again. `filter:driver` remains only where another stage stands in
//! between: after `filter:pitlane`, or on a `LEADER` source.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use cobra_obs::SpanNode;
use f1_moa::{MoaExpr, PlanChoice, Predicate};
use f1_monet::{Atom, AtomType, Column, ExecBudget, MonetError, PlanStats, StrColumn};
use f1_rules::{
    AllenRelation, Condition, Engine as RuleEngine, Fact, Interval, IntervalSpec, Rule,
    TemporalConstraint, Term, Value,
};

use crate::cache::CompiledPlan;
use crate::query::{parse_query, parse_statement, Query, RetrievedSegment, Statement, Target};
use crate::session::Vdbms;
use crate::{CobraError, Result};

/// A profiled query: the answer plus the span tree of where time went.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// The retrieved segments.
    pub segments: Vec<RetrievedSegment>,
    /// Measured spans, rooted at the whole query.
    pub span: SpanNode,
}

/// One video's contribution to a cross-video answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VideoSegments {
    /// Catalog name of the video the segments came from.
    pub video: String,
    /// The segments retrieved from that video.
    pub segments: Vec<RetrievedSegment>,
}

/// What [`Vdbms::run`] produced for a statement.
#[derive(Debug, Clone)]
pub enum QueryOutput {
    /// A plain `RETRIEVE` answer.
    Segments(Vec<RetrievedSegment>),
    /// A `PROFILE RETRIEVE` answer with its span tree.
    Profile(QueryProfile),
    /// An `EXPLAIN RETRIEVE` plan (not executed, timings zero).
    Plan(SpanNode),
    /// A cross-video `RETRIEVE` answer (`video = "*"`): one group per
    /// catalog video, sorted by name so the answer is deterministic and
    /// scatter-gather merges from disjoint shards are order-stable.
    Multi(Vec<VideoSegments>),
}

/// One step of a retrieval, next to its span name in [`stages`]: a
/// source first, then filters that narrow what the source produced.
enum Stage<'q> {
    /// Events of one kind — naming one driver, when the statement asks
    /// for one and nothing stands in between — selected through Moa →
    /// MIL → kernel.
    SelectEvents {
        kind: &'q str,
        driver: Option<&'q str>,
    },
    /// Who leads when, from the classification captions.
    LeaderSegments,
    /// Where a driver is visibly involved.
    DriverVisible(&'q str),
    /// Keep what overlaps a pit stop (the rule extension's join).
    Pitlane,
    /// Keep what involves a driver.
    Driver(&'q str),
}

/// Resolves a query to the stages that answer it.
fn stages(q: &Query) -> Result<Vec<(&'static str, Stage<'_>)>> {
    // The driver predicate joins the selection's plan unless the
    // pit-lane join has to see the kind's events first.
    let driver = q.driver.as_deref().filter(|_| !q.at_pitlane);
    let select = |kind| {
        (
            "conceptual:select_events",
            Stage::SelectEvents { kind, driver },
        )
    };
    let mut stages = vec![match (&q.target, q.driver.as_deref()) {
        (Target::Highlights, _) => select("highlight"),
        (Target::Events(kind), _) => select(kind),
        (Target::Excited, _) => select("excited"),
        (Target::PitStops, _) => select("caption:pit_stop"),
        (Target::Winner, _) => select("caption:winner"),
        (Target::FinalLap, _) => select("caption:final_lap"),
        (Target::Leader, _) => ("conceptual:leader_segments", Stage::LeaderSegments),
        (Target::Segments, Some(driver)) => {
            ("conceptual:driver_visible", Stage::DriverVisible(driver))
        }
        (Target::Segments, None) => {
            return Err(CobraError::Parse(
                "RETRIEVE SEGMENTS requires WITH DRIVER".into(),
            ))
        }
    }];
    if q.at_pitlane {
        stages.push(("filter:pitlane", Stage::Pitlane));
    }
    // Nothing is left of `WITH DRIVER` for a filter when the source
    // selected by driver itself: the fused selection, or a visibility
    // source, whose every segment names its driver.
    let by_driver = match &stages[0].1 {
        Stage::SelectEvents { driver, .. } => driver.is_some(),
        Stage::DriverVisible(_) => true,
        _ => false,
    };
    if let (Some(driver), false) = (q.driver.as_deref(), by_driver) {
        stages.push(("filter:driver", Stage::Driver(driver)));
    }
    Ok(stages)
}

/// Records the span tree of one retrieval. A plain `RETRIEVE` runs with
/// the trace off, and then every method here is a no-op: no clock is
/// read and no annotation is rendered.
struct Trace(Option<(SpanNode, Instant)>);

impl Trace {
    fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Annotates the span.
    fn meta(&mut self, key: &str, value: impl FnOnce() -> String) {
        if let Some((node, _)) = &mut self.0 {
            node.meta.push((key.to_string(), value()));
        }
    }

    /// Makes `child` the span's next child.
    fn attach(&mut self, child: SpanNode) {
        if let Some((node, _)) = &mut self.0 {
            node.children.push(child);
        }
    }

    /// Runs `body` inside a child span.
    fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Trace) -> Result<T>) -> Result<T> {
        let mut child = Trace(self.on().then(|| (SpanNode::new(name), Instant::now())));
        let out = body(&mut child)?;
        self.attach(child.finish());
        Ok(out)
    }

    /// Stops the clock and returns the finished tree (an unnamed empty
    /// node when the trace was off).
    fn finish(self) -> SpanNode {
        let Some((mut node, clock)) = self.0 else {
            return SpanNode::new("");
        };
        node.elapsed_ns = clock.elapsed().as_nanos() as u64;
        node
    }
}

/// Clips on either side of an event naming a driver for which the
/// driver counts as visible (five seconds).
const VISIBILITY_PAD: usize = 50;

/// Name of a field BAT of `video`'s event tuple.
fn event_field(video: &str, field: &str) -> String {
    format!("{video}.ev.{field}")
}

/// The selection over `video`'s event tuple that keeps the events of
/// `kind` — those naming `driver`, when one is given.
fn event_selection(video: &str, kind: &str, driver: Option<&str>) -> MoaExpr {
    let eq = |field, value| (event_field(video, field), Predicate::Eq(Atom::str(value)));
    let mut terms = vec![eq("kind", kind)];
    terms.extend(driver.map(|name| eq("driver", name)));
    MoaExpr::conjunction(terms)
}

/// The MIL of a planned driver selection with `driver` bound as the name
/// its driver term compares against.
fn bound_mil(choice: &PlanChoice, video: &str, driver: &str) -> String {
    let bound = choice
        .chosen
        .with_eq_literal(&event_field(video, "driver"), &Atom::str(driver));
    f1_moa::compile(&bound)
}

/// True when `[start, end)` overlaps any of `visible`.
fn overlaps_any(visible: &[RetrievedSegment], start: usize, end: usize) -> bool {
    visible.iter().any(|v| v.start < end && start < v.end)
}

fn mistyped(expected: &str, found: AtomType) -> MonetError {
    MonetError::TypeMismatch {
        expected: expected.into(),
        found: found.name().into(),
    }
}

/// The clips of an int field of the event tuple.
fn int_field(field: &Column) -> Result<&[i64]> {
    Ok(field
        .ints()
        .ok_or_else(|| mistyped("an int field", field.atom_type()))?)
}

/// The answer fields of a video's event tuple, read by position.
///
/// A commit appends to the tuple's fields one after another, so a
/// selection can keep a row some field does not hold yet. Such a row
/// belongs to a commit still under way: it reads as absent — what a
/// positional join against the shorter field answers too — and whatever
/// is answered without it is stored under a stamp that commit outdates.
struct EventFields<'a> {
    starts: &'a [i64],
    ends: &'a [i64],
    drivers: &'a StrColumn,
}

impl EventFields<'_> {
    /// `[start, end)` of the event at `row`, if all of it is there.
    fn span(&self, row: usize) -> Option<(usize, usize)> {
        if row >= self.drivers.len() {
            return None;
        }
        let clip = |field: &[i64]| field.get(row).map(|&clip| clip.max(0) as usize);
        Some((clip(self.starts)?, clip(self.ends)?))
    }

    /// The driver the event at `row` names, if it names one.
    fn driver(&self, row: usize) -> Option<String> {
        let name = self.drivers.value(row);
        (!name.is_empty()).then(|| name.to_string())
    }
}

impl Vdbms {
    /// Answers a §5.6 retrieval query over an annotated video.
    pub fn query(&self, video: &str, text: &str) -> Result<Vec<RetrievedSegment>> {
        let q = parse_query(text)?;
        self.retrieve(video, &q, &ExecBudget::unlimited(), &mut Trace(None))
    }

    /// Runs a full statement: `RETRIEVE …` answers, `PROFILE RETRIEVE …`
    /// answers with a measured span tree, `EXPLAIN RETRIEVE …` returns
    /// the plan shape without executing.
    pub fn run(&self, video: &str, text: &str) -> Result<QueryOutput> {
        self.run_with_budget(video, text, &ExecBudget::unlimited())
    }

    /// [`run`](Self::run) under an execution budget: the kernel checks
    /// `budget`'s fuel, deadline and cancellation token at MIL loop
    /// back-edges, so a request-layer deadline actually interrupts a
    /// slow query instead of merely being reported late. This is the
    /// entry point the serving layer uses.
    pub fn run_with_budget(
        &self,
        video: &str,
        text: &str,
        budget: &ExecBudget,
    ) -> Result<QueryOutput> {
        match parse_statement(text)? {
            Statement::Retrieve(q) => self
                .retrieve(video, &q, budget, &mut Trace(None))
                .map(QueryOutput::Segments),
            Statement::Profile(q) => {
                let mut trace = Trace(Some((SpanNode::new("query"), Instant::now())));
                let segments = self.retrieve(video, &q, budget, &mut trace)?;
                Ok(QueryOutput::Profile(QueryProfile {
                    segments,
                    span: trace.finish(),
                }))
            }
            Statement::Explain(q) => Ok(QueryOutput::Plan(self.explain(video, &q)?)),
        }
    }

    /// Runs a plain `RETRIEVE` against *every* catalog video (the
    /// `video = "*"` form the scatter-gather router fans out per shard)
    /// and returns the answers grouped by video, sorted by name. All
    /// per-video executions share `budget`, so a deadline bounds the
    /// whole sweep, not each video. `PROFILE`/`EXPLAIN` are per-video
    /// diagnostics and are rejected here with a parse error.
    pub fn run_multi_with_budget(&self, text: &str, budget: &ExecBudget) -> Result<QueryOutput> {
        let q = match parse_statement(text)? {
            Statement::Retrieve(q) => q,
            Statement::Profile(_) | Statement::Explain(_) => {
                return Err(CobraError::Parse(
                    "PROFILE/EXPLAIN cannot target all videos ('*'); name one video".into(),
                ))
            }
        };
        let mut groups = Vec::new();
        for video in self.catalog.videos() {
            let segments = self.retrieve(&video, &q, budget, &mut Trace(None))?;
            groups.push(VideoSegments { video, segments });
        }
        Ok(QueryOutput::Multi(groups))
    }

    /// The one retrieval pipeline, and the one path through the result
    /// cache: capture the video's stamp, serve a stored answer when the
    /// stamp proves the event layer unchanged, otherwise resolve `q` to
    /// its stages, run them and (on success only) store the answer under
    /// the pre-execution stamp — for every later statement sharing the
    /// normalized query text, `RETRIEVE` or `PROFILE` alike. The stamp
    /// is captured *before* execution reads any event data — a write
    /// racing the execution then commits past the captured stamp, so the
    /// (possibly torn) answer can never be served after the write is
    /// acknowledged. Failed queries are never cached.
    ///
    /// With `trace` on, its span becomes the `query` root of where time
    /// went: on a miss the conceptual source with Moa compilation, MIL
    /// evaluation and the kernel operators underneath, then the filters;
    /// on a hit a single `cache:result` leaf (the probe cost *is* where
    /// the time went).
    fn retrieve(
        &self,
        video: &str,
        q: &Query,
        budget: &ExecBudget,
        trace: &mut Trace,
    ) -> Result<Vec<RetrievedSegment>> {
        trace.meta("target", || format!("{:?}", q.target));
        trace.meta("video", || video.to_string());
        let probing = trace.on().then(Instant::now);
        let normalized = q.normalized();
        let stamp = self.catalog.video_stamp(video);
        if let Some(hit) = self.results.lookup(video, &normalized, Some(stamp)) {
            if let Some(clock) = probing {
                trace.attach(
                    SpanNode::leaf("cache:result", clock.elapsed().as_nanos() as u64)
                        .with_meta("result", "hit")
                        .with_meta("rows", hit.value.len().to_string()),
                );
            }
            return Ok(hit.value.clone());
        }
        let mut segments = Vec::new();
        for (name, stage) in stages(q)? {
            segments = trace.span(name, |span| {
                self.run_stage(video, &stage, segments, budget, span)
            })?;
        }
        let bytes: usize = segments
            .iter()
            .map(|s| {
                std::mem::size_of::<RetrievedSegment>()
                    + s.label.len()
                    + s.driver.as_deref().map_or(0, str::len)
            })
            .sum();
        self.results
            .store(video, &normalized, segments.clone(), stamp, bytes);
        Ok(segments)
    }

    /// The plan of `q`: the span-tree shape `PROFILE` would produce —
    /// one node per stage of the list execution runs — with no execution
    /// and all timings zero. For event-kind targets the `moa:compile`
    /// node carries the cost-based planner's before/after view — the
    /// rule-based plan next to the chosen one, each with per-node
    /// cardinality and cost estimates — plus the plan-cache state at the
    /// current cost-model generation. Read-only: it never executes,
    /// stores, or skews cache counters.
    pub fn explain(&self, video: &str, q: &Query) -> Result<SpanNode> {
        let mut root = SpanNode::new("query").with_meta("target", format!("{:?}", q.target));
        for (name, stage) in stages(q)? {
            let node = SpanNode::new(name);
            root = root.with_child(match stage {
                Stage::SelectEvents { kind, driver } => {
                    self.explain_select_events(node, video, kind, driver)
                }
                _ => node,
            });
        }
        Ok(root)
    }

    /// Runs one stage over `input`, the output of the stage before it
    /// (empty for a source).
    fn run_stage(
        &self,
        video: &str,
        stage: &Stage<'_>,
        input: Vec<RetrievedSegment>,
        budget: &ExecBudget,
        span: &mut Trace,
    ) -> Result<Vec<RetrievedSegment>> {
        let out = match stage {
            Stage::SelectEvents { kind, driver } => {
                return self.select_events(video, kind, *driver, budget, span)
            }
            Stage::LeaderSegments => return self.leader_segments(video),
            Stage::DriverVisible(driver) => return self.driver_visible(video, driver, budget),
            // Pit-lane restriction via the rule extension: join the
            // target with overlapping pit-stop captions.
            Stage::Pitlane => self.join_with_pitlane(video, input)?,
            // Driver restriction: direct attribute when present,
            // otherwise overlap with the driver's visibility segments
            // (the combination of Bayesian fusion and text recognition
            // the paper advertises).
            Stage::Driver(driver) => {
                let visible = self.driver_visible(video, driver, budget)?;
                let mut out = input;
                out.retain(|seg| match &seg.driver {
                    Some(named) => named == driver,
                    None => overlaps_any(&visible, seg.start, seg.end),
                });
                for seg in &mut out {
                    seg.driver.get_or_insert_with(|| driver.to_string());
                }
                out
            }
        };
        span.meta("kept", || out.len().to_string());
        Ok(out)
    }

    /// What an event selection is costed against: the kernel's current
    /// measured statistics (per-opcode ns/row, index hit rate, morsel
    /// throughput) with the sketches of the two fields a selection can
    /// constrain.
    fn event_plan_stats(&self, video: &str) -> PlanStats {
        let fields = [event_field(video, "kind"), event_field(video, "driver")];
        self.kernel.plan_stats(&[&fields[0], &fields[1]])
    }

    /// Plans one selection over the event tuple with the cost-based
    /// planner.
    fn plan_event_selection(
        &self,
        video: &str,
        kind: &str,
        driver: Option<&str>,
        stats: &PlanStats,
    ) -> PlanChoice {
        let cfg = f1_moa::PlannerConfig {
            max_threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(8),
        };
        f1_moa::plan(event_selection(video, kind, driver), stats, &cfg)
    }

    /// Plans both selections a statement over `kind` can ask for, from
    /// one reading of the statistics.
    fn compile_event_plan(&self, video: &str, kind: &str) -> Arc<CompiledPlan> {
        let stats = self.event_plan_stats(video);
        Arc::new(CompiledPlan {
            of_kind: self.plan_event_selection(video, kind, None, &stats),
            of_driver: self.plan_event_selection(video, kind, Some(""), &stats),
            generation: self.plans.cost_generation(),
        })
    }

    /// Fills in what `EXPLAIN` shows under a `conceptual:select_events`
    /// node: the planner's view in place of measurements.
    fn explain_select_events(
        &self,
        node: SpanNode,
        video: &str,
        kind: &str,
        driver: Option<&str>,
    ) -> SpanNode {
        let stats = self.event_plan_stats(video);
        let choice = self.plan_event_selection(video, kind, driver, &stats);
        let cache = if self.plans.peek(video, kind).is_some() {
            "hit"
        } else {
            "miss"
        };
        let plan_node = |name: &str, cost: f64, nodes: &[f1_moa::PlanNode]| {
            SpanNode::new(name)
                .with_meta("est_cost_ns", format!("{cost:.0}"))
                .with_meta("nodes", PlanChoice::render_nodes(nodes))
        };
        let compile = SpanNode::new("moa:compile")
            .with_meta("mil", choice.mil())
            .with_meta("cache", cache)
            .with_meta("generation", self.plans.cost_generation().to_string())
            .with_child(plan_node(
                "plan:rule_based",
                choice.baseline_cost,
                &choice.baseline_nodes,
            ))
            .with_child(
                plan_node("plan:chosen", choice.chosen_cost, &choice.chosen_nodes)
                    .with_meta("threads", choice.threads.to_string())
                    .with_meta("rationale", choice.rationale.as_str()),
            );
        let mut node = node.with_meta("kind", kind);
        if let Some(name) = driver {
            node = node.with_meta("driver", name);
        }
        node.with_child(compile)
            .with_child(SpanNode::new("mil:eval"))
            .with_child(SpanNode::new("fetch:results"))
    }

    /// Advances the cost-model generation once the kernel has observed
    /// roughly twice as many MIL evaluations as at the previous refresh
    /// (with a small floor so a barely-warm system doesn't churn).
    /// Cached plans from the old generation become unreachable and
    /// every lookup replans against the fresher measurements.
    fn maybe_refresh_plan_costs(&self) {
        const PLAN_REFRESH_MIN_EVALS: u64 = 32;
        let evals = self.kernel.metrics().mil_evals.get();
        let last = self.plan_cost_evals.load(Ordering::Acquire);
        if evals >= PLAN_REFRESH_MIN_EVALS.max(last.saturating_mul(2))
            && self
                .plan_cost_evals
                .compare_exchange(last, evals, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            self.plans.advance_cost_generation();
        }
    }

    /// Forces a cost-model refresh (the doubling policy's manual lever,
    /// used by benchmarks and tests): advances the plan-cache generation
    /// so every subsequent lookup replans against current statistics.
    /// Returns the new generation.
    pub fn refresh_plan_costs(&self) -> u64 {
        self.plan_cost_evals
            .store(self.kernel.metrics().mil_evals.get(), Ordering::Release);
        self.plans.advance_cost_generation()
    }

    /// Answers an event-kind retrieval through all three levels: a Moa
    /// conjunction over the video's event tuple — the kind, and the
    /// driver when one is named — goes through the cost-based planner,
    /// its MIL is evaluated once on the kernel's vectorized operators,
    /// and the answer is read from the `start`/`end`/`driver` fields at
    /// the positions the selection kept. When profiling, `span` receives
    /// the per-level tree, with kernel operator timings taken from the
    /// metrics registry delta around the evaluation.
    fn select_events(
        &self,
        video: &str,
        kind: &str,
        driver: Option<&str>,
        budget: &ExecBudget,
        span: &mut Trace,
    ) -> Result<Vec<RetrievedSegment>> {
        self.catalog.video(video)?;
        span.meta("kind", || kind.to_string());
        if let Some(name) = driver {
            span.meta("driver", || name.to_string());
        }
        if !self.kernel.has_bat(&event_field(video, "kind")) {
            return Ok(Vec::new());
        }

        // Conceptual → logical: the planner's verdict depends only on
        // (video, kind, cost-model generation) and on whether a driver
        // is named, so a cached one is reused until the generation
        // advances, with this request's driver bound into it; the
        // execution budget below still applies.
        self.maybe_refresh_plan_costs();
        let (plan, mil) = span.span("moa:compile", |span| {
            let (plan, cached) = match self.plans.get(video, kind) {
                Some(plan) => (plan, "hit"),
                None => {
                    let plan = self.compile_event_plan(video, kind);
                    self.plans.store(video, kind, Arc::clone(&plan));
                    (plan, "miss")
                }
            };
            let choice = plan.selection(driver.is_some());
            let mil = match driver {
                Some(name) => bound_mil(choice, video, name),
                None => choice.mil(),
            };
            span.meta("mil", || mil.clone());
            span.meta("cache", || cached.into());
            span.meta("generation", || plan.generation.to_string());
            span.meta("threads", || choice.threads.to_string());
            Ok((plan, mil))
        })?;
        let choice = plan.selection(driver.is_some());

        // Logical → physical: one evaluation selects the rows. The
        // paper's overlap rule asks for more only where it can matter:
        // an event of the kind that names no one still involves the
        // driver while the driver is visible, so a video that has
        // unnamed events at all is asked for those of the kind, and
        // for the driver's visibility once there are any.
        let program = |mil: &str| format!("{}RETURN {mil};", choice.mil_prefix());
        let op_times = || {
            self.kernel
                .metrics()
                .registry()
                .histograms_named("mil.op_ns")
        };
        let started = span.on().then(|| (op_times(), Instant::now()));
        let mut rows = self.selected_rows(&program(&mil), budget)?;
        let mut unnamed = Vec::new();
        let mut visible = Vec::new();
        if let Some(name) = driver {
            if self.has_unnamed_events(video)? {
                unnamed = self.selected_rows(&program(&bound_mil(choice, video, "")), budget)?;
            }
            if !unnamed.is_empty() {
                visible = self.driver_visible(video, name, budget)?;
            }
        }
        if let Some((before, clock)) = started {
            // Estimated (planner) next to measured (wall clock), so
            // PROFILE exposes how far the cost model is off; the kernel
            // operators underneath from what their histograms gained.
            let mut eval = SpanNode::leaf("mil:eval", clock.elapsed().as_nanos() as u64)
                .with_meta("plan_est_ns", format!("{:.0}", choice.chosen_cost));
            for (key, after) in op_times() {
                let h = match before.iter().find(|(k, _)| *k == key) {
                    Some((_, before)) => after.delta(before),
                    None => after,
                };
                if h.count() > 0 {
                    let name = format!("kernel:{}", key.label("op").unwrap_or("op"));
                    eval.children.push(
                        SpanNode::leaf(&name, h.sum()).with_meta("calls", h.count().to_string()),
                    );
                }
            }
            span.attach(eval);
        }

        // Materialize the answer from the fields of the rows kept.
        span.span("fetch:results", |span| {
            let label = kind.trim_start_matches("caption:");
            let out = self.read_events(video, |events| {
                rows.extend(unnamed.into_iter().filter(|&row| {
                    events
                        .span(row)
                        .is_some_and(|(start, end)| overlaps_any(&visible, start, end))
                }));
                // Back into event-layer order.
                rows.sort_unstable();
                let segment = |&row| {
                    let (start, end) = events.span(row)?;
                    Some(RetrievedSegment {
                        start,
                        end,
                        label: label.to_string(),
                        driver: match driver {
                            Some(name) => Some(name.to_string()),
                            None => events.driver(row),
                        },
                    })
                };
                Ok(rows.iter().filter_map(segment).collect::<Vec<_>>())
            })?;
            span.meta("rows", || out.len().to_string());
            Ok(out)
        })
    }

    /// Evaluates a MIL program that selects over an event tuple and
    /// returns the rows it kept: the oids in the result's head, which
    /// number the tuple's rows from 0.
    fn selected_rows(&self, program: &str, budget: &ExecBudget) -> Result<Vec<usize>> {
        let kept = self.kernel.eval_mil_guarded(program, budget)?.as_bat()?;
        let kept = kept.read();
        let head = kept.head();
        if let Some((base, len)) = head.void_run() {
            return Ok((base as usize..base as usize + len).collect());
        }
        match head.oids() {
            Some(oids) => Ok(oids.iter().map(|&oid| oid as usize).collect()),
            None => Err(mistyped("an oid head", head.atom_type()).into()),
        }
    }

    /// True when some event of `video` may name no driver (stored as an
    /// empty name): the driver field's dictionary says so for free.
    fn has_unnamed_events(&self, video: &str) -> Result<bool> {
        let drivers = self.kernel.bat(&event_field(video, "driver"))?;
        let drivers = drivers.read();
        Ok(drivers
            .tail()
            .strs()
            .is_some_and(|names| names.code_of("").is_some()))
    }

    /// Runs `read` over the answer fields of `video`'s event tuple.
    fn read_events<T>(
        &self,
        video: &str,
        read: impl FnOnce(EventFields<'_>) -> Result<T>,
    ) -> Result<T> {
        let field = |name| self.kernel.bat(&event_field(video, name));
        let (starts, ends, drivers) = (field("start")?, field("end")?, field("driver")?);
        let (starts, ends, drivers) = (starts.read(), ends.read(), drivers.read());
        read(EventFields {
            starts: int_field(starts.tail())?,
            ends: int_field(ends.tail())?,
            drivers: drivers
                .tail()
                .strs()
                .ok_or_else(|| mistyped("a str driver field", drivers.tail().atom_type()))?,
        })
    }

    /// Leading spans from classification captions: the shown leader holds
    /// the lead until the next classification caption.
    fn leader_segments(&self, video: &str) -> Result<Vec<RetrievedSegment>> {
        let mut caps = self.catalog.events(video, Some("caption:classification"))?;
        caps.sort_by_key(|e| e.start);
        let info = self.catalog.video(video)?;
        let mut out = Vec::new();
        for (i, c) in caps.iter().enumerate() {
            let end = caps.get(i + 1).map(|n| n.start).unwrap_or(info.n_clips);
            out.push(RetrievedSegment {
                start: c.start,
                end,
                label: "leading".into(),
                driver: c.driver.clone(),
            });
        }
        Ok(out)
    }

    /// Segments where a driver is visibly involved: the events naming
    /// the driver — the kernel's selection `<v>.ev.driver = D` — padded
    /// by five seconds on each side.
    fn driver_visible(
        &self,
        video: &str,
        driver: &str,
        budget: &ExecBudget,
    ) -> Result<Vec<RetrievedSegment>> {
        self.catalog.video(video)?;
        let names = event_field(video, "driver");
        if !self.kernel.has_bat(&names) {
            return Ok(Vec::new());
        }
        let naming = MoaExpr::collection(&names).select(Predicate::Eq(Atom::str(driver)));
        let program = format!("RETURN {};", f1_moa::compile(&naming));
        let rows = self.selected_rows(&program, budget)?;
        self.read_events(video, |events| {
            let visible = |&row| {
                let (start, end) = events.span(row)?;
                Some(RetrievedSegment {
                    start: start.saturating_sub(VISIBILITY_PAD),
                    end: end + VISIBILITY_PAD,
                    label: "segment".into(),
                    driver: Some(driver.to_string()),
                })
            };
            Ok(rows.iter().filter_map(visible).collect())
        })
    }

    /// The rule-extension join: keep segments overlapping a pit-stop
    /// caption, carrying over the pit driver.
    fn join_with_pitlane(
        &self,
        video: &str,
        segments: Vec<RetrievedSegment>,
    ) -> Result<Vec<RetrievedSegment>> {
        let mut engine = RuleEngine::new();
        engine.add_rule(Rule {
            name: "at_pitlane".into(),
            conditions: vec![
                Condition::new("candidate", vec![Term::var("i")]),
                Condition::new("pit_stop", vec![Term::var("d")]),
            ],
            temporal: vec![TemporalConstraint {
                a: 0,
                b: 1,
                relations: vec![
                    AllenRelation::Overlaps,
                    AllenRelation::OverlappedBy,
                    AllenRelation::During,
                    AllenRelation::Contains,
                    AllenRelation::Starts,
                    AllenRelation::StartedBy,
                    AllenRelation::Finishes,
                    AllenRelation::FinishedBy,
                    AllenRelation::Equal,
                ],
            }],
            head: "at_pitlane".into(),
            head_args: vec![Term::var("i"), Term::var("d")],
            interval: IntervalSpec::Of(0),
        })?;
        let mut facts = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            facts.push(Fact::new(
                "candidate",
                vec![Value::Int(i as i64)],
                Interval::new(seg.start, seg.end),
            ));
        }
        for pit in self.catalog.events(video, Some("caption:pit_stop"))? {
            facts.push(Fact::new(
                "pit_stop",
                vec![Value::str(pit.driver.unwrap_or_default())],
                Interval::new(pit.start, pit.end),
            ));
        }
        let derived = engine.run(facts)?;
        let mut out = Vec::new();
        for f in derived.iter().filter(|f| f.predicate == "at_pitlane") {
            let Value::Int(i) = &f.args[0] else { continue };
            let mut seg = segments[*i as usize].clone();
            if let Value::Str(d) = &f.args[1] {
                if !d.is_empty() && seg.driver.is_none() {
                    seg.driver = Some(d.clone());
                }
            }
            if !out.contains(&seg) {
                out.push(seg);
            }
        }
        out.sort_by_key(|s: &RetrievedSegment| s.start);
        Ok(out)
    }
}
