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
//! tuple — `<v>.ev.kind = K`, and `<v>.ev.driver = $0` too when `WITH
//! DRIVER` follows the source directly — whose program the plan cache
//! holds parsed; it evaluates that program once, the driver's name
//! bound as `$0`, and reads `start`/`end`/`driver` at the positions the
//! selection kept. A name is data on this path, never MIL text: text is
//! rendered only for `EXPLAIN` and `PROFILE`. Where a driver is visible
//! is the selection `<v>.ev.driver = D` again. `filter:driver` remains
//! only where another stage stands in between: after `filter:pitlane`,
//! or on a `LEADER` source. Every stage of one retrieval reads the one
//! event layer it captured together with its guard, every MIL
//! evaluation included. Each stage declares what it reads of the layer
//! ([`Stage::reads`]), and the answer is cached under the guard of
//! those rows alone, so a write voids only the answers it can change.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use cobra_faults::Recover;
use cobra_obs::SpanNode;
use f1_moa::{MoaExpr, PlanChoice, Predicate};
use f1_monet::{Atom, AtomType, ExecBudget, MonetError, PlanStats, Prepared};
use f1_rules::{
    AllenRelation, Condition, Engine as RuleEngine, Fact, Interval, IntervalSpec, Rule,
    TemporalConstraint, Term, Value,
};

use crate::cache::{CachedResult, CompiledPlan, PreparedPlan, Stamp};
use crate::catalog::EventLayer;
use crate::guard::{self, Read};
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

/// One video's answer to a plain `RETRIEVE`, as its result-cache entry
/// holds it: the rows, and the segment list they encode to, written once
/// when the entry is made. Every reply from the entry — one video's or a
/// sweep's group — copies that list instead of encoding a row.
#[derive(Debug)]
pub struct Answer {
    /// The retrieved segments.
    pub(crate) segments: Vec<RetrievedSegment>,
    /// `segments` as JSON text: the `[…]` a reply's `segments` member
    /// holds ([`crate::json::segment_list`]).
    pub(crate) list: Box<[u8]>,
}

impl Answer {
    fn new(mut segments: Vec<RetrievedSegment>) -> Answer {
        // The entry lives as long as the cache keeps it: no spare capacity.
        segments.shrink_to_fit();
        let list = crate::json::segment_list(&segments);
        Answer { segments, list }
    }

    /// Approximate resident size, for `cache.result.bytes`: the rows and
    /// the segment list they encode to. Each row counts its strings,
    /// though the rows share one allocation per distinct label and
    /// driver, so this is an upper bound.
    fn bytes(&self) -> usize {
        let row = |s: &RetrievedSegment| {
            std::mem::size_of::<RetrievedSegment>()
                + s.label.len()
                + s.driver.as_deref().map_or(0, str::len)
        };
        self.segments.iter().map(row).sum::<usize>() + self.list.len()
    }
}

/// A statement answered through the result cache, before anything is
/// written: a plain `RETRIEVE` hands back the cache entries themselves,
/// so a reply is written from them ([`crate::json::write_answered`]) by
/// copying their segment lists, and a hit clones no row.
#[derive(Debug)]
pub enum Answered {
    /// A plain `RETRIEVE` on one video: its entry.
    Video(Arc<CachedResult<Answer>>),
    /// A plain `RETRIEVE` on every video (`"*"`): each video's entry,
    /// in name order.
    Sweep(Vec<(String, Arc<CachedResult<Answer>>)>),
    /// `PROFILE` or `EXPLAIN`: an output carrying a span tree, built for
    /// this request.
    Output(QueryOutput),
}

impl Answered {
    /// The answer as rows: what [`Vdbms::run`] returns.
    pub(crate) fn into_output(self) -> QueryOutput {
        let rows = |entry: &CachedResult<Answer>| entry.value.segments.clone();
        match self {
            Answered::Video(entry) => QueryOutput::Segments(rows(&entry)),
            Answered::Sweep(entries) => QueryOutput::Multi(
                entries
                    .into_iter()
                    .map(|(video, entry)| VideoSegments {
                        video,
                        segments: rows(&entry),
                    })
                    .collect(),
            ),
            Answered::Output(output) => output,
        }
    }
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
#[derive(Clone, Copy)]
pub(crate) enum Stage<'q> {
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

/// A query's stages, each next to its span name: a source, then at
/// most two filters, held inline — every read resolves them to probe
/// the result cache, and allocates nothing for it.
#[derive(Clone)]
pub(crate) struct Stages<'q> {
    slots: [(&'static str, Stage<'q>); 3],
    len: usize,
}

impl<'q> Stages<'q> {
    fn new(source: (&'static str, Stage<'q>)) -> Self {
        Stages {
            slots: [source; 3],
            len: 1,
        }
    }

    fn push(&mut self, stage: (&'static str, Stage<'q>)) {
        self.slots[self.len] = stage;
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, Stage<'q>)> + Clone + '_ {
        self.slots[..self.len].iter().copied()
    }

    /// What the stages read, together ([`Stage::reads`]).
    fn reads(&self) -> impl Iterator<Item = Read<'q>> + Clone + '_ {
        self.iter().flat_map(|(_, stage)| stage.reads()).flatten()
    }

    /// [`reads`](Self::reads), owning the stages.
    pub(crate) fn into_reads(self) -> impl Iterator<Item = Read<'q>> + Clone {
        let len = self.len;
        self.slots
            .into_iter()
            .take(len)
            .flat_map(|(_, stage)| stage.reads())
            .flatten()
    }
}

/// Resolves a query to the stages that answer it: a source, then at
/// most two filters.
pub(crate) fn stages(q: &Query) -> Result<Stages<'_>> {
    // The driver predicate joins the selection's plan unless the
    // pit-lane join has to see the kind's events first.
    let driver = q.driver.as_deref().filter(|_| !q.at_pitlane);
    let select = |kind| {
        (
            "conceptual:select_events",
            Stage::SelectEvents { kind, driver },
        )
    };
    let mut stages = Stages::new(match (&q.target, q.driver.as_deref()) {
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
    });
    if q.at_pitlane {
        stages.push(("filter:pitlane", Stage::Pitlane));
    }
    // Nothing is left of `WITH DRIVER` for a filter when the source
    // selected by driver itself: the fused selection, or a visibility
    // source, whose every segment names its driver.
    let by_driver = match stages.slots[0].1 {
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
/// `kind` — those naming the driver bound as `$0`, when `names_driver`.
fn event_selection(video: &str, kind: &str, names_driver: bool) -> MoaExpr {
    let mut terms = vec![(event_field(video, "kind"), Predicate::Eq(Atom::str(kind)))];
    if names_driver {
        terms.push((event_field(video, "driver"), Predicate::EqParam(0)));
    }
    MoaExpr::conjunction(terms)
}

/// The rows of an event field holding one value, `$0` naming the
/// field's BAT and `$1` the value: parsed once per system
/// ([`Vdbms::naming`]). It reads the field by its catalog name, so the
/// selection probes the field's value index.
pub(crate) const NAMING_MIL: &str = "RETURN bat($0).select($1);";

/// How `calls` selections found their rows, one word each — `built`
/// (a value index built for it), `hit` (a cached one), `scan` (a morsel
/// scan) — from what the value-index counters gained meanwhile.
fn selection_uses(calls: u64, hits: u64, built: u64) -> String {
    let built = built.min(calls);
    let hits = hits.min(calls - built);
    let scans = calls - built - hits;
    let uses = [("built", built), ("hit", hits), ("scan", scans)];
    let words: Vec<&str> = uses
        .iter()
        .flat_map(|&(word, n)| std::iter::repeat_n(word, n as usize))
        .collect();
    words.join(",")
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

impl Vdbms {
    /// Answers a §5.6 retrieval query over an annotated video.
    pub fn query(&self, video: &str, text: &str) -> Result<Vec<RetrievedSegment>> {
        let q = parse_query(text)?;
        let entry = self.retrieve(video, &q, &ExecBudget::unlimited(), &mut Trace(None))?;
        Ok(entry.value.segments.clone())
    }

    /// The stamp a standing `q` over `video` is armed on: the guard of
    /// what its stages read ([`guard::reads`]), the one its result-cache
    /// entry is stored under. It moves with every commit that can change
    /// the answer and with no other. Over `"*"` it is the largest over
    /// the catalog's videos, so a commit none of their answers read
    /// leaves it where it was.
    pub fn guard(&self, video: &str, q: &Query) -> Stamp {
        self.catalog.guard(video, guard::reads(q))
    }

    /// Runs a full statement: `RETRIEVE …` answers, `PROFILE RETRIEVE …`
    /// answers with a measured span tree, `EXPLAIN RETRIEVE …` returns
    /// the plan shape without executing. `video = "*"` is every catalog
    /// video ([`answer`](Self::answer)).
    pub fn run(&self, video: &str, text: &str) -> Result<QueryOutput> {
        self.run_with_budget(video, text, &ExecBudget::unlimited())
    }

    /// [`run`](Self::run) under an execution budget: the kernel checks
    /// `budget`'s fuel, deadline and cancellation token at MIL loop
    /// back-edges, so a request-layer deadline actually interrupts a
    /// slow query instead of merely being reported late.
    pub fn run_with_budget(
        &self,
        video: &str,
        text: &str,
        budget: &ExecBudget,
    ) -> Result<QueryOutput> {
        self.answer(video, text, budget).map(Answered::into_output)
    }

    /// [`run_with_budget`](Self::run_with_budget) on every catalog video:
    /// the answers grouped by video, sorted by name.
    pub fn run_multi_with_budget(&self, text: &str, budget: &ExecBudget) -> Result<QueryOutput> {
        self.run_with_budget("*", text, budget)
    }

    /// Answers a statement through the result cache without materializing
    /// a row — the entry point the serving layer uses, which writes its
    /// reply from what this returns. `video = "*"` runs a plain
    /// `RETRIEVE` against *every* catalog video (the form the
    /// scatter-gather router fans out per shard), in name order, all
    /// per-video executions sharing `budget` so a deadline bounds the
    /// whole sweep; `PROFILE`/`EXPLAIN` are per-video diagnostics and are
    /// rejected there with a parse error.
    pub fn answer(&self, video: &str, text: &str, budget: &ExecBudget) -> Result<Answered> {
        let statement = parse_statement(text)?;
        if video == "*" {
            let Statement::Retrieve(q) = statement else {
                return Err(CobraError::Parse(
                    "PROFILE/EXPLAIN cannot target all videos ('*'); name one video".into(),
                ));
            };
            let entries = self.catalog.videos().into_iter().map(|video| {
                let entry = self.retrieve(&video, &q, budget, &mut Trace(None))?;
                Ok((video, entry))
            });
            return entries.collect::<Result<_>>().map(Answered::Sweep);
        }
        Ok(match statement {
            Statement::Retrieve(q) => {
                Answered::Video(self.retrieve(video, &q, budget, &mut Trace(None))?)
            }
            Statement::Profile(q) => {
                let mut trace = Trace(Some((SpanNode::new("query"), Instant::now())));
                let entry = self.retrieve(video, &q, budget, &mut trace)?;
                Answered::Output(QueryOutput::Profile(QueryProfile {
                    segments: entry.value.segments.clone(),
                    span: trace.finish(),
                }))
            }
            Statement::Explain(q) => Answered::Output(QueryOutput::Plan(self.explain(video, &q)?)),
        })
    }

    /// The one retrieval pipeline, and the one path through the result
    /// cache: resolve `q` to its stages, and hand back the stored entry
    /// when the guard of what they read ([`Stage::reads`],
    /// [`crate::Catalog::guard`]) proves those rows unchanged; otherwise
    /// capture the layer — its four columns and that guard at the
    /// commit they belong to, together ([`crate::Catalog::event_layer`])
    /// — run every stage over that one layer, and (on success only)
    /// store the answer under that guard, for every later statement
    /// sharing the normalized query text, `RETRIEVE` or `PROFILE` alike.
    /// A write racing the execution rebinds the columns without touching
    /// the ones captured, so the answer is the captured commit's
    /// exactly. Failed queries are never cached.
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
    ) -> Result<Arc<CachedResult<Answer>>> {
        trace.meta("target", || format!("{:?}", q.target));
        trace.meta("video", || video.to_string());
        let probing = trace.on().then(Instant::now);
        let normalized = q.normalized();
        let stages = stages(q)?;
        let current = self.catalog.guard(video, stages.reads());
        if let Some(hit) = self.results.lookup(video, &normalized, Some(current)) {
            if let Some(clock) = probing {
                trace.attach(
                    SpanNode::leaf("cache:result", clock.elapsed().as_nanos() as u64)
                        .with_meta("result", "hit")
                        .with_meta("rows", hit.value.segments.len().to_string()),
                );
            }
            return Ok(hit);
        }
        self.catalog.video(video)?;
        let (guard, layer) = self.catalog.event_layer(video, stages.reads())?;
        let mut segments = Vec::new();
        for (name, stage) in stages.iter() {
            segments = trace.span(name, |span| {
                self.run_stage(video, layer.as_ref(), &stage, segments, budget, span)
            })?;
        }
        let answer = Answer::new(segments);
        let bytes = answer.bytes();
        Ok(self.results.store(video, &normalized, answer, guard, bytes))
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
        for (name, stage) in stages(q)?.iter() {
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
    /// (empty for a source), reading `layer`: `video`'s event layer as
    /// the retrieval captured it, `None` when the video has none.
    fn run_stage(
        &self,
        video: &str,
        layer: Option<&EventLayer>,
        stage: &Stage<'_>,
        input: Vec<RetrievedSegment>,
        budget: &ExecBudget,
        span: &mut Trace,
    ) -> Result<Vec<RetrievedSegment>> {
        let out = match stage {
            Stage::SelectEvents { kind, driver } => {
                return self.select_events(video, layer, kind, *driver, budget, span)
            }
            Stage::LeaderSegments => return self.leader_segments(video, layer),
            Stage::DriverVisible(driver) => {
                return self.driver_visible(video, layer, driver, budget)
            }
            // Pit-lane restriction via the rule extension: join the
            // target with overlapping pit-stop captions.
            Stage::Pitlane => self.join_with_pitlane(layer, input)?,
            // Driver restriction: direct attribute when present,
            // otherwise overlap with the driver's visibility segments
            // (the combination of Bayesian fusion and text recognition
            // the paper advertises).
            Stage::Driver(driver) => {
                let visible = self.driver_visible(video, layer, driver, budget)?;
                let mut out = input;
                out.retain(|seg| match &seg.driver {
                    Some(named) => &**named == *driver,
                    None => overlaps_any(&visible, seg.start, seg.end),
                });
                // A row kept by the overlap takes the visibility
                // segments' driver: the layer dictionary's own string.
                if let Some(name) = visible.first().and_then(|seg| seg.driver.as_ref()) {
                    for seg in &mut out {
                        seg.driver.get_or_insert_with(|| Arc::clone(name));
                    }
                }
                out
            }
        };
        span.meta("kept", || out.len().to_string());
        Ok(out)
    }

    /// What an event selection is costed against: the kernel's current
    /// measured statistics (per-opcode ns/row, morsel throughput) with
    /// the sketches of the two fields a selection can constrain.
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
        names_driver: bool,
        stats: &PlanStats,
    ) -> PlanChoice {
        let cfg = f1_moa::PlannerConfig {
            max_threads: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(8),
        };
        f1_moa::plan(event_selection(video, kind, names_driver), stats, &cfg)
    }

    /// Plans both selections a statement over `kind` can ask for, from
    /// one reading of the statistics, and prepares their programs.
    fn compile_event_plan(&self, video: &str, kind: &str) -> Result<Arc<CompiledPlan>> {
        let stats = self.event_plan_stats(video);
        let prepared = |names_driver| -> Result<PreparedPlan> {
            let choice = self.plan_event_selection(video, kind, names_driver, &stats);
            let program = choice.prepare(&self.kernel)?;
            Ok(PreparedPlan { choice, program })
        };
        Ok(Arc::new(CompiledPlan {
            of_kind: prepared(false)?,
            of_driver: prepared(true)?,
            generation: self.plans.cost_generation(),
        }))
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
        let choice = self.plan_event_selection(video, kind, driver.is_some(), &stats);
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
            .with_meta("mil", choice.mil_bound(driver.map(Atom::str).as_slice()))
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
        layer: Option<&EventLayer>,
        kind: &str,
        driver: Option<&str>,
        budget: &ExecBudget,
        span: &mut Trace,
    ) -> Result<Vec<RetrievedSegment>> {
        span.meta("kind", || kind.to_string());
        if let Some(name) = driver {
            span.meta("driver", || name.to_string());
        }
        let Some(layer) = layer else {
            return Ok(Vec::new());
        };

        // Conceptual → logical: the planner's verdict depends only on
        // (video, kind, cost-model generation) and on whether a driver
        // is named, so a cached one — its program parsed — is reused
        // until the generation advances, this request's driver bound as
        // its parameter; the execution budget below still applies.
        self.maybe_refresh_plan_costs();
        let param = driver.map(Atom::str);
        let params = param.as_slice();
        let plan = span.span("moa:compile", |span| {
            let (plan, cached) = match self.plans.get(video, kind) {
                Some(plan) => (plan, "hit"),
                None => {
                    let plan = self.compile_event_plan(video, kind)?;
                    self.plans.store(video, kind, Arc::clone(&plan));
                    (plan, "miss")
                }
            };
            let choice = &plan.selection(driver.is_some()).choice;
            span.meta("mil", || choice.mil_bound(params));
            span.meta("cache", || cached.into());
            span.meta("generation", || plan.generation.to_string());
            span.meta("threads", || choice.threads.to_string());
            Ok(plan)
        })?;
        let PreparedPlan { choice, program } = plan.selection(driver.is_some());

        // Logical → physical: one evaluation selects the rows. The
        // paper's overlap rule asks for more only where it can matter:
        // an event of the kind that names no one still involves the
        // driver while the driver is visible, so a video that has
        // unnamed events at all is asked for those of the kind, and
        // for the driver's visibility once there are any.
        let op_times = || {
            self.kernel
                .metrics()
                .registry()
                .histograms_named("mil.op_ns")
        };
        let index_uses = || {
            let metrics = self.kernel.metrics();
            (metrics.index_hits.get(), metrics.index_misses.get())
        };
        let started = span
            .on()
            .then(|| (op_times(), index_uses(), Instant::now()));
        let mut rows = self.selected_rows(layer, program, params, budget)?;
        let mut unnamed = Vec::new();
        let mut visible = Vec::new();
        if let Some(name) = driver {
            if layer.read(|events| Ok(events.drivers.code_of("").is_some()))? {
                unnamed = self.selected_rows(layer, program, &[Atom::str("")], budget)?;
            }
            if !unnamed.is_empty() {
                visible = self.driver_visible(video, Some(layer), name, budget)?;
            }
        }
        if let Some((before, (hits, built), clock)) = started {
            // Estimated (planner) next to measured (wall clock), so
            // PROFILE exposes how far the cost model is off; the kernel
            // operators underneath from what their histograms gained,
            // and how each selection found its rows from what the
            // value-index counters gained.
            let mut eval = SpanNode::leaf("mil:eval", clock.elapsed().as_nanos() as u64)
                .with_meta("plan_est_ns", format!("{:.0}", choice.chosen_cost));
            for (key, after) in op_times() {
                let h = match before.iter().find(|(k, _)| *k == key) {
                    Some((_, before)) => after.delta(before),
                    None => after,
                };
                if h.count() > 0 {
                    let op = key.label("op").unwrap_or("op");
                    let mut node = SpanNode::leaf(&format!("kernel:{op}"), h.sum())
                        .with_meta("calls", h.count().to_string());
                    if op == "select" {
                        let (now_hits, now_built) = index_uses();
                        let uses = selection_uses(h.count(), now_hits - hits, now_built - built);
                        node = node.with_meta("index", uses);
                    }
                    eval.children.push(node);
                }
            }
            span.attach(eval);
        }

        // Materialize the answer from the fields of the rows kept. Its
        // rows share one label and, when a driver is named, one driver;
        // otherwise each row's driver is the layer dictionary's string.
        span.span("fetch:results", |span| {
            let label = Arc::<str>::from(kind.trim_start_matches("caption:"));
            let named = driver.map(Arc::<str>::from);
            let out = layer.read(|events| {
                for row in unnamed {
                    let (start, end) = events.span(row)?;
                    if overlaps_any(&visible, start, end) {
                        rows.push(row);
                    }
                }
                // Back into event-layer order.
                rows.sort_unstable();
                let segment = |&row| {
                    let (start, end) = events.span(row)?;
                    Ok(RetrievedSegment {
                        start,
                        end,
                        label: Arc::clone(&label),
                        driver: match &named {
                            Some(name) => Some(Arc::clone(name)),
                            None => events.driver(row),
                        },
                    })
                };
                rows.iter().map(segment).collect::<Result<Vec<_>>>()
            })?;
            span.meta("rows", || out.len().to_string());
            Ok(out)
        })
    }

    /// Evaluates a prepared program that selects over `layer`, with
    /// `params` bound, and returns the rows it kept: the oids in the
    /// result's head, which number the layer's rows from 0.
    fn selected_rows(
        &self,
        layer: &EventLayer,
        program: &Prepared,
        params: &[Atom],
        budget: &ExecBudget,
    ) -> Result<Vec<usize>> {
        let kept = self
            .kernel
            .eval_prepared(program, params, budget, &layer.bindings())?
            .as_bat()?;
        let kept = kept.read().recover();
        let head = kept.head();
        if let Some((base, len)) = head.void_run() {
            return Ok((base as usize..base as usize + len).collect());
        }
        match head.oids() {
            Some(oids) => Ok(oids.iter().map(|&oid| oid as usize).collect()),
            None => Err(mistyped("an oid head", head.atom_type()).into()),
        }
    }

    /// Leading spans from classification captions: the shown leader holds
    /// the lead until the next classification caption, or the video's
    /// end — a caption at or past the end leads over an empty span.
    fn leader_segments(
        &self,
        video: &str,
        layer: Option<&EventLayer>,
    ) -> Result<Vec<RetrievedSegment>> {
        let n_clips = self.catalog.video(video)?.n_clips;
        let Some(layer) = layer else {
            return Ok(Vec::new());
        };
        let label = Arc::<str>::from("leading");
        layer.read(|events| {
            let mut caps = Vec::new();
            for row in events.rows_of("caption:classification") {
                caps.push((events.span(row)?.0, row));
            }
            caps.sort_by_key(|&(start, _)| start);
            let ends = caps.iter().skip(1).map(|&(start, _)| start);
            let lead = |(&(start, row), end): (&(usize, usize), usize)| RetrievedSegment {
                start,
                end: end.max(start),
                label: Arc::clone(&label),
                driver: events.driver(row),
            };
            Ok(caps.iter().zip(ends.chain([n_clips])).map(lead).collect())
        })
    }

    /// Segments where a driver is visibly involved: the events naming
    /// the driver — the kernel's selection `<v>.ev.driver = D` — padded
    /// by five seconds on each side.
    fn driver_visible(
        &self,
        video: &str,
        layer: Option<&EventLayer>,
        driver: &str,
        budget: &ExecBudget,
    ) -> Result<Vec<RetrievedSegment>> {
        let Some(layer) = layer else {
            return Ok(Vec::new());
        };
        let params = [Atom::str(event_field(video, "driver")), Atom::str(driver)];
        let rows = self.selected_rows(layer, &self.naming, &params, budget)?;
        let label = Arc::<str>::from("segment");
        layer.read(|events| {
            let visible = |&row| {
                let (start, end) = events.span(row)?;
                Ok(RetrievedSegment {
                    start: start.saturating_sub(VISIBILITY_PAD),
                    end: end + VISIBILITY_PAD,
                    label: Arc::clone(&label),
                    // The layer dictionary's own string.
                    driver: Some(Arc::clone(events.drivers.value(row))),
                })
            };
            rows.iter().map(visible).collect()
        })
    }

    /// The rule-extension join: keep segments overlapping a pit-stop
    /// caption of `layer`, carrying over the pit driver — the layer
    /// dictionary's string, as a pit stop's fact names its row.
    fn join_with_pitlane(
        &self,
        layer: Option<&EventLayer>,
        segments: Vec<RetrievedSegment>,
    ) -> Result<Vec<RetrievedSegment>> {
        let Some(layer) = layer else {
            return Ok(Vec::new());
        };
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
                Interval::try_new(seg.start, seg.end)?,
            ));
        }
        layer.read(|events| {
            for row in events.rows_of("caption:pit_stop") {
                let (start, end) = events.span(row)?;
                facts.push(Fact::new(
                    "pit_stop",
                    vec![Value::Int(row as i64)],
                    Interval::try_new(start, end)?,
                ));
            }
            let derived = engine.run(facts)?;
            let mut out = Vec::new();
            for f in derived.iter().filter(|f| f.predicate == "at_pitlane") {
                let (Value::Int(i), Value::Int(pit)) = (&f.args[0], &f.args[1]) else {
                    continue;
                };
                let mut seg = segments[*i as usize].clone();
                if seg.driver.is_none() {
                    seg.driver = events.driver(*pit as usize);
                }
                if !out.contains(&seg) {
                    out.push(seg);
                }
            }
            out.sort_by_key(|s: &RetrievedSegment| s.start);
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{EventRecord, VideoInfo};
    use f1_monet::{Bat, ColumnData};

    /// A layer whose columns differ in length — one only a binding made
    /// by hand can leave — answers every source with the typed kernel
    /// error the wire calls `internal`, never with a shorter answer.
    #[test]
    fn a_ragged_event_layer_bound_by_hand_is_a_typed_error() {
        let vdbms = Vdbms::try_new().unwrap();
        vdbms
            .catalog
            .register_video(VideoInfo {
                name: "v".into(),
                n_clips: 100,
                n_frames: 250,
            })
            .unwrap();
        let event = |start, driver: Option<&str>| EventRecord {
            kind: "highlight".into(),
            start,
            end: start + 5,
            driver: driver.map(str::to_string),
        };
        let rows = [event(0, None), event(10, Some("X")), event(20, None)];
        vdbms.catalog.store_events("v", &rows).unwrap();
        let short = Bat::from_tail_data(ColumnData::Int(vec![0, 10]));
        vdbms.kernel().set_bat("v.ev.start", short);
        for text in [
            "RETRIEVE HIGHLIGHTS",
            "RETRIEVE HIGHLIGHTS WITH DRIVER \"X\"",
            "RETRIEVE SEGMENTS WITH DRIVER \"X\"",
            "RETRIEVE LEADER",
            "RETRIEVE HIGHLIGHTS AT PITLANE",
        ] {
            match vdbms.query("v", text) {
                Err(CobraError::Kernel(MonetError::OutOfRange { index: 2, len: 2 })) => {}
                other => panic!("{text}: {other:?}"),
            }
        }
    }
}
