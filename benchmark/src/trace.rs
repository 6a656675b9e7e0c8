//! In-memory spans recorded from outside the program.
//!
//! The traced run times the calls into each layer from the benchmark's
//! own code and keeps one [`Span`] per call: name, start, end, the span
//! that caused it, and the request it belongs to. Nothing is written
//! until the run ends. A span's self time is its duration minus what
//! its child spans cover.

use std::path::Path;
use std::time::Instant;

use cobra_obs::SpanNode;
use serde_json::{json, Value};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<u32>,
    /// Position of the request in the workload's read stream.
    pub req: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records one timed call; returns its index for children to name.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        req: u32,
    ) -> u32 {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        self.push(name, start_ns, end_ns, parent, req)
    }

    fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        req: u32,
    ) -> u32 {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Grafts the children of a `PROFILE` span tree under `parent`. The
    /// tree carries durations, not timestamps, so siblings are laid end
    /// to end from their parent's start.
    pub fn graft(&mut self, node: &SpanNode, parent: u32, req: u32) {
        let mut cursor = self.spans[parent as usize].start_ns;
        for child in &node.children {
            let idx = self.push(
                &child.name,
                cursor,
                cursor + child.elapsed_ns,
                Some(parent),
                req,
            );
            cursor += child.elapsed_ns;
            self.graft(child, idx, req);
        }
    }

    /// Self time of every span: duration minus its children's, floored
    /// at zero (a parent timed by a coarser clock can read shorter than
    /// the sum of its parts).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p as usize] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": (s.name.as_str()),
                    "start_ns": (s.start_ns),
                    "end_ns": (s.end_ns),
                    "parent": (s.parent),
                    "req": (s.req),
                })
            })
            .collect();
        json!({"spans": (Value::Array(spans))})
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The spans of a trace file; `None` when the shape is wrong.
    fn spans_from_json(v: &Value) -> Option<Vec<Span>> {
        v.get("spans")?
            .as_array()?
            .iter()
            .map(|s| {
                Some(Span {
                    name: s.get("name")?.as_str()?.to_string(),
                    start_ns: s.get("start_ns")?.as_u64()?,
                    end_ns: s.get("end_ns")?.as_u64()?,
                    parent: match s.get("parent")? {
                        Value::Null => None,
                        p => Some(p.as_u64()? as u32),
                    },
                    req: s.get("req")?.as_u64()? as u32,
                })
            })
            .collect()
    }

    fn sample() -> Trace {
        let mut t = Trace::new();
        let at = |us: u64| t.origin + Duration::from_micros(us);
        let (a, b, c, d) = (at(0), at(100), at(200), at(230));
        let root = t.record("core.profile", a, b, None, 3);
        t.record("serve.ping", c, d, None, 4);
        let tree = SpanNode::leaf("query", 100_000).with_child(
            SpanNode::leaf("conceptual:select_events", 80_000)
                .with_child(SpanNode::leaf("moa:compile", 5_000))
                .with_child(SpanNode::leaf("mil:eval", 60_000)),
        );
        t.graft(&tree, root, 3);
        t
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = sample();
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "core.profile",
                "serve.ping",
                "conceptual:select_events",
                "moa:compile",
                "mil:eval"
            ]
        );
        assert_eq!(t.self_times_ns(), [20_000, 30_000, 15_000, 5_000, 60_000]);
        // Siblings are laid end to end inside their parent.
        assert_eq!(t.spans[3].start_ns, t.spans[2].start_ns);
        assert_eq!(t.spans[4].start_ns, t.spans[3].end_ns);
        assert_eq!(t.spans[4].parent, Some(2));
        assert_eq!(t.durations_us("mil:eval"), [60.0]);
    }

    #[test]
    fn children_longer_than_their_parent_floor_at_zero() {
        let mut t = Trace::new();
        let root = t.push("outer", 0, 10, None, 0);
        t.push("inner", 0, 25, Some(root), 0);
        assert_eq!(t.self_times_ns(), [0, 25]);
    }

    #[test]
    fn trace_file_round_trips_through_serde_json() {
        let t = sample();
        let text = t.to_json().to_string();
        let parsed = serde_json::from_str(&text).expect("trace file parses");
        assert_eq!(spans_from_json(&parsed), Some(t.spans));
        assert_eq!(spans_from_json(&json!({"spans": [{"name": "x"}]})), None);
    }
}
