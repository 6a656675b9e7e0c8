//! The tree decoder of a query answer: the inverse of
//! `f1_cobra::json::query_output_to_json` over a parsed `Value`. The
//! byte codec's `read_query_output` accepts, rejects and decodes exactly
//! as `serde_json::from_str` followed by [`query_output_from_json`] do.

use cobra_obs::SpanNode;
use f1_cobra::json::segment_from_json;
use f1_cobra::{QueryOutput, QueryProfile, RetrievedSegment, VideoSegments};
use serde_json::Value;

/// Decodes a segment list.
pub fn segments_from_json(v: &Value) -> Option<Vec<RetrievedSegment>> {
    v.as_array()?.iter().map(segment_from_json).collect()
}

/// Decodes a `query_output_to_json` object back into a [`QueryOutput`].
/// Returns `None` on shape mismatch.
pub fn query_output_from_json(v: &Value) -> Option<QueryOutput> {
    match v.get("kind")?.as_str()? {
        "segments" => Some(QueryOutput::Segments(segments_from_json(
            v.get("segments")?,
        )?)),
        "profile" => Some(QueryOutput::Profile(QueryProfile {
            segments: segments_from_json(v.get("segments")?)?,
            span: SpanNode::from_json(v.get("span")?)?,
        })),
        "plan" => Some(QueryOutput::Plan(SpanNode::from_json(v.get("span")?)?)),
        "multi" => {
            let groups = v
                .get("videos")?
                .as_array()?
                .iter()
                .map(|g| {
                    Some(VideoSegments {
                        video: g.get("video")?.as_str()?.to_string(),
                        segments: segments_from_json(g.get("segments")?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Some(QueryOutput::Multi(groups))
        }
        _ => None,
    }
}
