//! The Moa structure primitives: set, tuple, object over Monet atoms.

use f1_monet::AtomType;

/// A Moa type term. "The algebra accepts all base types of the underlying
/// physical storage system and allows their orthogonal combination using
/// the structure primitives: set, tuple, and object."
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoaType {
    /// A physical base type.
    Atomic(AtomType),
    /// A homogeneous set.
    Set(Box<MoaType>),
    /// A named-field tuple.
    Tuple(Vec<(String, MoaType)>),
    /// An object: a named tuple with identity.
    Object {
        /// Class name.
        class: String,
        /// Attributes.
        fields: Vec<(String, MoaType)>,
    },
}

impl MoaType {
    /// Convenience constructor: a set of an atomic type.
    pub fn set_of(ty: AtomType) -> Self {
        MoaType::Set(Box::new(MoaType::Atomic(ty)))
    }

    /// Depth of structure nesting (atomic = 0).
    pub fn depth(&self) -> usize {
        match self {
            MoaType::Atomic(_) => 0,
            MoaType::Set(inner) => 1 + inner.depth(),
            MoaType::Tuple(fields) | MoaType::Object { fields, .. } => {
                1 + fields.iter().map(|(_, t)| t.depth()).max().unwrap_or(0)
            }
        }
    }

    /// Field lookup on tuples/objects.
    pub fn field(&self, name: &str) -> Option<&MoaType> {
        match self {
            MoaType::Tuple(fields) | MoaType::Object { fields, .. } => {
                fields.iter().find(|(n, _)| n == name).map(|(_, t)| t)
            }
            _ => None,
        }
    }

    /// Moa-style rendering, e.g. `SET<TUPLE<driver: str, lap: int>>`.
    pub fn render(&self) -> String {
        match self {
            MoaType::Atomic(t) => t.name().to_string(),
            MoaType::Set(inner) => format!("SET<{}>", inner.render()),
            MoaType::Tuple(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(n, t)| format!("{n}: {}", t.render()))
                    .collect();
                format!("TUPLE<{}>", inner.join(", "))
            }
            MoaType::Object { class, fields } => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(n, t)| format!("{n}: {}", t.render()))
                    .collect();
                format!("OBJECT {class}<{}>", inner.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video_segment() -> MoaType {
        MoaType::Object {
            class: "VideoSegment".into(),
            fields: vec![
                ("start".into(), MoaType::Atomic(AtomType::Int)),
                ("end".into(), MoaType::Atomic(AtomType::Int)),
                ("features".into(), MoaType::set_of(AtomType::Dbl)),
            ],
        }
    }

    #[test]
    fn depth_counts_nesting() {
        assert_eq!(MoaType::Atomic(AtomType::Int).depth(), 0);
        assert_eq!(MoaType::set_of(AtomType::Dbl).depth(), 1);
        assert_eq!(video_segment().depth(), 2);
    }

    #[test]
    fn field_lookup() {
        let t = video_segment();
        assert_eq!(t.field("start"), Some(&MoaType::Atomic(AtomType::Int)));
        assert_eq!(t.field("features"), Some(&MoaType::set_of(AtomType::Dbl)));
        assert_eq!(t.field("nope"), None);
        assert_eq!(MoaType::Atomic(AtomType::Int).field("x"), None);
    }

    #[test]
    fn rendering_is_readable() {
        assert_eq!(MoaType::set_of(AtomType::Str).render(), "SET<str>");
        assert_eq!(
            video_segment().render(),
            "OBJECT VideoSegment<start: int, end: int, features: SET<dbl>>"
        );
    }
}
