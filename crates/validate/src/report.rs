//! Structured validation reports.

use std::fmt;

use xic_model::{Name, NodeId};
use xic_obs::Metrics;

/// One validity failure: which clause of Definition 2.4 is violated, and
/// where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The root's label is not the root type `r`.
    RootLabel {
        /// Expected root type.
        expected: Name,
        /// Actual root label.
        found: Name,
    },
    /// A vertex is labelled with an undeclared element type.
    UnknownElementType {
        /// The vertex.
        node: NodeId,
        /// Its label.
        label: Name,
    },
    /// A vertex's child word is not in its content model's language.
    ContentModel {
        /// The vertex.
        node: NodeId,
        /// Its element type.
        tau: Name,
        /// The content model (printed).
        expected: String,
        /// The child word (printed labels).
        found: String,
    },
    /// An attribute present on a vertex is not declared (`att` defined but
    /// `R` undefined).
    UndeclaredAttribute {
        /// The vertex.
        node: NodeId,
        /// The attribute.
        attr: Name,
    },
    /// A declared attribute is absent (`R` defined but `att` undefined).
    MissingAttribute {
        /// The vertex.
        node: NodeId,
        /// The attribute.
        attr: Name,
    },
    /// A single-valued attribute holds a non-singleton set.
    NotSingleton {
        /// The vertex.
        node: NodeId,
        /// The attribute.
        attr: Name,
        /// The set's cardinality.
        len: usize,
    },
    /// Two distinct vertices agree on a key.
    Key {
        /// The violated constraint (printed).
        constraint: String,
        /// First vertex.
        a: NodeId,
        /// Second vertex.
        b: NodeId,
        /// The shared key value(s).
        value: String,
    },
    /// A (set-valued) foreign-key value has no referent.
    ForeignKey {
        /// The violated constraint (printed).
        constraint: String,
        /// The referencing vertex.
        node: NodeId,
        /// The dangling value(s).
        value: String,
    },
    /// A vertex misses the field a constraint needs (e.g. an absent unique
    /// sub-element, or an attribute expected by a key).
    MissingField {
        /// The constraint needing the field (printed).
        constraint: String,
        /// The vertex.
        node: NodeId,
        /// The field (printed).
        field: String,
    },
    /// Two vertices share an ID value (`→_id` uniqueness is
    /// document-wide).
    DuplicateId {
        /// The violated constraint (printed).
        constraint: String,
        /// First vertex.
        a: NodeId,
        /// Second vertex.
        b: NodeId,
        /// The shared ID value.
        value: String,
    },
    /// An inverse constraint fails: a forward reference is not echoed back.
    Inverse {
        /// The violated constraint (printed).
        constraint: String,
        /// The vertex holding the un-echoed reference.
        from: NodeId,
        /// The vertex that should point back.
        to: NodeId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::RootLabel { expected, found } => {
                write!(f, "root labelled {found}, expected {expected}")
            }
            Violation::UnknownElementType { node, label } => {
                write!(f, "{node:?}: undeclared element type {label}")
            }
            Violation::ContentModel {
                node,
                tau,
                expected,
                found,
            } => write!(
                f,
                "{node:?} ({tau}): children [{found}] do not match content model {expected}"
            ),
            Violation::UndeclaredAttribute { node, attr } => {
                write!(f, "{node:?}: undeclared attribute {attr}")
            }
            Violation::MissingAttribute { node, attr } => {
                write!(f, "{node:?}: missing declared attribute {attr}")
            }
            Violation::NotSingleton { node, attr, len } => write!(
                f,
                "{node:?}: single-valued attribute {attr} holds {len} values"
            ),
            Violation::Key {
                constraint,
                a,
                b,
                value,
            } => write!(f, "{constraint}: {a:?} and {b:?} share key {value}"),
            Violation::ForeignKey {
                constraint,
                node,
                value,
            } => write!(f, "{constraint}: {node:?} references missing {value}"),
            Violation::MissingField {
                constraint,
                node,
                field,
            } => write!(f, "{constraint}: {node:?} lacks field {field}"),
            Violation::DuplicateId {
                constraint,
                a,
                b,
                value,
            } => write!(f, "{constraint}: {a:?} and {b:?} share ID {value:?}"),
            Violation::Inverse {
                constraint,
                from,
                to,
            } => write!(
                f,
                "{constraint}: {from:?} references {to:?} without the inverse reference"
            ),
        }
    }
}

/// The outcome of validating one data tree.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All violations found (empty ⇒ valid).
    pub violations: Vec<Violation>,
    /// Per-run observability snapshot, present iff the producing
    /// validator had a metrics-aggregating collector attached (see
    /// `Validator::with_obs`). Never affects validity or `Display`.
    pub metrics: Option<Metrics>,
}

impl Report {
    /// A report of `violations` with no metrics attached.
    pub fn from_violations(violations: Vec<Violation>) -> Self {
        Report {
            violations,
            metrics: None,
        }
    }

    /// True iff no violation was found.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations.
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// True iff the report is empty (same as [`Report::is_valid`]).
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            return f.write_str("valid (0 violations)");
        }
        writeln!(
            f,
            "invalid: {} violation{}",
            self.violations.len(),
            if self.violations.len() == 1 { "" } else { "s" }
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_each_variant() {
        let n = |i: u32| -> NodeId {
            // NodeIds are opaque; obtain them through a builder.
            let mut b = xic_model::TreeBuilder::new();
            let mut last = b.node("x");
            for _ in 0..i {
                last = b.node("x");
            }
            last
        };
        let vs = vec![
            Violation::RootLabel {
                expected: Name::new("book"),
                found: Name::new("entry"),
            },
            Violation::Key {
                constraint: "entry.@isbn -> entry".into(),
                a: n(0),
                b: n(1),
                value: "x".into(),
            },
            Violation::ForeignKey {
                constraint: "ref.@to <=s entry.@isbn".into(),
                node: n(0),
                value: "y".into(),
            },
        ];
        for v in vs {
            assert!(!v.to_string().is_empty());
        }
        let r = Report::from_violations(vec![Violation::RootLabel {
            expected: Name::new("a"),
            found: Name::new("b"),
        }]);
        assert!(!r.is_valid());
        assert_eq!(r.len(), 1);
        assert!(r.to_string().contains("1 violation"));
    }
}
