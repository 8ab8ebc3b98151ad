//! # xic — Integrity Constraints for XML
//!
//! A faithful, executable implementation of
//!
//! > Wenfei Fan and Jérôme Siméon. **Integrity Constraints for XML.**
//! > PODS 2000.
//!
//! The paper formalizes XML documents as *data trees*, DTDs as structure
//! plus integrity constraints (`DTD^C`), introduces three basic constraint
//! languages — relational-style **`L`** (multi-attribute keys / foreign
//! keys), native-XML **`L_u`** (unary keys, set-valued foreign keys,
//! inverse constraints) and object-style **`L_id`** (document-wide IDs,
//! references into IDs, inverses) — and settles their implication and
//! finite-implication problems. It then studies path functional,
//! inclusion and inverse constraints and their implication by `L_id`.
//!
//! This crate is the facade over the full workspace:
//!
//! | Module | Paper | Contents |
//! |---|---|---|
//! | [`model`] | §2.1 | data trees `(V, elem, att, root)` |
//! | [`regex`] | §2.2 | content models `α ::= S \| e \| ε \| α+α \| α,α \| α*`, automata, §3.4 unique-sub-element analysis |
//! | [`xml`] | §1 | from-scratch XML + DTD parsing/serialization |
//! | [`constraints`] | §2.2–2.4 | `DtdStructure`, the three constraint languages, `DTD^C`, the paper's running examples |
//! | [`validate`] | §2.3 | Definition 2.4 validity with structured violation reports |
//! | [`implication`] | §3 | `L_id`/`L_u`/primary-`L` solvers with machine-checkable derivations and countermodels; the chase for undecidable general `L` |
//! | [`paths`] | §4 | `paths(τ)`, `type(τ.ρ)`, the three path-constraint deciders, semantic evaluation |
//! | [`fo2`] | §1, Fig. 1 | 2-pebble EF games and the FO²-inexpressibility witness |
//! | [`legacy`] | §1 | constraint-preserving relational / object exports with generators |
//! | [`storage`] | — | durable state: versioned checksummed snapshots, the edit write-ahead log, warm start |
//!
//! ## Quickstart
//!
//! ```
//! use xic::prelude::*;
//!
//! // The paper's book DTD^C: structure + Σ (in L_u).
//! let dtdc = xic::constraints::examples::book_dtdc();
//!
//! // Parse the paper's running document and validate it.
//! let doc = parse_document(r#"
//!   <book>
//!     <entry isbn="1-55860-622-X">
//!       <title>Data on the Web</title><publisher>Morgan Kaufmann</publisher>
//!     </entry>
//!     <author>Abiteboul</author><author>Buneman</author><author>Suciu</author>
//!     <section sid="intro"><title>Introduction</title></section>
//!     <ref to="1-55860-622-X"/>
//!   </book>"#).unwrap();
//! // `to` is set-valued per the DTD; re-split it through the structure:
//! let report = validate(&doc.tree, &dtdc);
//! assert!(report.is_valid(), "{report}");
//!
//! // Implication: is `ref.to ⊆_S entry.isbn` redundant given Σ? (Yes: declared.)
//! let solver = LuSolver::new(dtdc.constraints()).unwrap();
//! let phi = Constraint::set_fk("ref", "to", "entry", "isbn");
//! assert!(solver.implies(&phi, LuMode::Finite).unwrap().is_implied());
//!
//! // Path reasoning: entry.isbn determines a book's authors (Prop 4.1).
//! let paths = PathSolver::new(&dtdc);
//! assert!(paths.functional_implied(
//!     &"book".into(), &Path::from("entry.isbn"), &Path::from("author")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use xic_constraints as constraints;
pub use xic_fo2 as fo2;
pub use xic_implication as implication;
pub use xic_legacy as legacy;
pub use xic_model as model;
pub use xic_obs as obs;
pub use xic_paths as paths;
pub use xic_regex as regex;
pub use xic_storage as storage;
pub use xic_validate as validate_mod;
pub use xic_xml as xml;

pub use xic_validate::validate;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use xic_constraints::{
        AttrKind, AttrType, Constraint, DtdC, DtdStructure, Field, Incompatibility, Language,
    };
    pub use xic_fo2::{
        figure1, probes, two_pebble_equivalent, two_pebble_equivalent_bounded, Fo2, FoStructure,
    };
    pub use xic_implication::lu::Mode as LuMode;
    pub use xic_implication::{
        Chase, ChaseOutcome, Instance, LidSolver, LpSolver, LuSolver, Proof, Verdict,
    };
    pub use xic_legacy::{ObjSchema, RelSchema};
    pub use xic_model::{
        render_tree, AttrValue, DataTree, Edit, ExtIndex, Name, NodeId, RenderOptions, TreeBuilder,
    };
    pub use xic_obs::{
        current_request, request_scope, AccessLog, AccessRecord, Fanout, Histogram, Metrics,
        MetricsCollector, Obs, TraceCollector, TraceFilter,
    };
    pub use xic_paths::{ext_of_path, nodes_of, Path, PathConstraint, PathSolver};
    pub use xic_regex::{ContentModel, Dfa, Nfa, Symbol};
    pub use xic_storage::{
        decode_snapshot, encode_snapshot, read_snapshot, write_snapshot, DocStore, FsyncPolicy,
        Recovered, SnapshotStats, StorageError, Wal,
    };
    pub use xic_validate::{
        check_constraint, validate, BatchEdit, BatchError, LiveState, LiveValidator, MatcherKind,
        Options, Report, ReportDiff, StateError, Validator, Violation,
    };
    pub use xic_xml::{
        constraints_to_xsd, parse_document, parse_dtd, parse_events, serialize_document,
        serialize_dtd, xsd_to_constraints, Event, EventParser, XsdExport,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_every_subsystem() {
        // One end-to-end pass touching each module.
        let dtdc = crate::constraints::examples::company_dtdc();
        let schema = ObjSchema::person_dept();
        assert_eq!(
            schema.to_dtdc().constraints().len(),
            dtdc.constraints().len()
        );
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::SmallRng::seed_from_u64(1)
        };
        let inst = schema.generate_instance(3, &mut rng);
        let tree = schema.export(&inst);
        assert!(validate(&tree, &dtdc).is_valid());
        let xml = serialize_document(&tree);
        let dtd_text = serialize_dtd(dtdc.structure());
        let round = parse_document(&format!("<!DOCTYPE db [\n{dtd_text}]>\n{xml}")).unwrap();
        assert_eq!(round.tree.len(), tree.len());
        let solver = LidSolver::new(dtdc.constraints(), Some(dtdc.structure()));
        assert!(solver
            .implies(&Constraint::Id {
                tau: "person".into()
            })
            .is_implied());
        let paths = PathSolver::new(&dtdc);
        assert!(paths.is_path(&"db".into(), &Path::from("dept.manager.name")));
        let (g, h) = figure1(2);
        assert!(two_pebble_equivalent(&g, &h));
    }
}
