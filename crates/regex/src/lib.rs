//! # xic-regex — content models for DTD element type definitions
//!
//! Definition 2.2 of Fan & Siméon (PODS 2000) gives element type definitions
//! as regular expressions over element types and the atomic type `S`:
//!
//! ```text
//! α ::= S | e | ε | α + α | α , α | α*
//! ```
//!
//! This crate implements that grammar end to end:
//!
//! * [`ContentModel`] — the AST, with a parser ([`ContentModel::parse`]) and
//!   printer (its `Display`);
//! * [`Symbol`] — the alphabet `E ∪ {S}` over which words are drawn;
//! * [`Nfa`] — a Glushkov (position) automaton built from the AST;
//! * [`Dfa`] — its subset-construction determinization, the validator's one
//!   content-model matcher;
//! * [`ContentModel::matches_derivative`] — a Brzozowski-derivative matcher,
//!   kept with [`Nfa::matches`] as an independently implemented oracle for
//!   testing, and timed against both automata by ablation E10b;
//! * [`occurrences`] / [`ContentModel::is_unique_subelement`] — the
//!   occurrence-interval analysis behind §3.4's *unique sub-element* test
//!   ("S occurs exactly once in every word of L(α)");
//! * [`ContentModel::sample`] — random word sampling from `L(α)` for
//!   property tests and synthetic document generation.
//!
//! The grammar has no empty-language former (`∅`), so `L(α)` is never empty;
//! [`ContentModel::min_word`] exhibits a shortest witness word.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod automata;
mod occurrence;
mod parser;
mod sample;
mod simplify;

pub use ast::{ContentModel, Symbol};
pub use automata::{Dfa, Nfa};
pub use occurrence::{occurrences, OccurrenceInterval};
pub use parser::ParseError;
