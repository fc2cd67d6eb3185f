//! # pg-datagen — workload generation
//!
//! Drives the benchmarks and the property-based tests:
//!
//! * [`SchemaGen`] draws random but *consistent* SDL schemas with
//!   controllable size and directive density;
//! * [`GraphGen`] draws Property Graphs that **strongly satisfy** a given
//!   schema (the generator mirrors the validator's rules constructively);
//! * [`inject()`] mutates a conforming graph so that it violates exactly
//!   one chosen rule — the detection-matrix experiment (E10) checks that
//!   precisely that rule fires;
//! * [`DeltaGen`] draws conflict-free random [`pgraph::GraphDelta`]s
//!   against a live graph — the mutation workload behind the
//!   incremental-revalidation benchmark (E2i) and the
//!   engine-agreement property test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deltagen;
pub mod graphgen;
pub mod inject;
pub mod schemagen;

pub use deltagen::{DeltaGen, DeltaGenParams};
pub use graphgen::{GraphGen, GraphGenParams};
#[doc(inline)]
pub use inject::{inject, Defect};
pub use schemagen::{SchemaGen, SchemaGenParams};
