//! End-to-end benchmark of the GNCG reproduction.
//!
//! Four named workloads ([`workloads::Workload`]) drive the library
//! crates through their public APIs. The untraced run ([`measure`])
//! reports the end-to-end metrics; the traced run ([`trace`]) re-drives
//! every cell with a span around each layer call and reports per-layer
//! metrics. Every run checks its output bytes ([`check`]). The binary in
//! `main.rs` prints the run record and, as its last line, the result.

pub mod check;
pub mod measure;
pub mod report;
mod service;
pub mod stats;
pub mod trace;
pub mod workloads;
