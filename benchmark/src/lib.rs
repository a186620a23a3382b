//! # legaliot-benchmark
//!
//! The repo's benchmark: four oracle-checked workloads over the enforcement stack,
//! measured end to end and — from outside, through public functions and the public
//! `Dataplane::stats()/telemetry()` snapshots — layer by layer. See `README.md` for
//! the command line, the metric glossary and why each workload exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalogue;
pub mod cli;
pub mod compare;
pub mod outcome;
pub mod pace;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stamp;
pub mod stats;
pub mod suite;
pub mod workloads;
