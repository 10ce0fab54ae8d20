//! The benchmark's parts: input generation ([`workload`]), the measured
//! child process ([`child`]), span folding ([`trace`]), `/proc` readings
//! ([`procfs`]), the machine-speed reference ([`reference`]), order
//! statistics ([`stats`]), the metric declarations ([`spec`]) and the
//! measuring parent ([`run`]).

pub mod child;
pub mod procfs;
pub mod reference;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
