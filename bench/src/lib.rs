//! `perfbench` — this repository's benchmark: four seed-parameterised
//! workloads, each timed end to end under record and replay for every
//! scheme, plus a traced run that attributes cost to the repo's layers.
//! `bench/README.md` is the glossary of every workload and metric name.

pub mod affinity;
pub mod json;
pub mod layers;
pub mod names;
pub mod run;
pub mod script;
pub mod spans;
pub mod summary;
pub mod workloads;
