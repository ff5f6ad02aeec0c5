//! # ReOMP-rs — record-and-replay for multi-threaded programs
//!
//! Facade crate for the workspace reproducing *"Distributed Order Recording
//! Techniques for Efficient Record-and-Replay of Multi-threaded Programs"*
//! (CLUSTER 2024). It re-exports the public API of every subsystem:
//!
//! * [`reomp_core`] (re-exported as `core`) — the ST/DC/DE order-recording and replay engines;
//! * [`ompr`] — the OpenMP-like threaded runtime whose constructs
//!   (`parallel for`, `critical`, `atomic`, `reduction`, racy cells) carry
//!   the `gate_in`/`gate_out` instrumentation;
//! * [`racedet`] — the happens-before race detector that produces the
//!   instrumentation plan (the TSan step of the paper's toolflow);
//! * [`rmpi`] — the message-passing substrate with ReMPI-style
//!   receive-order record-and-replay for hybrid applications;
//! * [`miniapps`] — AMG/QuickSilver/miniFE/HACC/HPCCG workload kernels used
//!   by the paper's evaluation.
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.

pub use miniapps;
pub use ompr;
pub use racedet;
pub use reomp_core as core;
pub use rmpi;

pub use reomp_core::{
    install_panic_dump, AccessKind, Certificate, Checkpoint, CrossDomainEdge, Diagnostic, DirStore,
    Divergence, DomainPlan, DumpTrigger, EpochHistogram, EpochPolicy, FlightRecorder, FlightSink,
    IoReport, MemStore, Mode, RecordOptions, RecordSink, ReplayError, Scheme, Session,
    SessionConfig, SessionReport, Severity, SiteId, StreamingTraceStore, ThreadCtx, Tier,
    TraceBundle, TraceError, TraceStore, Verifier, VerifyReport,
};

pub use rmpi::{
    MpiCheckpoint, MpiDivergence, MpiMode, MpiSession, MpiSessionConfig, MpiTrace, MpiVerifier,
};
