//! Error types for recording, trace handling, and replay.

use crate::history::AccessRecord;
use crate::site::{AccessKind, SiteId};
use std::fmt;
use std::io;

/// Errors raised while encoding, decoding, or persisting traces.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure while reading or writing a record file.
    Io(io::Error),
    /// A record file did not start with the expected magic bytes.
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// Unsupported format version.
    BadVersion(u8),
    /// A field in a header or manifest had an invalid value.
    Corrupt(String),
    /// The store holds no trace bundle to load.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic { found } => {
                write!(f, "not a reomp trace file (magic {found:?})")
            }
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
            TraceError::Empty => write!(f, "trace store is empty"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// A replay run diverged from the recorded run.
///
/// Every recording carries the site and kind of every access, and replay
/// checks them wherever the trace has them, so a replay executing a
/// *different* access than recorded is caught at the gate instead of
/// silently replaying a wrong order — the failure mode the paper
/// attributes to Chimera's timeout-based *weak locks* (§VII).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Thread on which the divergence was observed.
    pub thread: u32,
    /// Gate domain in which the divergence was observed (0 for
    /// single-domain sessions).
    pub domain: u32,
    /// Zero-based index of the access in that thread's gate sequence
    /// (within `domain` for multi-domain sessions).
    pub seq: u64,
    /// Site recorded at this position, if the trace carries sites.
    pub recorded_site: Option<SiteId>,
    /// Site the replaying program actually reached.
    pub actual_site: SiteId,
    /// Kind recorded at this position, if the trace carries kinds.
    pub recorded_kind: Option<AccessKind>,
    /// Kind the replaying program actually executed.
    pub actual_kind: AccessKind,
    /// The last N accesses this domain admitted before the divergence,
    /// newest first, read back from the trace below the replay cursors
    /// (see [`crate::history`]). Empty when the session was configured
    /// with [`ring_capacity`](crate::session::SessionConfig::ring_capacity)
    /// 0.
    pub history: Vec<AccessRecord>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay divergence on thread {} (domain {}) at access #{}: recorded ",
            self.thread, self.domain, self.seq
        )?;
        match (self.recorded_site, self.recorded_kind) {
            (Some(s), Some(k)) => write!(f, "{k} at {s}")?,
            (Some(s), None) => write!(f, "access at {s}")?,
            _ => write!(f, "<unvalidated>")?,
        }
        write!(
            f,
            ", but program executed {} at {}",
            self.actual_kind, self.actual_site
        )?;
        if !self.history.is_empty() {
            write!(
                f,
                "; last {} accesses admitted in domain {} (newest first):",
                self.history.len(),
                self.domain
            )?;
            for rec in &self.history {
                write!(
                    f,
                    "\n  #{:<6} thread {} {} at {}",
                    rec.clock, rec.thread, rec.kind, rec.site
                )?;
            }
        }
        Ok(())
    }
}

/// Errors raised while replaying a recorded run.
#[derive(Debug)]
pub enum ReplayError {
    /// The replayed program executed a different access than recorded.
    Divergence(Divergence),
    /// A thread performed more gated accesses than were recorded for it.
    TraceExhausted {
        /// The thread whose per-thread trace (or the shared ST trace) ran out.
        thread: u32,
        /// Number of records that were available.
        available: u64,
    },
    /// A gate waited longer than the configured watchdog timeout; the
    /// recorded order can no longer be produced (e.g. the program under
    /// replay took a different control flow and a predecessor access never
    /// happens).
    Timeout {
        /// The waiting thread.
        thread: u32,
        /// The site it was trying to enter.
        site: SiteId,
        /// The clock or epoch it was waiting for.
        waiting_for: u64,
        /// The turnstile value observed when giving up.
        observed: u64,
    },
    /// Another thread already failed; this thread was released so the
    /// process can shut down instead of spinning forever.
    Aborted,
    /// The replay session was created from a trace recorded with a
    /// different number of threads.
    ThreadCountMismatch {
        /// Threads in the trace bundle.
        recorded: u32,
        /// Threads registered with the session.
        registered: u32,
    },
    /// Trace data could not be interpreted.
    Trace(TraceError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Divergence(d) => write!(f, "{d}"),
            ReplayError::TraceExhausted { thread, available } => write!(
                f,
                "thread {thread} performed more gated accesses than the {available} recorded"
            ),
            ReplayError::Timeout {
                thread,
                site,
                waiting_for,
                observed,
            } => write!(
                f,
                "replay watchdog timeout: thread {thread} at site {site} waited for turnstile \
                 value {waiting_for} but it is stuck at {observed}"
            ),
            ReplayError::Aborted => write!(f, "replay aborted because another thread failed"),
            ReplayError::ThreadCountMismatch {
                recorded,
                registered,
            } => write!(
                f,
                "trace was recorded with {recorded} threads but {registered} were registered"
            ),
            ReplayError::Trace(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

impl From<Divergence> for ReplayError {
    fn from(d: Divergence) -> Self {
        ReplayError::Divergence(d)
    }
}

/// Errors from [`crate::Session::finish`].
#[derive(Debug)]
pub enum FinishError {
    /// `finish` was called while thread contexts are still alive.
    ThreadsActive(u32),
    /// `finish` was already called on this session.
    AlreadyFinished,
    /// A record run failed to flush into or commit its sink; a store was
    /// left without a loadable (possibly corrupt) bundle.
    Stream(TraceError),
}

impl fmt::Display for FinishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FinishError::ThreadsActive(n) => {
                write!(
                    f,
                    "cannot finish session: {n} thread context(s) still registered"
                )
            }
            FinishError::AlreadyFinished => write!(f, "session already finished"),
            FinishError::Stream(e) => write!(f, "record trace persistence failed: {e}"),
        }
    }
}

impl std::error::Error for FinishError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FinishError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_message_is_actionable() {
        let d = Divergence {
            thread: 3,
            domain: 0,
            seq: 17,
            recorded_site: Some(SiteId(0x10)),
            actual_site: SiteId(0x20),
            recorded_kind: Some(AccessKind::Store),
            actual_kind: AccessKind::Load,
            history: vec![],
        };
        let msg = d.to_string();
        assert!(msg.contains("thread 3"), "{msg}");
        assert!(msg.contains("#17"), "{msg}");
        assert!(msg.contains("store"), "{msg}");
        assert!(msg.contains("load"), "{msg}");
    }

    #[test]
    fn divergence_message_includes_history_context() {
        let d = Divergence {
            thread: 1,
            domain: 2,
            seq: 4,
            recorded_site: Some(SiteId(0x10)),
            actual_site: SiteId(0x20),
            recorded_kind: Some(AccessKind::Store),
            actual_kind: AccessKind::Load,
            history: vec![
                AccessRecord {
                    clock: 9,
                    site: SiteId(0x30),
                    kind: AccessKind::Load,
                    thread: 0,
                },
                AccessRecord {
                    clock: 8,
                    site: SiteId(0x10),
                    kind: AccessKind::Store,
                    thread: 1,
                },
            ],
        };
        let msg = d.to_string();
        assert!(msg.contains("domain 2"), "{msg}");
        assert!(msg.contains("last 2 accesses"), "{msg}");
        assert!(msg.contains("#9"), "{msg}");
        assert!(msg.contains("thread 0 load"), "{msg}");
    }

    #[test]
    fn errors_convert_and_display() {
        let e: ReplayError = TraceError::Empty.into();
        assert!(e.to_string().contains("empty"));
        let e = ReplayError::Timeout {
            thread: 1,
            site: SiteId(7),
            waiting_for: 42,
            observed: 40,
        };
        assert!(e.to_string().contains("42"));
        assert!(e.to_string().contains("40"));
    }
}
