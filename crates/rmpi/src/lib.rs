//! # rmpi — message-passing substrate with ReMPI-style record-and-replay
//!
//! The paper composes ReOMP with **ReMPI** (Sato et al., SC'15) to replay
//! hybrid MPI+OpenMP applications (§VI-C). Neither MPI nor ReMPI exists in
//! this workspace, so this crate provides both halves:
//!
//! * an in-process message-passing runtime — [`World`] spawns one OS
//!   thread per *rank*, each with a tagged [`mailbox`]; point-to-point
//!   sends, wildcard (`ANY_SOURCE`) receives, and collectives built on
//!   p2p. Wildcard receives and arrival-order reductions are genuinely
//!   non-deterministic, exactly the message races ReMPI exists to tame;
//! * a receive-order recorder — [`MpiSession`] logs, per **(rank ×
//!   domain)** stream (classic ReMPI keeps one per-process record file;
//!   [`MpiSessionConfig::plan`] shards it across receive-site domains
//!   the way the thread gate's domains shard the order-recording gate),
//!   which source each wildcard receive matched, and enforces the same
//!   matching during replay. Trace encoding includes a delta/RLE
//!   compressor in the spirit of ReMPI's clock-delta compression.
//!
//! For `MPI_THREAD_MULTIPLE` hybrid replay, receive-side calls accept an
//! optional [`reomp_core::ThreadCtx`] and wrap themselves in a
//! `gate(MpiOp)` — the §VI-C recipe of instrumenting `gate_in`/`gate_out`
//! around receive/wait/test/probe.
//!
//! ```
//! use rmpi::{World, MpiSession, ANY_SOURCE};
//! use std::sync::Arc;
//!
//! // Record which source a wildcard receive matches.
//! let session = Arc::new(MpiSession::record(3));
//! let outputs = World::run(3, session.clone(), |rank| {
//!     if rank.rank() == 0 {
//!         let a = rank.recv(ANY_SOURCE, 7, None).unwrap();
//!         let b = rank.recv(ANY_SOURCE, 7, None).unwrap();
//!         vec![a.src, b.src]
//!     } else {
//!         rank.send(0, 7, &[rank.rank() as u8]).unwrap();
//!         vec![]
//!     }
//! });
//! let first_order = outputs[0].clone();
//! let trace = session.finish();
//!
//! // Replay matches the same sources in the same order.
//! let session = Arc::new(MpiSession::replay(trace));
//! let outputs = World::run(3, session, |rank| {
//!     if rank.rank() == 0 {
//!         let a = rank.recv(ANY_SOURCE, 7, None).unwrap();
//!         let b = rank.recv(ANY_SOURCE, 7, None).unwrap();
//!         vec![a.src, b.src]
//!     } else {
//!         rank.send(0, 7, &[rank.rank() as u8]).unwrap();
//!         vec![]
//!     }
//! });
//! assert_eq!(outputs[0], first_order);
//! ```

#![warn(missing_docs)]

pub mod compress;
pub mod mailbox;
pub mod message;
pub mod session;
pub mod verify;
pub mod world;

pub use mailbox::Mailbox;
pub use message::{Envelope, MpiError, ANY_SOURCE, ANY_TAG};
pub use session::{
    recv_site, waitany_site, MpiCheckpoint, MpiDivergence, MpiMode, MpiSession, MpiSessionConfig,
    MpiTrace, RecvEvent,
};
pub use verify::{verify_hybrid, MpiVerifier};
pub use world::{RankCtx, Request, World};
