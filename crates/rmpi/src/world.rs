//! Ranks, point-to-point messaging, and collectives.

use crate::mailbox::Mailbox;
use crate::message::{f64s_to_bytes, u64s_to_bytes, Envelope, MpiError, ANY_SOURCE};
use crate::session::{recv_site, waitany_site, MpiSession};
use reomp_core::{AccessKind, ThreadCtx};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Reserved tag base for collectives (user tags must stay below this).
pub const COLLECTIVE_TAG_BASE: u32 = 1 << 30;
const TAG_BCAST: u32 = COLLECTIVE_TAG_BASE;
const TAG_REDUCE: u32 = COLLECTIVE_TAG_BASE + 1;
const TAG_GATHER: u32 = COLLECTIVE_TAG_BASE + 2;
const TAG_HALO: u32 = COLLECTIVE_TAG_BASE + 3;

/// The communicator: spawns one OS thread per rank and runs `f` on each.
#[derive(Debug)]
pub struct World;

impl World {
    /// Run an `nranks`-rank program. Returns each rank's output, indexed by
    /// rank. Panics in a rank propagate after all ranks are joined.
    pub fn run<R, F>(nranks: u32, session: Arc<MpiSession>, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        assert!(nranks > 0, "need at least one rank");
        assert_eq!(
            session.nranks(),
            nranks,
            "session rank count must match the world"
        );
        let mailboxes: Arc<Vec<Mailbox>> = Arc::new((0..nranks).map(|_| Mailbox::new()).collect());
        let barrier = Arc::new(Barrier::new(nranks as usize));

        let mut results: Vec<Option<R>> = (0..nranks).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..nranks)
                .map(|rank| {
                    let mailboxes = Arc::clone(&mailboxes);
                    let barrier = Arc::clone(&barrier);
                    let session = Arc::clone(&session);
                    let f = &f;
                    s.spawn(move || {
                        let mut ctx = RankCtx {
                            rank,
                            nranks,
                            mailboxes,
                            barrier,
                            session,
                            recv_timeout: Duration::from_secs(30),
                        };
                        f(&mut ctx)
                    })
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(r) => results[rank] = Some(r),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("rank finished"))
            .collect()
    }
}

/// A pending non-blocking operation (`MPI_Request`).
#[derive(Debug)]
pub struct Request {
    kind: ReqKind,
    /// Construction-time `(peer, tag)` key: stable across record and
    /// replay regardless of completion state, so `waitany` can derive a
    /// deterministic site (and thus a receive-order domain) from the
    /// request set.
    key: (u32, u32),
}

#[derive(Debug)]
enum ReqKind {
    /// Buffered send: complete on creation.
    SendDone,
    /// Pending receive (concrete source).
    Recv {
        src: u32,
        tag: u32,
        done: Option<Envelope>,
    },
    /// Completed.
    Done,
}

impl Request {
    /// Whether the request has completed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.kind, ReqKind::Done)
    }
}

/// One rank's handle: point-to-point operations and collectives.
pub struct RankCtx {
    rank: u32,
    nranks: u32,
    mailboxes: Arc<Vec<Mailbox>>,
    barrier: Arc<Barrier>,
    session: Arc<MpiSession>,
    recv_timeout: Duration,
}

impl RankCtx {
    /// This rank's ID.
    #[must_use]
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// World size.
    #[must_use]
    pub fn nranks(&self) -> u32 {
        self.nranks
    }

    /// Change the receive timeout (default 30 s).
    pub fn set_recv_timeout(&mut self, t: Duration) {
        self.recv_timeout = t;
    }

    /// Send `payload` to `dst` with `tag` (`MPI_Send`; buffered,
    /// non-blocking in this in-process world).
    pub fn send(&self, dst: u32, tag: u32, payload: &[u8]) -> Result<(), MpiError> {
        let mb = self
            .mailboxes
            .get(dst as usize)
            .ok_or(MpiError::InvalidRank(dst))?;
        mb.push(Envelope {
            src: self.rank,
            tag,
            payload: payload.to_vec(),
        });
        Ok(())
    }

    /// Send a slice of `f64`s.
    pub fn send_f64s(&self, dst: u32, tag: u32, values: &[f64]) -> Result<(), MpiError> {
        self.send(dst, tag, &f64s_to_bytes(values))
    }

    /// Send a slice of `u64`s.
    pub fn send_u64s(&self, dst: u32, tag: u32, values: &[u64]) -> Result<(), MpiError> {
        self.send(dst, tag, &u64s_to_bytes(values))
    }

    /// Blocking receive (`MPI_Recv`). `src`/`tag` may be [`ANY_SOURCE`] /
    /// [`crate::ANY_TAG`]. Wildcard matches are recorded in record mode and
    /// enforced in replay mode — the ReMPI mechanism.
    ///
    /// The optional `gate` is the hybrid `MPI_THREAD_MULTIPLE` hook of
    /// §VI-C: when several runtime threads of one rank receive
    /// concurrently, passing each thread's [`ThreadCtx`] records which
    /// thread got which message.
    ///
    /// Compatibility note: the gate site is the per-`(rank, src, tag)`
    /// [`recv_site`] hash (so receives can spread across gate domains);
    /// before the `(rank × domain)` sharding it was a per-rank constant.
    /// rmpi trace *directories* from before the change load and replay
    /// unchanged, but a **thread** `TraceBundle` whose gated receives
    /// were recorded with the old constant embeds the old site hash and
    /// will report a site divergence here — re-record hybrid thread
    /// traces with the current build.
    pub fn recv(&self, src: u32, tag: u32, gate: Option<&ThreadCtx>) -> Result<Envelope, MpiError> {
        match gate {
            Some(ctx) => {
                // The gate site is the same (requested src, tag) hash the
                // receive-order domain is derived from, so a thread
                // session with a matching plan keeps every receive of one
                // MPI domain in one thread-gate domain (see
                // [`MpiSession::matching_thread_plan`]).
                let site = recv_site(self.rank, src, tag);
                ctx.try_gate(site, AccessKind::MpiOp, || self.recv_ungated(src, tag))
                    .unwrap_or_else(|e| panic!("hybrid replay failed: {e}"))
            }
            None => self.recv_ungated(src, tag),
        }
    }

    fn recv_ungated(&self, src: u32, tag: u32) -> Result<Envelope, MpiError> {
        let mb = &self.mailboxes[self.rank as usize];
        if src == ANY_SOURCE {
            // The stream is chosen by the *requested* (src, tag) — known
            // identically in record and replay before any match is made.
            let dom = self.session.domain_of(recv_site(self.rank, src, tag));
            // Replay: force the recorded match.
            if let Some(rec) = self.session.next_recv(self.rank, dom)? {
                return mb.recv(self.rank, rec.src, rec.tag, self.recv_timeout);
            }
            let env = mb.recv(self.rank, src, tag, self.recv_timeout)?;
            self.session.log_recv(self.rank, dom, env.src, env.tag);
            return Ok(env);
        }
        mb.recv(self.rank, src, tag, self.recv_timeout)
    }

    /// Non-blocking probe (`MPI_Iprobe`): whether a matching message is
    /// queued, and its `(src, tag)`.
    #[must_use]
    pub fn iprobe(&self, src: u32, tag: u32) -> Option<(u32, u32)> {
        self.mailboxes[self.rank as usize].probe(src, tag)
    }

    // ------------------------------------------------------------------
    // Non-blocking operations (`MPI_Isend`/`MPI_Irecv`/`MPI_Wait[any]`)
    // ------------------------------------------------------------------

    /// Non-blocking send. This in-process world buffers sends, so the
    /// request completes immediately; it exists so ported code keeps its
    /// request bookkeeping.
    pub fn isend(&self, dst: u32, tag: u32, payload: &[u8]) -> Result<Request, MpiError> {
        self.send(dst, tag, payload)?;
        Ok(Request {
            kind: ReqKind::SendDone,
            key: (dst, tag),
        })
    }

    /// Non-blocking receive from a concrete source (wildcard receives use
    /// the blocking [`RankCtx::recv`], where the ReMPI recorder attaches).
    pub fn irecv(&self, src: u32, tag: u32) -> Result<Request, MpiError> {
        if src == ANY_SOURCE {
            return Err(MpiError::InvalidRank(src));
        }
        Ok(Request {
            kind: ReqKind::Recv {
                src,
                tag,
                done: None,
            },
            key: (src, tag),
        })
    }

    /// Complete one request (`MPI_Wait`): blocks for receives.
    pub fn wait(&self, req: &mut Request) -> Result<Option<Envelope>, MpiError> {
        match &mut req.kind {
            ReqKind::SendDone => {
                req.kind = ReqKind::Done;
                Ok(None)
            }
            ReqKind::Done => Ok(None),
            ReqKind::Recv { src, tag, done } => {
                let env = match done.take() {
                    Some(env) => env,
                    None => self.mailboxes[self.rank as usize].recv(
                        self.rank,
                        *src,
                        *tag,
                        self.recv_timeout,
                    )?,
                };
                req.kind = ReqKind::Done;
                Ok(Some(env))
            }
        }
    }

    /// Test one request without blocking (`MPI_Test`).
    pub fn test(&self, req: &mut Request) -> Option<Envelope> {
        match &mut req.kind {
            ReqKind::SendDone => {
                req.kind = ReqKind::Done;
                None
            }
            ReqKind::Done => None,
            ReqKind::Recv { src, tag, done } => {
                if done.is_none() {
                    *done = self.mailboxes[self.rank as usize].try_recv(*src, *tag);
                }
                let env = done.take();
                if env.is_some() {
                    req.kind = ReqKind::Done;
                }
                env
            }
        }
    }

    /// Complete *some* pending request (`MPI_Waitany`) and return its
    /// index plus the received envelope. **Which** request completes first
    /// is scheduling- and arrival-dependent — the non-determinism the
    /// paper's §VI-C instruments — so the chosen index is recorded in
    /// record mode and enforced in replay mode.
    pub fn waitany(&self, reqs: &mut [Request]) -> Result<(usize, Option<Envelope>), MpiError> {
        if reqs.is_empty() {
            return Err(MpiError::InvalidRank(u32::MAX));
        }
        // The completion-order stream is chosen by the request set's
        // construction-time keys — identical in record and replay.
        let site = waitany_site(self.rank, reqs.iter().map(|r| r.key));
        let dom = self.session.domain_of(site);
        // Replay: the recorded index must complete next.
        if let Some(idx) = self.session.next_waitany(self.rank, dom)? {
            let idx = idx as usize;
            let env = self.wait(&mut reqs[idx])?;
            return Ok((idx, env));
        }
        // Record/passthrough: poll until any request completes.
        let deadline = std::time::Instant::now() + self.recv_timeout;
        loop {
            for (i, req) in reqs.iter_mut().enumerate() {
                if matches!(req.kind, ReqKind::Done) {
                    continue;
                }
                if matches!(req.kind, ReqKind::SendDone) {
                    req.kind = ReqKind::Done;
                    self.session.log_waitany(self.rank, dom, i as u32);
                    return Ok((i, None));
                }
                if let Some(env) = self.test(req) {
                    self.session.log_waitany(self.rank, dom, i as u32);
                    return Ok((i, Some(env)));
                }
            }
            if std::time::Instant::now() > deadline {
                return Err(MpiError::RecvTimeout {
                    rank: self.rank,
                    src: ANY_SOURCE,
                    tag: 0,
                });
            }
            std::thread::yield_now();
        }
    }

    // ------------------------------------------------------------------
    // Collectives (built on p2p, like small-cluster MPI implementations)
    // ------------------------------------------------------------------

    /// All-ranks barrier.
    pub fn barrier(&self) {
        self.barrier_with(None);
    }

    /// All-ranks barrier that also notes a cross-domain synchronization
    /// point in the calling thread's **thread** session
    /// ([`ThreadCtx::sync_point`]): in a multi-domain hybrid record run
    /// the rank barrier orders every gate domain's pre-barrier accesses
    /// before this thread's next gated access, and the stamped
    /// `CrossDomainEdge` makes replay restore that order — the same
    /// mechanism (and the same acyclicity argument) as the thread gate's
    /// barrier shim. A no-op wrapper around [`RankCtx::barrier`] for
    /// single-domain sessions and `None`.
    pub fn barrier_with(&self, gate: Option<&ThreadCtx>) {
        self.barrier.wait();
        if let Some(ctx) = gate {
            ctx.sync_point();
        }
    }

    /// Broadcast `data` from `root` to every rank (overwrites `data` on
    /// non-roots).
    pub fn bcast_f64s(&self, root: u32, data: &mut Vec<f64>) -> Result<(), MpiError> {
        if self.rank == root {
            for dst in 0..self.nranks {
                if dst != root {
                    self.send_f64s(dst, TAG_BCAST, data)?;
                }
            }
        } else {
            *data = self.recv(root, TAG_BCAST, None)?.as_f64s();
        }
        Ok(())
    }

    /// Element-wise sum-reduce to `root`. The root combines contributions
    /// in **arrival order** (wildcard receives!), so floating-point results
    /// are run-to-run non-deterministic unless recorded — the §II-A
    /// numerical-reproducibility scenario.
    pub fn reduce_sum_f64(&self, root: u32, local: &[f64]) -> Result<Option<Vec<f64>>, MpiError> {
        if self.rank != root {
            self.send_f64s(root, TAG_REDUCE, local)?;
            return Ok(None);
        }
        let mut acc = local.to_vec();
        for _ in 0..self.nranks - 1 {
            let contribution = self.recv(ANY_SOURCE, TAG_REDUCE, None)?.as_f64s();
            for (a, c) in acc.iter_mut().zip(&contribution) {
                *a += c;
            }
        }
        Ok(Some(acc))
    }

    /// Sum-allreduce: reduce to rank 0, then broadcast.
    pub fn allreduce_sum_f64(&self, local: &[f64]) -> Result<Vec<f64>, MpiError> {
        let reduced = self.reduce_sum_f64(0, local)?;
        let mut data = reduced.unwrap_or_else(|| vec![0.0; local.len()]);
        self.bcast_f64s(0, &mut data)?;
        Ok(data)
    }

    /// Gather one `u64` per rank to `root`, ordered by rank (deterministic
    /// fixed-source receives).
    pub fn gather_u64(&self, root: u32, value: u64) -> Result<Option<Vec<u64>>, MpiError> {
        if self.rank != root {
            self.send_u64s(root, TAG_GATHER, &[value])?;
            return Ok(None);
        }
        let mut out = Vec::with_capacity(self.nranks as usize);
        for src in 0..self.nranks {
            if src == root {
                out.push(value);
            } else {
                out.push(self.recv(src, TAG_GATHER, None)?.as_u64s()[0]);
            }
        }
        Ok(Some(out))
    }

    /// Exchange boundary slices with ring neighbours (the halo-exchange
    /// pattern of stencil codes). Returns `(from_left, from_right)`.
    pub fn halo_exchange_f64s(
        &self,
        to_left: &[f64],
        to_right: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>), MpiError> {
        let left = (self.rank + self.nranks - 1) % self.nranks;
        let right = (self.rank + 1) % self.nranks;
        self.send_f64s(left, TAG_HALO, to_left)?;
        self.send_f64s(right, TAG_HALO + 1, to_right)?;
        let from_right = self.recv(right, TAG_HALO, None)?.as_f64s();
        let from_left = self.recv(left, TAG_HALO + 1, None)?.as_f64s();
        Ok((from_left, from_right))
    }
}

impl std::fmt::Debug for RankCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankCtx")
            .field("rank", &self.rank)
            .field("nranks", &self.nranks)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn passthrough(n: u32) -> Arc<MpiSession> {
        Arc::new(MpiSession::passthrough(n))
    }

    #[test]
    fn ping_pong() {
        let out = World::run(2, passthrough(2), |rank| {
            if rank.rank() == 0 {
                rank.send(1, 1, b"ping").unwrap();
                rank.recv(1, 2, None).unwrap().payload
            } else {
                let m = rank.recv(0, 1, None).unwrap();
                assert_eq!(m.payload, b"ping");
                rank.send(0, 2, b"pong").unwrap();
                b"pong".to_vec()
            }
        });
        assert_eq!(out[0], b"pong");
    }

    #[test]
    fn barrier_synchronizes_ranks() {
        let flag = AtomicU64::new(0);
        World::run(4, passthrough(4), |rank| {
            flag.fetch_add(1, Ordering::SeqCst);
            rank.barrier();
            assert_eq!(flag.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn bcast_distributes_roots_data() {
        let out = World::run(3, passthrough(3), |rank| {
            let mut data = if rank.rank() == 1 {
                vec![1.0, 2.0, 3.0]
            } else {
                vec![]
            };
            rank.bcast_f64s(1, &mut data).unwrap();
            data
        });
        for d in out {
            assert_eq!(d, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn reduce_sums_across_ranks() {
        let out = World::run(4, passthrough(4), |rank| {
            let local = vec![f64::from(rank.rank()); 2];
            rank.reduce_sum_f64(0, &local).unwrap()
        });
        assert_eq!(out[0], Some(vec![6.0, 6.0]));
        assert_eq!(out[1], None);
    }

    #[test]
    fn allreduce_gives_everyone_the_sum() {
        let out = World::run(3, passthrough(3), |rank| {
            rank.allreduce_sum_f64(&[1.0, f64::from(rank.rank())])
                .unwrap()
        });
        for d in out {
            assert_eq!(d, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn gather_orders_by_rank() {
        let out = World::run(4, passthrough(4), |rank| {
            rank.gather_u64(2, u64::from(rank.rank()) * 10).unwrap()
        });
        assert_eq!(out[2], Some(vec![0, 10, 20, 30]));
    }

    #[test]
    fn halo_exchange_ring() {
        let out = World::run(3, passthrough(3), |rank| {
            let me = f64::from(rank.rank());
            rank.halo_exchange_f64s(&[me], &[me + 100.0]).unwrap()
        });
        // from_left is left neighbour's to_right; from_right is right's to_left.
        assert_eq!(out[0], (vec![102.0], vec![1.0]));
        assert_eq!(out[1], (vec![100.0], vec![2.0]));
        assert_eq!(out[2], (vec![101.0], vec![0.0]));
    }

    #[test]
    fn wildcard_recv_is_recorded_and_replayed() {
        let run = |session: Arc<MpiSession>| {
            World::run(4, session, |rank| {
                if rank.rank() == 0 {
                    (0..3)
                        .map(|_| rank.recv(ANY_SOURCE, 5, None).unwrap().src)
                        .collect::<Vec<_>>()
                } else {
                    // Stagger sends a little to vary arrival order.
                    std::thread::sleep(Duration::from_micros(u64::from(rank.rank()) * 50));
                    rank.send(0, 5, &[rank.rank() as u8]).unwrap();
                    vec![]
                }
            })
        };
        let session = Arc::new(MpiSession::record(4));
        let recorded = run(Arc::clone(&session))[0].clone();
        let trace = session.finish();
        assert_eq!(trace.rank_events(0), 3);

        let session = Arc::new(MpiSession::replay(trace));
        let replayed = run(Arc::clone(&session))[0].clone();
        assert_eq!(replayed, recorded);
        assert_eq!(session.fully_consumed(), Some(true));
    }

    #[test]
    fn reduce_replays_bitwise_identical_fp_sum() {
        // Order-sensitive values: only an order-faithful replay reproduces
        // the root's floating-point bits.
        let run = |session: Arc<MpiSession>| {
            World::run(3, session, |rank| {
                let local = match rank.rank() {
                    0 => vec![1e16],
                    1 => vec![1.0],
                    _ => vec![-1e16],
                };
                rank.reduce_sum_f64(0, &local)
                    .unwrap()
                    .map(|v| v[0].to_bits())
            })
        };
        let session = Arc::new(MpiSession::record(3));
        let recorded = run(Arc::clone(&session))[0];
        let trace = session.finish();

        let session = Arc::new(MpiSession::replay(trace));
        let replayed = run(Arc::clone(&session))[0];
        assert_eq!(recorded, replayed);
    }

    #[test]
    fn replay_exhaustion_is_an_error() {
        let trace = crate::session::MpiTrace::single(vec![vec![]], vec![vec![]]);
        let session = Arc::new(MpiSession::replay(trace));
        World::run(1, session, |rank| {
            // One wildcard recv but the trace is empty.
            match rank.recv(ANY_SOURCE, 1, None) {
                Err(MpiError::ReplayExhausted {
                    rank: 0, domain: 0, ..
                }) => {}
                other => panic!("expected exhaustion, got {other:?}"),
            }
        });
    }

    #[test]
    fn multi_domain_session_shards_recv_streams_by_tag() {
        // Two tags whose receive sites land in different domains: the
        // recorded streams stay apart, replay re-routes identically, and
        // both streams are fully consumed.
        let cfg = crate::session::MpiSessionConfig::with_domains(4);
        let s0 = recv_site(0, ANY_SOURCE, 5);
        let s1 = recv_site(0, ANY_SOURCE, 6);
        let run = |session: Arc<MpiSession>| {
            World::run(3, session, |rank| {
                if rank.rank() == 0 {
                    let a = rank.recv(ANY_SOURCE, 5, None).unwrap().src;
                    let b = rank.recv(ANY_SOURCE, 6, None).unwrap().src;
                    let c = rank.recv(ANY_SOURCE, 5, None).unwrap().src;
                    vec![a, b, c]
                } else {
                    std::thread::sleep(Duration::from_micros(u64::from(rank.rank()) * 40));
                    rank.send(0, 5, &[1]).unwrap();
                    rank.send(0, 6, &[2]).unwrap();
                    vec![]
                }
            })
        };
        let session = Arc::new(MpiSession::record_with(3, cfg));
        let (da, db) = (session.domain_of(s0), session.domain_of(s1));
        let recorded = run(Arc::clone(&session))[0].clone();
        let trace = session.finish();
        assert_eq!(trace.domains, 4);
        assert_eq!(trace.recv_stream(0, da).len(), 2, "tag-5 stream");
        if db != da {
            assert_eq!(trace.recv_stream(0, db).len(), 1, "tag-6 stream");
        }
        assert_eq!(trace.rank_events(0), 3);
        // (One tag-6 message stays in the mailbox — mailboxes are
        // per-World, so the replay run starts fresh.)
        let session = Arc::new(MpiSession::replay(trace));
        let replayed = run(Arc::clone(&session))[0].clone();
        assert_eq!(replayed, recorded);
        assert_eq!(session.fully_consumed(), Some(true));
        assert!(session.divergences().is_empty());
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use super::*;
    use crate::session::MpiSession;

    fn passthrough(n: u32) -> Arc<MpiSession> {
        Arc::new(MpiSession::passthrough(n))
    }

    #[test]
    fn isend_completes_immediately_and_wait_returns_nothing() {
        World::run(2, passthrough(2), |rank| {
            if rank.rank() == 0 {
                let mut req = rank.isend(1, 1, b"x").unwrap();
                assert!(rank.wait(&mut req).unwrap().is_none());
                assert!(req.is_done());
            } else {
                assert_eq!(rank.recv(0, 1, None).unwrap().payload, b"x");
            }
        });
    }

    #[test]
    fn irecv_wait_receives() {
        World::run(2, passthrough(2), |rank| {
            if rank.rank() == 0 {
                let mut req = rank.irecv(1, 9).unwrap();
                let env = rank.wait(&mut req).unwrap().unwrap();
                assert_eq!(env.payload, b"hello");
                // Waiting again on a done request is a no-op.
                assert!(rank.wait(&mut req).unwrap().is_none());
            } else {
                rank.send(0, 9, b"hello").unwrap();
            }
        });
    }

    #[test]
    fn irecv_rejects_wildcard_source() {
        World::run(1, passthrough(1), |rank| {
            assert!(rank.irecv(ANY_SOURCE, 0).is_err());
        });
    }

    #[test]
    fn test_is_nonblocking() {
        World::run(2, passthrough(2), |rank| {
            if rank.rank() == 0 {
                let mut req = rank.irecv(1, 2).unwrap();
                // Nothing sent yet: test must not block or complete.
                let mut polls = 0;
                loop {
                    match rank.test(&mut req) {
                        Some(env) => {
                            assert_eq!(env.payload, vec![7]);
                            break;
                        }
                        None => {
                            polls += 1;
                            assert!(!req.is_done());
                            if polls == 3 {
                                // Tell the sender we are ready.
                                rank.send(1, 1, b"go").unwrap();
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            } else {
                let _ = rank.recv(0, 1, None).unwrap();
                rank.send(0, 2, &[7]).unwrap();
            }
        });
    }

    #[test]
    fn waitany_completion_order_is_recorded_and_replayed() {
        // Rank 0 posts two receives from ranks 1 and 2 and drains them with
        // waitany; the completion order depends on arrival and is replayed.
        let run = |session: Arc<MpiSession>| {
            World::run(3, session, |rank| {
                if rank.rank() == 0 {
                    let mut reqs = vec![rank.irecv(1, 4).unwrap(), rank.irecv(2, 4).unwrap()];
                    let (first, env1) = rank.waitany(&mut reqs).unwrap();
                    let (second, env2) = rank.waitany(&mut reqs).unwrap();
                    assert_ne!(first, second);
                    vec![
                        (first as u32, env1.unwrap().src),
                        (second as u32, env2.unwrap().src),
                    ]
                } else {
                    std::thread::sleep(Duration::from_micros(u64::from(rank.rank()) * 37));
                    rank.send(0, 4, &[rank.rank() as u8]).unwrap();
                    vec![]
                }
            })
        };
        let session = Arc::new(MpiSession::record(3));
        let recorded = run(Arc::clone(&session))[0].clone();
        let trace = session.finish();
        assert_eq!(trace.total_waitany(), 2);

        for _ in 0..2 {
            let session = Arc::new(MpiSession::replay(trace.clone()));
            let replayed = run(session)[0].clone();
            assert_eq!(replayed, recorded);
        }
    }

    #[test]
    fn waitany_on_empty_set_errors() {
        World::run(1, passthrough(1), |rank| {
            let mut reqs: Vec<Request> = vec![];
            assert!(rank.waitany(&mut reqs).is_err());
        });
    }
}
