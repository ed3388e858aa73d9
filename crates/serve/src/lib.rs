//! # atk-serve — a multi-session toolkit server
//!
//! The paper's toolkit reached ~3000 campus users because §8's porting
//! layer kept views off the display: a view draws into a `Graphic`, and
//! what sits behind the `Graphic` — an X connection, a `wm` window, a
//! printer — is someone else's business. This crate puts a *wire*
//! behind it: a headless server hosts many concurrent
//! `World`+`InteractionManager` sessions, one per connection, and ships
//! their framebuffers to thin clients as updates — the change against
//! the frame the client already holds, one XOR rect per changed block
//! of rows — over a
//! length-prefixed binary protocol. The views never find out.
//!
//! Sessions come in two flavors: `Hello` opens a private session, and
//! `Attach {doc_id, scene?}` joins a *shared document* (atk-collab's
//! per-document total-order op log) — every attached replica applies
//! the same op sequence, the author included, so all replicas stay
//! byte-identical.
//!
//! Private sessions boot by *forking*: each shard keeps a pre-warmed
//! template world per `(scene, backend)` (`atk_apps::TemplateRegistry`)
//! and deep-forks it on admission — 12–21× cheaper than building the
//! scene cold and byte-identical to doing so (EXPERIMENTS.md E17).
//! Template builds and fork costs count on the server plane
//! (`world.template_builds`, `world.forks`, `world.fork_us`,
//! `world.fork_shared_bytes`), never on the forked session's own
//! collector. `ServerConfig::fork = false` is the cold-boot ablation.
//!
//! There is one dispatch engine: every connection — TCP from the
//! acceptor, or an in-memory pair from the tests, the oracles and
//! self-hosted loadgen ([`Server::connect_mem`]) — enters a worker shard
//! through [`Server::admit`], so the differentials prove byte identity
//! on the path production runs.
//!
//! The pieces:
//!
//! * [`wire`] — frame encode/decode (panic-free on arbitrary bytes)
//! * [`transport`] — TCP framing plus an in-memory pair for tests
//! * [`fault`] — seeded transport fault injection (short reads/writes,
//!   `WouldBlock` storms, mid-frame disconnects) for the chaos tests
//! * [`session`] — one hosted session: every step through the one step
//!   driver, one frame per drained batch, XOR updates
//!   against the frame the client holds (a keyframe only when there is
//!   none, the window resized, or an update would outweigh one, and
//!   packed at most once: one packed-keyframe slot serves the probe and
//!   the template keyframe cache), idle eviction on the session's own
//!   virtual clock
//! * [`server`] — admission control, the stats plane, and the
//!   shared-document registry
//! * [`shard`] — the worker-shard readiness loop and the per-connection
//!   protocol: one thread hosting many sessions (the `World` is
//!   `!Send`; a session is born and dies on its shard's thread), fed
//!   by an mpsc admission queue; a replica's frames, remote ops
//!   included, leave through the same batch path as a private
//!   session's
//! * [`client`] — the client half: framebuffer reconstruction plus
//!   latency/byte accounting
//! * [`oracle`] — the one serve differential: scripted private sessions
//!   (stepping synchronously or pipelined) or shared-document replicas,
//!   on any shard/fault/fork topology, byte-identical to the in-process
//!   reference
//! * [`loadgen`] — N concurrent scripted clients against an in-process
//!   or a remote server (rendezvous, replicated-document fleets,
//!   admission storms) and the report behind EXPERIMENTS.md
//!   E11/E15/E16/E17
//!
//! Two binaries: `served` (the server) and `loadgen` (the fleet).
//!
//! Trace counters: `serve.sessions`, `serve.active_sessions` (gauge),
//! `serve.frames`, `serve.frames_unchanged`, `serve.diff_bytes`,
//! `serve.full_bytes`, `serve.encode.raw`, `serve.encode.rle`,
//! `serve.encoded_bytes`, `serve.backpressure_drops`, `serve.busy_rejects`,
//! `serve.idle_evictions`, `serve.stats_requests`, `serve.collab.docs`,
//! `serve.collab.ops` (plus the `serve.collab.fanout_us` and
//! `serve.collab.replay_lag` histograms),
//! `serve.slo_violations`, the `serve.frame_us` latency histogram, and
//! the per-stage `serve.stage_us.{decode,apply,settle,paint,diff,ship}`
//! (+ `.total`) attribution histograms.
//!
//! The stats plane: each connection reports into its own collector;
//! admission and lifecycle counters stay on the server-plane one, and
//! scheduling counters on each shard's. A `Stats` wire request (or
//! [`Server::merged_snapshot`]) folds the server plane, the shard
//! planes, retired sessions, and live sessions into one server-wide
//! snapshot. An optional SLO watchdog
//! ([`SessionConfig::slo_us`]) dumps any over-budget frame's stage
//! breakdown to the shared slow-frame log — deterministically, when
//! the sessions run on a manual clock
//! ([`ServerConfig::manual_clock`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod loadgen;
pub mod oracle;
pub mod server;
pub mod session;
pub mod shard;
pub mod transport;
pub mod wire;

pub use client::{ClientError, ClientStats, ServeClient};
pub use fault::{FaultPlan, FaultTransport};
pub use loadgen::{run_loadgen, LoadConfig, LoadReport, Profile};
pub use oracle::{divergence, serve_differential, ServedRun, Topology, Traffic};
pub use server::{serve_listener_sharded, Server, ServerConfig};
pub use session::{HostedSession, SessionConfig, SessionEnd};
pub use transport::{FrameTransport, MemTransport, TcpTransport};
pub use wire::{ClientFrame, Encoding, ServerFrame, WireError, XorRect};
