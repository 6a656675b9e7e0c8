//! # cobra-serve — the concurrent query service
//!
//! The paper presents Cobra through an interactive query interface; the
//! ROADMAP's north star is that interface serving heavy traffic. This
//! crate is the serving layer over an in-process [`Vdbms`]: a TCP
//! service speaking a length-prefixed JSON protocol ([`protocol`]),
//! with all socket I/O owned by a single epoll-based readiness
//! [`reactor`] — nonblocking accept/read/write state machines, an
//! incremental frame decoder, per-connection write buffers with
//! backpressure, and idle timeouts on a timer wheel, so a connection
//! costs a few kilobytes of bookkeeping rather than two OS threads.
//! CPU work still runs on a bounded worker pool with admission control
//! ([`scheduler`]), translating per-request deadlines into kernel
//! [`ExecBudget`]s, cancelling work whose client disconnected, and
//! draining in-flight queries on shutdown ([`server`]).
//!
//! The same crate ships the blocking [`client`] library (used by the
//! `cobra-cli` binary and the integration tests), the closed-loop
//! [`load`] generator behind `experiments serve`, and the sharding
//! layer: a seeded consistent-hash [`ring`] assigning videos to worker
//! processes and a scatter-gather [`router`] that speaks the same wire
//! protocol on both sides (`cobra-router` binary).
//!
//! ```no_run
//! use std::sync::Arc;
//! use cobra_serve::server::{start, ServerConfig};
//!
//! let vdbms = Arc::new(f1_cobra::Vdbms::new());
//! let handle = start(vdbms, ServerConfig::default()).unwrap();
//! let mut client = cobra_serve::client::Client::connect(handle.addr()).unwrap();
//! client.ping().unwrap();
//! let reply = client.query("german", "RETRIEVE HIGHLIGHTS");
//! handle.shutdown();
//! # let _ = reply;
//! ```
//!
//! [`Vdbms`]: f1_cobra::Vdbms
//! [`ExecBudget`]: f1_monet::ExecBudget

pub mod client;
pub mod load;
pub mod protocol;
pub mod reactor;
pub mod ring;
pub mod router;
pub mod scheduler;
pub mod server;
pub mod spawn;
pub mod stream;

pub use client::{Client, ClientError, PushFrame, QueryReply, RequestOpts};
pub use protocol::{ErrorKind, FrameDecoder};
pub use reactor::raise_nofile_limit;
pub use ring::{Ring, DEFAULT_SEED};
pub use router::{RouterConfig, RouterHandle};
pub use scheduler::{SubmitError, WorkerPool};
pub use server::{start, ServerConfig, ServerHandle};
pub use spawn::{find_worker_binary, spawn_worker, WorkerProcess};
pub use stream::{Hub, Source, DEFAULT_PUSH_QUEUE_CAP};
