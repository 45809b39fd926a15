//! # etsc-net
//!
//! The network edge of the streaming inference stack: the sessions
//! `etsc-serve` replays in-process, served over a TCP socket through
//! the same [`etsc_serve::SessionTable`], with zero dependencies
//! beyond `std::net`.
//!
//! * [`proto`] — the versioned, length-prefixed, CRC-protected binary
//!   wire protocol (Hello/OpenSession/Observe/Decision/CloseSession/
//!   Shutdown/Error) with hard frame-size and queue-depth limits;
//!   rev 1 adds client deadlines and priorities on open/observe and
//!   retry classification with `retry_after_ms` hints on errors; rev 2
//!   adds the pipelined batch frames (`ObserveBatch`/`DecisionBatch`)
//!   — the server negotiates down to a rev-0/rev-1 client's revision,
//!   while this crate's client and router need a rev-2 server and
//!   refuse an older one at `Hello`;
//! * [`poll`] — a hand-rolled epoll readiness poller: level-triggered,
//!   a self-pipe waker for cross-thread nudges, and reserved tokens
//!   for the waker and listener;
//! * [`server`] — a readiness-driven TCP server: a fixed pool of
//!   event-loop threads, each owning a [`poll::Poller`] over its share
//!   of nonblocking connections (dealt round-robin at accept), reads
//!   drained to `EWOULDBLOCK`, vectored writes from pooled buffers,
//!   bridging into an [`etsc_serve::SessionTable`] (deadlines that force
//!   a decision on the observed prefix, panic containment) with
//!   lossless backpressure on the outbound queue (a full queue pauses
//!   the connection's reads), static connection and session caps that refuse
//!   at the edge (the session cap also bounds the finished sessions a
//!   connection remembers), expired-deadline discard of queued dead work, seeded
//!   server-side fault injection, `etsc-obs` instrumentation, and
//!   graceful drain — in-flight sessions answered, new connections
//!   refused;
//! * [`client`] — a blocking client library multiplexing many sessions
//!   over one connection, with reconnect-and-resume of open sessions,
//!   the newest [`ANSWER_MEMORY`] answers kept readable,
//!   budgeted jittered retries honouring the server's `retry_after_ms`
//!   hints, and the client-side fault hooks (torn frames, slow-loris
//!   writes, mid-session disconnects) the chaos suite drives;
//! * [`loadgen`] — the load-generator core shared by the `loadgen`
//!   bench binary and the chaos tests: replays dataset streams over N
//!   connections at a target rate — batch replay or a sliding
//!   in-flight window for overload ramps — and reports achieved
//!   decisions/sec, shed/expired classification, and end-to-end
//!   p50/p99 latency;
//! * [`router`] — a session-affine router fronting N shard servers:
//!   consistent-hash placement with virtual nodes, health-probed shard
//!   pools with per-shard circuit breakers, planned-drain detection,
//!   blue/green generation swaps, and session migration off dead
//!   shards via handoff + resume + buffered-prefix replay;
//! * [`fleet`] — the single-process fleet harness: N shards behind a
//!   router, driven by the load generator, with the seeded shard-level
//!   faults (kill, blackhole, slow shard) the chaos suite asserts
//!   against;
//! * [`options`] — the embedding API: one validated builder per role
//!   ([`ServerBuilder`] / [`ClientBuilder`] / [`RouterBuilder`]),
//!   holding only the knobs something sets, and [`Endpoint`]
//!   (`serve`/`route`/`connect`), the only way to start a server,
//!   router or client.
//!
//! The paper's Figure 13 asks whether an algorithm's testing time per
//! decision keeps up with the stream's observation frequency; this
//! crate asks the production version of the same question — whether it
//! keeps up *measured over a real socket*, framing, checksums, queues
//! and all.

pub mod client;
pub mod fleet;
pub mod loadgen;
pub mod options;
pub mod poll;
pub mod proto;
mod record;
pub mod router;
pub mod server;

pub use client::{Client, Decision, NetError, ANSWER_MEMORY};
pub use fleet::{run_fleet, FleetOptions, FleetReport, ShardReport};
pub use loadgen::{run_loadgen, LoadReport, LoadgenOptions};
pub use options::{ClientBuilder, ConfigError, Endpoint, RouterBuilder, ServerBuilder};
pub use poll::{Event, Poller, WAKE_TOKEN};
pub use proto::{
    encode_frame, encode_frame_into, write_frame, BatchDecision, BufferPool, DecisionKind,
    ErrorCode, Frame, FrameDecoder, ModelInfo, ProtoError, RetryClass, BATCH_MINOR, HEADER_BYTES,
    MAX_FRAME_BYTES, MAX_PENDING_FRAMES, PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, PROTO_MINOR,
    PROTO_VERSION,
};
pub use router::{Router, RouterStats, ShardSnapshot};
pub use server::{NetServer, ServerStats};
