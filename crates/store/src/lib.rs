//! # shadow-store — the durable shadow store
//!
//! The paper's server keeps its shadow state — cached file versions for
//! delta exchange, job outputs held as future delta bases — purely in
//! memory, so a server restart silently degrades every client back to
//! full transfers. This crate makes that state survive restarts without
//! touching the sans-io cores:
//!
//! * the server state machine *describes* each shadow mutation as a
//!   [`PersistRecord`](shadow_proto::PersistRecord) (emitted through
//!   `ServerAction::Persist`);
//! * the runtime hands records to a [`DurableStore`] — a
//!   [`PersistSink`](shadow_runtime::PersistSink) — which appends them
//!   to a per-domain write-ahead journal;
//! * at the end of each batch, a domain that has taken enough appends
//!   is compacted: the store writes the node's own
//!   `ServerNode::checkpoint` of that domain as its snapshot and empties
//!   the journal;
//! * at startup, [`DurableStore::open`] reads snapshot + journal back
//!   (truncating torn or corrupt tails, skipping records an interrupted
//!   compaction left stale) and [`DurableStore::recovered`] yields the
//!   raw records to feed `ServerNode::restore`.
//!
//! The store never applies a record: the server node is the one store
//! of record, and the only code that turns records into state. The
//! journal is a delta chain that each checkpoint collapses.
//!
//! Journals are **per naming domain** and shard with the same
//! [`shard_for`](shadow_runtime::shard_for) affinity as the sharded
//! runtime: each shard owns its domains' directories outright, so
//! durability adds no cross-thread coordination.

mod segment;
mod store;

pub use store::{DurableStore, RecoverySummary, DEFAULT_COMPACT_EVERY};
