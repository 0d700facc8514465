//! The unified deployment builder.
//!
//! [`Deployment`] is the one way to stand up a server: a fluent builder
//! over the transport (in-process pipes or TCP), the shard count, and
//! durability as an orthogonal axis:
//!
//! ```no_run
//! use shadow::{Deployment, ServerConfig};
//!
//! # fn main() -> Result<(), shadow::DeployError> {
//! // In-process pipes, one server, diskless:
//! let system = Deployment::new(ServerConfig::new("superc")).pipes()?;
//!
//! // Four shards over TCP, journaling to disk:
//! let daemon = Deployment::new(ServerConfig::new("superc"))
//!     .shards(4)
//!     .durable("/var/lib/shadowd")
//!     .tcp("0.0.0.0:4411")?;
//! # drop(daemon);
//! # system.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! With [`durable`](Deployment::durable), every shard opens its slice of
//! the store ([`DurableStore::open_shard`]), replays its journal into its
//! `ServerNode` *before* serving, and journals every subsequent shadow
//! mutation — so a client that held `vN` before the restart still gets a
//! delta, not a full transfer, afterwards.

use std::error::Error;
use std::fmt;
use std::io;
use std::net::ToSocketAddrs;
use std::path::PathBuf;

use shadow_client::ClientConfig;
use shadow_obs::NodeReport;
use shadow_runtime::PersistSink;
use shadow_server::{ServerConfig, ServerNode};
use shadow_store::{DurableStore, RecoverySummary};

use crate::live::{LiveClient, LiveSystem, ShardedLiveSystem};
use crate::tcpd::{ShardedTcpServerRuntime, TcpServerRuntime};

/// Errors building a deployment.
#[derive(Debug)]
pub enum DeployError {
    /// The builder was configured inconsistently.
    Invalid(&'static str),
    /// Binding the listener or opening the durable store failed.
    Io(io::Error),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Invalid(why) => write!(f, "invalid deployment: {why}"),
            DeployError::Io(e) => write!(f, "deployment i/o: {e}"),
        }
    }
}

impl Error for DeployError {}

impl From<io::Error> for DeployError {
    fn from(e: io::Error) -> Self {
        DeployError::Io(e)
    }
}

/// One pre-built shard: its (possibly journal-restored) node and the
/// sink its storage intents go to.
type ShardParts = (ServerNode, Option<Box<dyn PersistSink>>);

/// The single entry point for standing up a wall-clock deployment.
///
/// Axes:
/// * **shards** — 1 (default) runs the paper's single poll loop;
///   N > 1 runs N domain-affine worker shards behind a routing acceptor.
/// * **durable** — a root directory makes the shadow store survive
///   restarts via per-domain write-ahead journals (`shadow-store`);
///   without it the deployment is diskless, exactly as before.
/// * **transport** — [`pipes`](Self::pipes) for in-process duplex pipes,
///   [`tcp`](Self::tcp) for real sockets.
#[derive(Debug, Clone)]
pub struct Deployment {
    config: ServerConfig,
    shards: usize,
    durable: Option<PathBuf>,
}

impl Deployment {
    /// Starts describing a deployment of one server configuration.
    pub fn new(config: ServerConfig) -> Self {
        Deployment {
            config,
            shards: 1,
            durable: None,
        }
    }

    /// Sets the worker-shard count (default 1 = the unsharded shape).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Makes the shadow store durable under `root`: journals are
    /// replayed at build time and appended to while serving. Each shard
    /// owns the subset of per-domain journals its
    /// [`shard_for`](shadow_runtime::shard_for) affinity assigns it.
    #[must_use]
    pub fn durable(mut self, root: impl Into<PathBuf>) -> Self {
        self.durable = Some(root.into());
        self
    }

    /// Builds every shard's node and sink, replaying journals when the
    /// deployment is durable. The store only reads records back; the
    /// node replays them, so the node's skipped records are what
    /// `dropped_records` counts.
    fn parts(&self) -> Result<(Vec<ShardParts>, RecoverySummary), DeployError> {
        if self.shards == 0 {
            return Err(DeployError::Invalid("a deployment needs at least one shard"));
        }
        let mut parts = Vec::with_capacity(self.shards);
        let mut recovery = RecoverySummary::default();
        for index in 0..self.shards {
            let mut node = ServerNode::new(self.config.clone());
            let sink = match &self.durable {
                Some(root) => {
                    let store = DurableStore::open_shard(root, index, self.shards)?;
                    let mut summary = store.summary();
                    summary.dropped_records = node.restore(&store.recovered()).skipped;
                    merge_summary(&mut recovery, summary);
                    Some(Box::new(store) as Box<dyn PersistSink>)
                }
                None => None,
            };
            parts.push((node, sink));
        }
        Ok((parts, recovery))
    }

    /// Deploys over in-process duplex pipes (threads in this process).
    ///
    /// # Errors
    ///
    /// Invalid builder combinations; store-opening failures when
    /// durable.
    pub fn pipes(self) -> Result<PipeDeployment, DeployError> {
        let (mut parts, recovery) = self.parts()?;
        let inner = if parts.len() == 1 {
            let (node, sink) = parts.remove(0);
            PipeInner::Single(LiveSystem::start_with(node, sink))
        } else {
            PipeInner::Sharded(ShardedLiveSystem::start_with_parts(parts))
        };
        Ok(PipeDeployment { inner, recovery })
    }

    /// Deploys over TCP: binds `addr` and serves real sockets.
    ///
    /// # Errors
    ///
    /// Invalid builder combinations; bind or store-opening failures.
    pub fn tcp(self, addr: impl ToSocketAddrs) -> Result<TcpDeployment, DeployError> {
        let (mut parts, recovery) = self.parts()?;
        let inner = if parts.len() == 1 {
            let (node, sink) = parts.remove(0);
            TcpInner::Single(Box::new(TcpServerRuntime::bind_with(addr, node, sink)?))
        } else {
            TcpInner::Sharded(ShardedTcpServerRuntime::bind_with_parts(addr, parts)?)
        };
        Ok(TcpDeployment { inner, recovery })
    }
}

#[derive(Debug)]
enum PipeInner {
    Single(LiveSystem),
    Sharded(ShardedLiveSystem),
}

/// A running in-process deployment built by [`Deployment::pipes`]: one
/// handle over a [`LiveSystem`] or a [`ShardedLiveSystem`].
#[derive(Debug)]
pub struct PipeDeployment {
    inner: PipeInner,
    recovery: RecoverySummary,
}

impl PipeDeployment {
    /// What journal replay recovered at build time (all zeros for a
    /// diskless deployment), merged across shards.
    pub fn recovery(&self) -> RecoverySummary {
        self.recovery
    }

    /// Connects a new client: sends the `Hello` immediately.
    pub fn connect_client(&self, config: ClientConfig) -> LiveClient {
        match &self.inner {
            PipeInner::Single(sys) => sys.connect_client(config),
            PipeInner::Sharded(sys) => sys.connect_client(config),
        }
    }

    /// Establishes a fresh transport without building a client — the
    /// redial path for an existing [`LiveClient`] resuming after a
    /// dropped link ([`LiveClient::resume_over`](crate::LiveClient::resume_over)).
    pub fn connect_transport(&self) -> shadow_netsim::pipe::PipeEnd {
        match &self.inner {
            PipeInner::Single(sys) => sys.connect_transport(),
            PipeInner::Sharded(sys) => sys.connect_transport(),
        }
    }

    /// The live server report (merged across shards when sharded).
    /// `None` once the system has begun shutting down.
    pub fn report(&self) -> Option<NodeReport> {
        match &self.inner {
            PipeInner::Single(sys) => sys.report(),
            PipeInner::Sharded(sys) => sys.report(),
        }
    }

    /// Stops accepting clients, drains the server(s), and returns the
    /// final per-shard protocol state (one node when unsharded).
    pub fn shutdown(self) -> Vec<ServerNode> {
        match self.inner {
            PipeInner::Single(sys) => vec![sys.shutdown()],
            PipeInner::Sharded(sys) => sys.shutdown(),
        }
    }
}

#[derive(Debug)]
enum TcpInner {
    Single(Box<TcpServerRuntime>),
    Sharded(ShardedTcpServerRuntime),
}

/// A bound TCP deployment built by [`Deployment::tcp`]: one handle over
/// a [`TcpServerRuntime`] or a [`ShardedTcpServerRuntime`]. Drive it from the owning thread with
/// [`run_forever`](Self::run_forever) (daemon) or
/// [`run_until_idle_for`](Self::run_until_idle_for) (tests).
#[derive(Debug)]
pub struct TcpDeployment {
    inner: TcpInner,
    recovery: RecoverySummary,
}

impl TcpDeployment {
    /// What journal replay recovered at build time (all zeros for a
    /// diskless deployment), merged across shards.
    pub fn recovery(&self) -> RecoverySummary {
        self.recovery
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        match &self.inner {
            TcpInner::Single(rt) => rt.local_addr(),
            TcpInner::Sharded(rt) => rt.local_addr(),
        }
    }

    /// The server report (merged across shards when sharded).
    pub fn report(&self) -> NodeReport {
        match &self.inner {
            TcpInner::Single(rt) => rt.report(),
            TcpInner::Sharded(rt) => rt.report(),
        }
    }

    /// One scheduling round. Returns whether any work was done.
    ///
    /// # Errors
    ///
    /// Listener failures (per-connection errors just drop the session).
    pub fn poll_once(&mut self) -> io::Result<bool> {
        match &mut self.inner {
            TcpInner::Single(rt) => rt.poll_once(),
            TcpInner::Sharded(rt) => rt.poll_once(),
        }
    }

    /// Serves forever (the daemon entry point).
    ///
    /// # Errors
    ///
    /// Listener failures.
    pub fn run_forever(self) -> io::Result<()> {
        match self.inner {
            TcpInner::Single(rt) => rt.run_forever(),
            TcpInner::Sharded(rt) => rt.run_forever(),
        }
    }

    /// Serves until no work has arrived for `idle` and everything has
    /// drained, then returns the final per-shard protocol state (one
    /// node when unsharded).
    ///
    /// # Errors
    ///
    /// Listener failures.
    pub fn run_until_idle_for(self, idle: std::time::Duration) -> io::Result<Vec<ServerNode>> {
        match self.inner {
            TcpInner::Single(rt) => rt.run_until_idle_for(idle).map(|n| vec![n]),
            TcpInner::Sharded(rt) => rt.run_until_idle_for(idle),
        }
    }
}

fn merge_summary(into: &mut RecoverySummary, from: RecoverySummary) {
    into.domains += from.domains;
    into.snapshot_records += from.snapshot_records;
    into.journal_records += from.journal_records;
    into.stale_skipped += from.stale_skipped;
    into.torn_tails += from.torn_tails;
    into.corrupt_segments += from.corrupt_segments;
    into.dropped_records += from.dropped_records;
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::time::{Duration, Instant};

    use shadow_client::FileRef;
    use shadow_proto::{
        ContentDigest, DomainId, FileId, FileKey, PersistRecord, SubmitOptions, VersionNumber,
    };

    use super::*;
    use crate::persist;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "shadow-deploy-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rows(from: usize, to: usize) -> Vec<u8> {
        (from..to).flat_map(|i| format!("row {i}\n").into_bytes()).collect()
    }

    /// Rewrites the store under `root` with every `CacheDelta` digest
    /// flipped: a delta chain that replays to the wrong bytes.
    fn break_delta_digests(root: &Path) {
        let records: Vec<PersistRecord> = DurableStore::open(root)
            .unwrap()
            .recovered()
            .into_iter()
            .map(|record| match record {
                PersistRecord::CacheDelta {
                    key,
                    version,
                    base,
                    codec,
                    script,
                    digest,
                } => PersistRecord::CacheDelta {
                    key,
                    version,
                    base,
                    codec,
                    script,
                    digest: ContentDigest::from_raw(digest.as_u64() ^ 1),
                },
                other => other,
            })
            .collect();
        fs::remove_dir_all(root).unwrap();
        let mut store = DurableStore::open(root).unwrap();
        for record in &records {
            store.persist(record);
        }
    }

    #[test]
    fn broken_delta_chain_degrades_recovery_and_reseeds_by_full_transfer() {
        let store_root = temp_dir("broken-chain");
        let client_state = temp_dir("broken-chain-client");
        let data = FileRef::new(FileId::new(1), "ws:/galaxy.dat");
        let job = FileRef::new(FileId::new(2), "ws:/analyze.job");
        {
            let system = Deployment::new(ServerConfig::new("sc"))
                .durable(&store_root)
                .pipes()
                .unwrap();
            let mut client = system.connect_client(ClientConfig::new("ws", 1));
            client.wait_ready(Duration::from_secs(5)).unwrap();
            client.edit_finished(&job, b"wc ws:/galaxy.dat\n".to_vec());
            for end in [200, 201] {
                client.edit_finished(&data, rows(0, end));
                client
                    .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
                    .unwrap();
                client.wait_job(Duration::from_secs(10)).unwrap();
            }
            assert_eq!(client.report().counter("client", "deltas_sent"), 1);
            persist::save_state(&client_state, client.node()).unwrap();
            drop(client);
            system.shutdown();
        }
        break_delta_digests(&store_root);

        let system = Deployment::new(ServerConfig::new("sc"))
            .durable(&store_root)
            .pipes()
            .unwrap();
        let recovery = system.recovery();
        assert_eq!(recovery.dropped_records, 1, "the bad delta is dropped");
        assert!(recovery.degraded(), "a broken chain is flagged");

        let mut client = system.connect_client(ClientConfig::new("ws", 1));
        persist::load_state(&client_state, client.node_mut()).unwrap();
        client.wait_ready(Duration::from_secs(5)).unwrap();
        client.edit_finished(&data, rows(0, 202));
        client
            .submit(&job, std::slice::from_ref(&data), SubmitOptions::default())
            .unwrap();
        let (_, output, ..) = client.wait_job(Duration::from_secs(10)).unwrap();
        assert!(String::from_utf8_lossy(&output).contains("202"));
        assert_eq!(client.report().counter("client", "fulls_sent"), 1, "data re-seeds whole");
        assert_eq!(client.report().counter("client", "deltas_sent"), 0);
        drop(client);
        system.shutdown();
        let _ = fs::remove_dir_all(&store_root);
        let _ = fs::remove_dir_all(&client_state);
    }

    #[test]
    fn compaction_at_a_batch_boundary_keeps_the_delta() {
        // The first job journals three records (job file, a, b). Then
        // a's second version arrives as a delta whose insertion evicts
        // one file (the 470-byte cache holds 23 + 200 + 200 bytes but not
        // 23 + 200 + 260): the batch `[CacheRemove victim, CacheDelta a]`.
        // With four appends per snapshot the threshold falls on the
        // removal. The runtime
        // compacts after the whole batch, so the snapshot holds a at v2
        // and no journal record is left to replay.
        let root = temp_dir("batch-boundary");
        let job = FileRef::new(FileId::new(1), "ws:/run.job");
        let a = FileRef::new(FileId::new(2), "ws:/a.dat");
        let b = FileRef::new(FileId::new(3), "ws:/b.dat");
        let lines = |c: &str, n: usize| format!("{}\n", c.repeat(9)).repeat(n).into_bytes();
        let node = ServerNode::new(ServerConfig::new("sc").with_cache_budget(470));
        let store = DurableStore::open(&root).unwrap().with_compact_every(4);
        let system = LiveSystem::start_with(node, Some(Box::new(store)));
        let mut client = system.connect_client(ClientConfig::new("ws", 1));
        client.wait_ready(Duration::from_secs(5)).unwrap();
        let wait_for = |client: &mut LiveClient, section: &str, counter: &str, want: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while system.report().unwrap().counter(section, counter) < want {
                assert!(Instant::now() < deadline, "{section}.{counter} never reached {want}");
                client.pump().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        client.edit_finished(&job, b"wc ws:/a.dat ws:/b.dat\n".to_vec());
        client.edit_finished(&a, lines("a", 20));
        client.edit_finished(&b, lines("b", 20));
        client
            .submit(&job, &[a.clone(), b], SubmitOptions::default())
            .unwrap();
        client.wait_job(Duration::from_secs(10)).unwrap();
        wait_for(&mut client, "store", "appends", 3);
        client.edit_finished(&a, lines("a", 26));
        wait_for(&mut client, "server", "delta_updates", 1);
        let report = system.report().unwrap();
        assert_eq!(report.counter("store", "appends"), 5);
        assert_eq!(report.counter("store", "compactions"), 1);
        drop(client);
        system.shutdown();

        let store = DurableStore::open(&root).unwrap();
        assert_eq!(store.summary().journal_records, 0, "the snapshot covers the batch");
        let mut node = ServerNode::new(ServerConfig::new("sc"));
        assert_eq!(node.restore(&store.recovered()).skipped, 0);
        let key = |file| FileKey::new(DomainId::new(1), FileId::new(file));
        assert_eq!(node.cached_version(key(2)), Some(VersionNumber::new(2)));
        assert_eq!(node.cached_keys().len(), 2, "one file was evicted");
        let _ = fs::remove_dir_all(&root);
    }
}
