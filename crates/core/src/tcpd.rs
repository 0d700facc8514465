//! The TCP deployment: a blocking server runtime and a TCP client,
//! mirroring the paper's prototype shape — "clients and servers are
//! implemented as UNIX processes that use a reliable transport protocol
//! (TCP/IP) … a server process listens at a well-known port for
//! connections from clients."
//!
//! Like the in-process [`LiveSystem`](crate::LiveSystem), this runs the
//! shared [`ServerRuntime`]: only the [`SessionAcceptor`] (a
//! non-blocking listener) is TCP-specific. [`Deployment::tcp`](crate::Deployment::tcp) builds
//! it.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

use shadow_client::ClientConfig;
use shadow_netsim::tcp::{TcpFramed, TcpServer};
use shadow_runtime::{
    Accepted, PersistSink, ServerRuntime, SessionAcceptor, ShardedServerRuntime, WallClock,
};
use shadow_server::ServerNode;

use crate::live::LiveClient;

/// A [`LiveClient`](crate::LiveClient) over a TCP connection.
pub type TcpClient = LiveClient<TcpFramed>;

/// Connects a TCP client to a listening [`TcpServerRuntime`] (or
/// `shadowd`) and sends the `Hello`.
///
/// # Errors
///
/// Socket or handshake failures.
pub fn connect_tcp(config: ClientConfig, addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
    let transport = TcpFramed::connect(addr)?;
    LiveClient::over_transport(config, transport).map_err(|e| {
        // Preserve the real failure kind: an orderly close during the
        // handshake is not a reset, and a reset is not a decode error.
        let kind = match e.closed() {
            Some(closed) => closed
                .error_kind()
                .unwrap_or(io::ErrorKind::ConnectionAborted),
            None => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e.to_string())
    })
}

/// Accepts framed TCP connections from the well-known port. The listener
/// never closes by itself, so [`Accepted::Closed`] is never produced.
struct TcpAcceptor {
    listener: TcpServer,
}

impl SessionAcceptor for TcpAcceptor {
    type Transport = TcpFramed;
    type Error = io::Error;

    fn poll_accept(&mut self) -> Result<Accepted<TcpFramed>, io::Error> {
        Ok(match self.listener.try_accept()? {
            Some(conn) => Accepted::Session(conn),
            None => Accepted::None,
        })
    }
}

/// The blocking server loop: accepts connections on a well-known port and
/// drives a [`ServerNode`].
///
/// # Example
///
/// ```no_run
/// use shadow::{Deployment, ServerConfig};
///
/// # fn main() -> Result<(), shadow::DeployError> {
/// let runtime = Deployment::new(ServerConfig::new("superc")).tcp("0.0.0.0:4411")?;
/// runtime.run_forever()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TcpServerRuntime {
    inner: ServerRuntime<TcpAcceptor, WallClock>,
    addr: SocketAddr,
}

impl TcpServerRuntime {
    /// Binds the well-known port around a pre-built node (fresh, or
    /// restored from a durable store) and the sink its storage intents
    /// go to. The [`Deployment`](crate::Deployment) builder is the
    /// public face of this.
    pub(crate) fn bind_with(
        addr: impl ToSocketAddrs,
        node: ServerNode,
        sink: Option<Box<dyn PersistSink>>,
    ) -> io::Result<Self> {
        let listener = TcpServer::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut inner = ServerRuntime::new(node, TcpAcceptor { listener }, WallClock::new());
        if let Some(sink) = sink {
            inner = inner.with_sink(sink);
        }
        Ok(TcpServerRuntime { inner, addr })
    }

    /// The server report: protocol metrics, cache behaviour, poll loop
    /// counters.
    pub fn report(&self) -> shadow_obs::NodeReport {
        self.inner.report()
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.addr)
    }

    /// One scheduling round: accept, read, fire timers, write. Returns
    /// whether any work was done.
    ///
    /// # Errors
    ///
    /// Listener failures (per-connection errors just drop the session).
    pub fn poll_once(&mut self) -> io::Result<bool> {
        self.inner.poll_once()
    }

    /// Serves forever (the daemon entry point).
    ///
    /// # Errors
    ///
    /// Listener failures.
    pub fn run_forever(mut self) -> io::Result<()> {
        loop {
            if !self.poll_once()? {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Serves until no work has arrived for `idle`, then returns the node
    /// for inspection (test entry point).
    ///
    /// # Errors
    ///
    /// Listener failures.
    pub fn run_until_idle_for(mut self, idle: Duration) -> io::Result<ServerNode> {
        let mut last_busy = Instant::now();
        loop {
            if self.poll_once()? {
                last_busy = Instant::now();
            } else {
                // Pending timers (running jobs) and live sessions are not
                // "idle": only a quiet, clientless, timerless server exits.
                if self.inner.idle() && last_busy.elapsed() >= idle {
                    return Ok(self.inner.into_node());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// The sharded TCP daemon (`shadowd --shards N` shape): the same
/// well-known port, but behind it N domain-affine worker shards fed by
/// a routing acceptor that peeks each connection's `Hello`.
///
/// # Example
///
/// ```no_run
/// use shadow::{Deployment, ServerConfig};
///
/// # fn main() -> Result<(), shadow::DeployError> {
/// let runtime = Deployment::new(ServerConfig::new("superc"))
///     .shards(4)
///     .tcp("0.0.0.0:4411")?;
/// runtime.run_forever()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedTcpServerRuntime {
    inner: ShardedServerRuntime<TcpAcceptor>,
    addr: SocketAddr,
}

impl ShardedTcpServerRuntime {
    /// Binds the well-known port over pre-built shards — each its
    /// (possibly journal-restored) node plus the sink that shard's
    /// storage intents go to. The [`Deployment`](crate::Deployment)
    /// builder is the public face of this.
    pub(crate) fn bind_with_parts(
        addr: impl ToSocketAddrs,
        parts: Vec<(ServerNode, Option<Box<dyn PersistSink>>)>,
    ) -> io::Result<Self> {
        let listener = TcpServer::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(ShardedTcpServerRuntime {
            inner: ShardedServerRuntime::from_parts(
                parts,
                TcpAcceptor { listener },
                WallClock::new(),
            ),
            addr,
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.addr)
    }

    /// One routing round: accept new connections, peek pending `Hello`s,
    /// hand routed sessions to their shards. Returns whether any routing
    /// work was done (shard work does not count — shards run on their own
    /// threads).
    ///
    /// # Errors
    ///
    /// Listener failures (per-connection errors just drop the session).
    pub fn poll_once(&mut self) -> io::Result<bool> {
        self.inner.poll_once()
    }

    /// The merged report across all shards plus the router's own
    /// `shards` section (see
    /// [`ShardedServerRuntime::report`](shadow_runtime::ShardedServerRuntime::report)).
    pub fn report(&self) -> shadow_obs::NodeReport {
        self.inner.report()
    }

    /// Serves forever (the daemon entry point).
    ///
    /// # Errors
    ///
    /// Listener failures.
    pub fn run_forever(mut self) -> io::Result<()> {
        loop {
            if !self.poll_once()? {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Serves until the router has been quiet for `idle` **and** every
    /// shard is drained (no live sessions, no pending timers), then shuts
    /// the shards down and returns their final nodes in shard-index order
    /// (test entry point).
    ///
    /// # Errors
    ///
    /// Listener failures.
    pub fn run_until_idle_for(mut self, idle: Duration) -> io::Result<Vec<ServerNode>> {
        let mut last_busy = Instant::now();
        loop {
            if self.poll_once()? {
                last_busy = Instant::now();
            } else {
                if last_busy.elapsed() >= idle
                    && self.inner.pending_count() == 0
                    && self.inner.shards_idle()
                {
                    return Ok(self.inner.shutdown());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::Deployment;
    use shadow_server::ServerConfig;
    use shadow_client::FileRef;
    use shadow_proto::{FileId, SubmitOptions};

    #[test]
    fn tcp_end_to_end_job() {
        let runtime = Deployment::new(ServerConfig::new("sc"))
            .tcp("127.0.0.1:0")
            .unwrap();
        let addr = runtime.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || runtime.run_until_idle_for(Duration::from_millis(400)));

        let mut client = connect_tcp(ClientConfig::new("ws", 1), addr).unwrap();
        client.wait_ready(Duration::from_secs(5)).unwrap();
        let job = FileRef::new(FileId::new(1), "ws:/t.job");
        client.edit_finished(&job, b"echo over tcp\n".to_vec());
        client.submit(&job, &[], SubmitOptions::default()).unwrap();
        let (_, output, _, stats) = client.wait_job(Duration::from_secs(10)).unwrap();
        assert_eq!(output, b"over tcp\n");
        assert_eq!(stats.exit_code, 0);
        drop(client);
        let node = handle.join().unwrap().unwrap().remove(0);
        assert_eq!(node.report().counter("server", "jobs_completed"), 1);
    }

    #[test]
    fn tcp_delta_resubmission() {
        let runtime = Deployment::new(ServerConfig::new("sc"))
            .tcp("127.0.0.1:0")
            .unwrap();
        let addr = runtime.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || runtime.run_until_idle_for(Duration::from_millis(400)));

        let mut client = connect_tcp(ClientConfig::new("ws", 1), addr).unwrap();
        client.wait_ready(Duration::from_secs(5)).unwrap();
        let data = FileRef::new(FileId::new(2), "ws:/data");
        let job = FileRef::new(FileId::new(1), "ws:/t.job");
        let content: Vec<u8> = (0..2000)
            .flat_map(|i| format!("row {i}\n").into_bytes())
            .collect();
        client.edit_finished(&data, content.clone());
        client.edit_finished(&job, b"wc ws:/data\n".to_vec());
        client.submit(&job, std::slice::from_ref(&data), SubmitOptions::default()).unwrap();
        client.wait_job(Duration::from_secs(10)).unwrap();

        let mut edited = content;
        edited.extend_from_slice(b"appended row\n");
        client.edit_finished(&data, edited);
        client.submit(&job, &[data], SubmitOptions::default()).unwrap();
        client.wait_job(Duration::from_secs(10)).unwrap();
        assert_eq!(client.report().counter("client", "deltas_sent"), 1);
        drop(client);
        let node = handle.join().unwrap().unwrap().remove(0);
        assert_eq!(node.report().counter("server", "delta_updates"), 1);
    }

    #[test]
    fn sharded_tcp_end_to_end_jobs_across_domains() {
        let runtime = Deployment::new(ServerConfig::new("sc"))
            .shards(2)
            .tcp("127.0.0.1:0")
            .unwrap();
        let addr = runtime.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || runtime.run_until_idle_for(Duration::from_millis(400)));

        let mut clients: Vec<TcpClient> = (1..=3u64)
            .map(|d| connect_tcp(ClientConfig::new(format!("ws{d}"), d), addr).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.wait_ready(Duration::from_secs(5)).unwrap();
            let job = FileRef::new(FileId::new(1), "ws:/t.job");
            c.edit_finished(&job, format!("echo tcp shard {i}\n").into_bytes());
            c.submit(&job, &[], SubmitOptions::default()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let (_, output, _, stats) = c.wait_job(Duration::from_secs(10)).unwrap();
            assert_eq!(output, format!("tcp shard {i}\n").into_bytes());
            assert_eq!(stats.exit_code, 0);
        }
        drop(clients);
        let nodes = handle.join().unwrap().unwrap();
        assert_eq!(nodes.len(), 2);
        let total: u64 = nodes
            .iter()
            .map(|n| n.report().counter("server", "jobs_completed"))
            .sum();
        assert_eq!(total, 3);
    }
}
