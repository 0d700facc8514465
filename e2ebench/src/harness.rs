//! The deployment, the clients and the closed loop that drives them.
//!
//! One server thread polls a single-shard deployment with `run_forever`'s
//! 1 ms idle sleep; the calling thread is the load generator driving
//! every client. Untraced runs use `Deployment::tcp` and connect the way
//! `connect_tcp` does; traced runs assemble the same public parts around
//! the timing shims of [`crate::trace`].

use std::error::Error;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use shadow::tcp::{TcpFramed, TcpServer};
use shadow::{
    ClientConfig, Deployment, DurableStore, ExecProfile, FrameTransport, LiveClient, NodeReport,
    Notification, ServerConfig, ServerNode, ServerRuntime, SubmitOptions, TcpDeployment, WallClock,
};

use crate::trace::{self, mark, Kind, Mark, TimedAcceptor, TimedSink, TimedTransport};
use crate::workload::{ClientGen, Workload, CLIENTS};

/// Errors end the run.
pub type BenchResult<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// Longest a single cycle (or a set-up step) may take before it counts
/// as failed.
const TIMEOUT: Duration = Duration::from_secs(60);

fn submit_options(workload: Workload) -> SubmitOptions {
    SubmitOptions {
        shadow_output: workload.shadow_output(),
        ..SubmitOptions::default()
    }
}

/// The server configuration every workload shares: the simulated
/// supercomputer timer is off (no per-job overhead, unbounded byte
/// rate), so a job costs what `exec::run_job` really costs.
pub fn server_config(workload: Workload) -> ServerConfig {
    ServerConfig::new("superc")
        .with_exec(ExecProfile {
            job_overhead_ms: 0,
            cpu_byte_rate: u64::MAX,
        })
        .with_cache_budget(workload.cache_budget())
}

/// The server side of a deployment, as the poll loop sees it.
trait Serve: Send {
    fn poll(&mut self) -> std::io::Result<bool>;
    fn report(&self) -> NodeReport;
}

impl Serve for TcpDeployment {
    fn poll(&mut self) -> std::io::Result<bool> {
        self.poll_once()
    }
    fn report(&self) -> NodeReport {
        TcpDeployment::report(self)
    }
}

impl Serve for ServerRuntime<TimedAcceptor, WallClock> {
    fn poll(&mut self) -> std::io::Result<bool> {
        self.poll_once()
    }
    fn report(&self) -> NodeReport {
        ServerRuntime::report(self)
    }
}

enum Request {
    Report(mpsc::Sender<NodeReport>),
    Stop,
}

/// What the server thread hands back when stopped.
type ServerOutcome = (NodeReport, Vec<Mark>);

/// A running server thread. Dropping it stops the thread and removes
/// the store, so an error part-way through a run leaves nothing behind.
#[derive(Debug)]
pub struct Server {
    requests: mpsc::Sender<Request>,
    handle: Option<JoinHandle<BenchResult<ServerOutcome>>>,
    addr: SocketAddr,
    store: Option<PathBuf>,
}

impl Server {
    /// Builds the deployment (durable under `store` when the workload
    /// asks for it) and starts polling it on its own thread.
    pub fn start(workload: Workload, store: Option<PathBuf>, traced: bool) -> BenchResult<Self> {
        if let Some(dir) = &store {
            remove_dir(dir);
        }
        let config = server_config(workload);
        let (addr, server): (SocketAddr, Box<dyn Serve>) = if traced {
            let listener = TcpServer::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let mut node = ServerNode::new(config);
            let sink = match &store {
                Some(dir) => {
                    let store = DurableStore::open_shard(dir, 0, 1)?;
                    node.restore(&store.recovered());
                    Some(TimedSink(store))
                }
                None => None,
            };
            let mut runtime = ServerRuntime::new(
                node,
                TimedAcceptor::new(listener, CLIENTS),
                WallClock::new(),
            );
            if let Some(sink) = sink {
                runtime = runtime.with_sink(Box::new(sink));
            }
            runtime.driver_mut().set_event_hook(trace::server_hook());
            (addr, Box::new(runtime))
        } else {
            let mut builder = Deployment::new(config);
            if let Some(dir) = &store {
                builder = builder.durable(dir);
            }
            let deployment = builder.tcp("127.0.0.1:0")?;
            let addr = deployment.local_addr()?;
            (addr, Box::new(deployment))
        };
        let (requests, inbox) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("e2e-server".into())
            .spawn(move || serve_loop(server, &inbox))?;
        Ok(Server {
            requests,
            handle: Some(handle),
            addr,
            store,
        })
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's report, taken between two polls.
    pub fn report(&self) -> BenchResult<NodeReport> {
        let (tx, rx) = mpsc::channel();
        self.requests
            .send(Request::Report(tx))
            .map_err(|_| "server thread has exited")?;
        Ok(rx.recv_timeout(TIMEOUT)?)
    }

    /// Stops the poll loop, joins the thread and removes the store.
    pub fn stop(mut self) -> BenchResult<ServerOutcome> {
        self.shutdown()
            .unwrap_or_else(|| Err("server already stopped".into()))
    }

    fn shutdown(&mut self) -> Option<BenchResult<ServerOutcome>> {
        let handle = self.handle.take()?;
        let _ = self.requests.send(Request::Stop);
        let outcome = handle
            .join()
            .unwrap_or_else(|_| Err("server thread panicked".into()));
        if let Some(dir) = &self.store {
            remove_dir(dir);
        }
        Some(outcome)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// `run_forever`'s loop (poll; sleep 1 ms when idle), plus report and
/// stop requests between polls. A report waits for the next idle poll,
/// so every frame sent before it was asked for has been handled and
/// journalled.
fn serve_loop(
    mut server: Box<dyn Serve>,
    inbox: &mpsc::Receiver<Request>,
) -> BenchResult<ServerOutcome> {
    let mut report_to = None;
    loop {
        match inbox.try_recv() {
            Ok(Request::Report(reply)) => report_to = Some(reply),
            Ok(Request::Stop) | Err(mpsc::TryRecvError::Disconnected) => break,
            Err(mpsc::TryRecvError::Empty) => {}
        }
        mark(Kind::PollStart);
        let busy = server.poll()?;
        mark(Kind::PollEnd);
        if !busy {
            if let Some(reply) = report_to.take() {
                let _ = reply.send(server.report());
            }
            mark(Kind::SleepStart);
            std::thread::sleep(Duration::from_millis(1));
            mark(Kind::SleepEnd);
        }
    }
    Ok((server.report(), trace::take_marks()))
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// A client connection, the generator behind it, and its cycle in
/// flight.
#[derive(Debug)]
pub struct Client<T: FrameTransport> {
    /// The connection.
    pub live: LiveClient<T>,
    /// A second handle on the connection's socket, to hang up with.
    line: TcpStream,
    /// The client's inputs.
    pub gen: ClientGen,
    index: usize,
    inflight: Option<(Instant, usize)>,
    /// Cycles started so far (warm-up included).
    pub started: u64,
    /// Set when a cycle failed other than by a wrong output; the client
    /// starts no further cycles.
    broken: bool,
}

/// Client `index`'s configuration. It retains one output per job file:
/// the server diffs each job's output against that job file's previous
/// output, and with the default retention of 4 a client rotating over
/// more job files than that gets `OutputCorrupt` (see README.md, "Known
/// defect").
fn client_config(index: usize, gen: &ClientGen) -> ClientConfig {
    let mut config = ClientConfig::new(format!("ws{index}"), index as u64 + 1);
    config.output_retention = config.output_retention.max(gen.files().len());
    config
}

/// Opens client `index`'s connection: its transport, and a second handle
/// on the socket to hang up with.
pub type Dial<T> = fn(SocketAddr, usize) -> BenchResult<(T, TcpStream)>;

/// The transport `connect_tcp` uses.
pub fn dial_plain(addr: SocketAddr, _index: usize) -> BenchResult<(TcpFramed, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    let line = stream.try_clone()?;
    Ok((TcpFramed::from_stream(stream)?, line))
}

/// The same transport, timed.
pub fn dial_traced(
    addr: SocketAddr,
    index: usize,
) -> BenchResult<(TimedTransport<TcpFramed>, TcpStream)> {
    let (framed, line) = dial_plain(addr, index)?;
    Ok((TimedTransport::new(framed, index as u8), line))
}

/// One finished cycle.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// Edit finished → output at the client.
    pub latency: Duration,
    /// Whether the output matched `exec::run_job` on the generator's
    /// inputs (and the job succeeded).
    pub ok: bool,
}

impl<T: FrameTransport> Client<T> {
    /// Connects client `index` and completes the handshake; traced
    /// clients get a driver hook.
    fn connect(
        addr: SocketAddr,
        gen: ClientGen,
        index: usize,
        traced: bool,
        dial: Dial<T>,
    ) -> BenchResult<Self> {
        let (transport, line) = dial(addr, index)?;
        let mut live = LiveClient::over_transport(client_config(index, &gen), transport)?;
        if traced {
            live.set_event_hook(trace::client_hook());
        }
        live.wait_ready(TIMEOUT)?;
        Ok(Client {
            live,
            line,
            gen,
            index,
            inflight: None,
            started: 0,
            broken: false,
        })
    }

    /// Hangs up, keeping the client's version chains for the resume
    /// handshake. The server sees an orderly close.
    fn hang_up(&mut self) -> BenchResult<()> {
        self.line.shutdown(Shutdown::Write)?;
        self.live.link_down();
        Ok(())
    }

    /// Reconnects with the resume handshake. Where the cache holds the
    /// whole working set every file must be retained, so the next cycles
    /// send deltas as on the first session; where it does not, files the
    /// later clients' seeding evicted fall back to a full transfer.
    fn rejoin(&mut self, addr: SocketAddr, dial: Dial<T>) -> BenchResult<()> {
        let (transport, line) = dial(addr, self.index)?;
        self.line = line;
        self.live.resume_over(transport)?;
        let ready = self
            .live
            .wait_for(TIMEOUT, |n| matches!(n, Notification::SessionReady { .. }))?;
        // The old session's `LinkDown` is no cycle's business.
        self.live.take_notifications();
        let fallbacks = self.live.report().counter("client", "resume_fallbacks");
        let lost = fallbacks > 0 && !self.gen.workload().evicts();
        if !matches!(ready, Notification::SessionReady { resumed: true, .. }) || lost {
            return Err(format!(
                "client {}: the server did not resume the session ({fallbacks} files fell back)",
                self.index
            )
            .into());
        }
        Ok(())
    }

    fn conn(&self) -> u8 {
        self.index as u8
    }

    /// Registers every file and runs every job once: the first full
    /// transfer of every input, and the first output of every job.
    pub fn seed(&mut self) -> BenchResult<()> {
        for f in self.gen.files() {
            self.live.edit_finished(&f.data, f.content.clone());
            self.live.edit_finished(&f.job, f.job_text.clone());
        }
        for f in self.gen.files() {
            self.live.submit(
                &f.job,
                std::slice::from_ref(&f.data),
                submit_options(self.gen.workload()),
            )?;
        }
        for file in 0..self.gen.files().len() {
            let (_, output, errors, stats) = self.live.wait_job(TIMEOUT)?;
            let expected = self.gen.expected_output(file);
            if output != expected.output || !errors.is_empty() || stats.exit_code != 0 {
                return Err(format!(
                    "seeding job {file} of client {} gave a wrong output",
                    self.index
                )
                .into());
            }
        }
        Ok(())
    }

    /// Starts the next cycle: edit (if the plan has one), then submit.
    /// Returns the bytes the user changed.
    fn start_cycle(&mut self) -> BenchResult<u64> {
        mark(Kind::GenStart);
        let plan = self.gen.next_plan();
        let file = &self.gen.files()[plan.file];
        let (data, job) = (file.data.clone(), file.job.clone());
        let edit = plan.old.map(|old| {
            let user_bytes = self.gen.workload().user_bytes(old.len());
            (file.content.clone(), user_bytes)
        });
        mark(Kind::GenEnd);

        let conn = self.conn();
        let start = Instant::now();
        mark(Kind::CycleStart { conn });
        let mut user_bytes = 0;
        if let Some((content, changed)) = edit {
            user_bytes = changed;
            mark(Kind::EditStart);
            self.live.edit_finished(&data, content);
            mark(Kind::EditEnd);
        }
        mark(Kind::SubmitStart { conn });
        self.live
            .submit(&job, &[data], submit_options(self.gen.workload()))?;
        mark(Kind::SubmitEnd);
        self.inflight = Some((start, plan.file));
        self.started += 1;
        Ok(user_bytes)
    }

    /// Processes whatever has arrived; returns the cycle if its output
    /// is in, or if it failed.
    fn poll(&mut self) -> Option<Finished> {
        let (start, file) = self.inflight?;
        let conn = self.conn();
        mark(Kind::PumpStart);
        let pumped = self.live.pump();
        mark(Kind::PumpEnd);
        if let Err(e) = pumped {
            return Some(self.fail(start, &e.to_string()));
        }
        for note in self.live.take_notifications() {
            match note {
                Notification::JobFinished {
                    output,
                    errors,
                    stats,
                    ..
                } => {
                    let latency = start.elapsed();
                    mark(Kind::CycleEnd { conn });
                    self.inflight = None;
                    mark(Kind::CheckStart);
                    let expected = self.gen.expected_output(file);
                    let ok = expected.exit_code == 0
                        && stats.exit_code == 0
                        && errors.is_empty()
                        && output == expected.output;
                    mark(Kind::CheckEnd);
                    return Some(Finished { latency, ok });
                }
                Notification::OutputCorrupt { .. }
                | Notification::JobRejected { .. }
                | Notification::SessionClosed { .. }
                | Notification::LinkDown { .. } => {
                    return Some(self.fail(start, &format!("{note:?}")));
                }
                _ => {}
            }
        }
        if start.elapsed() > TIMEOUT {
            return Some(self.fail(start, "cycle timed out"));
        }
        None
    }

    /// Ends the cycle in flight as failed and retires the client.
    fn fail(&mut self, start: Instant, why: &str) -> Finished {
        eprintln!("e2ebench: client {}: {why}", self.index);
        self.inflight = None;
        self.broken = true;
        Finished {
            latency: start.elapsed(),
            ok: false,
        }
    }
}

/// When the closed loop stops starting cycles.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many cycles per client.
    Cycles(u64),
    /// This long after the loop began (cycles in flight then still
    /// finish).
    After(Duration),
}

/// What one phase of the closed loop did. Every cycle started has ended
/// by the time the phase returns, correct or failed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every cycle that ended, correct or failed.
    pub ended: Vec<Finished>,
    /// Cycles started.
    pub attempted: u64,
    /// Bytes the user changed in this phase's edits.
    pub user_bytes: u64,
    /// From the first start to the last output.
    pub wall: Duration,
}

impl Phase {
    /// Cycles that failed: a wrong output, an error or a timeout.
    pub fn failed(&self) -> u64 {
        self.ended.iter().filter(|c| !c.ok).count() as u64
    }
}

/// The closed loop: every client starts its next cycle as soon as its
/// previous output arrived, until `stop`.
pub fn run_cycles<T: FrameTransport>(clients: &mut [Client<T>], stop: Stop) -> Phase {
    let begin = Instant::now();
    let mut phase = Phase::default();
    let quota: Vec<u64> = clients.iter().map(|c| c.started).collect();
    loop {
        let mut active = false;
        for (c, &before) in clients.iter_mut().zip(&quota) {
            if c.inflight.is_none() && !c.broken {
                let go = match stop {
                    Stop::Cycles(n) => c.started - before < n,
                    Stop::After(d) => begin.elapsed() < d,
                };
                if go {
                    phase.attempted += 1;
                    match c.start_cycle() {
                        Ok(user_bytes) => phase.user_bytes += user_bytes,
                        Err(e) => {
                            eprintln!("e2ebench: client {}: {e}", c.index);
                            c.broken = true;
                            phase.ended.push(Finished {
                                latency: Duration::ZERO,
                                ok: false,
                            });
                        }
                    }
                }
            }
            active |= c.inflight.is_some();
        }
        if !active {
            break;
        }
        for c in clients.iter_mut() {
            if let Some(done) = c.poll() {
                phase.ended.push(done);
            }
        }
    }
    phase.wall = begin.elapsed();
    phase
}

/// Counters read from the client and server reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Encoded bytes both ways, summed over the clients' drivers.
    pub wire_bytes: u64,
    /// Updates the clients sent as deltas.
    pub deltas_sent: u64,
    /// Updates the clients sent in full.
    pub fulls_sent: u64,
    /// Shadow-cache evictions.
    pub cache_evictions: u64,
    /// Updates that failed verification at the server.
    pub update_failures: u64,
    /// Journal records appended.
    pub store_appends: u64,
    /// Journal bytes appended.
    pub store_bytes: u64,
    /// Snapshot compactions.
    pub store_compactions: u64,
}

impl Counters {
    /// Reads the counters off the reports.
    pub fn read<T: FrameTransport>(clients: &[Client<T>], server: &NodeReport) -> Self {
        let mut c = Counters {
            cache_evictions: server.counter("cache", "evictions"),
            update_failures: server.counter("server", "update_failures"),
            store_appends: server.counter("store", "appends"),
            store_bytes: server.counter("store", "appended_bytes"),
            store_compactions: server.counter("store", "compactions"),
            ..Counters::default()
        };
        for client in clients {
            let r = client.live.report();
            c.wire_bytes +=
                r.counter("driver", "bytes_sent") + r.counter("driver", "bytes_received");
            c.deltas_sent += r.counter("client", "deltas_sent");
            c.fulls_sent += r.counter("client", "fulls_sent");
        }
        c
    }

    /// `self − earlier`, field by field.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            deltas_sent: self.deltas_sent - earlier.deltas_sent,
            fulls_sent: self.fulls_sent - earlier.fulls_sent,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            update_failures: self.update_failures - earlier.update_failures,
            store_appends: self.store_appends - earlier.store_appends,
            store_bytes: self.store_bytes - earlier.store_bytes,
            store_compactions: self.store_compactions - earlier.store_compactions,
        }
    }
}

/// A deployment with its clients connected and seeded.
#[derive(Debug)]
pub struct Bench<T: FrameTransport> {
    /// The clients, in connection order. Declared first so that they
    /// hang up before the server thread is joined when a run fails.
    pub clients: Vec<Client<T>>,
    /// The server thread.
    pub server: Server,
}

impl<T: FrameTransport> Bench<T> {
    /// Builds the deployment and seeds every client over a session of
    /// its own: each client connects, seeds and hangs up before the next
    /// connects, then all of them rejoin with the resume handshake.
    ///
    /// Seeding one client while another is connected but quiet would
    /// pace its uploads by the server's 10 ms blocking read on the quiet
    /// session, one receive buffer per read. That buffer's size is set
    /// by the kernel's autotuning, so set-up took from 0.7 s to 3 s and
    /// drifted by the hour. The stall's cost still shows in every cycle.
    pub fn setup(
        workload: Workload,
        gens: &[ClientGen],
        store: Option<PathBuf>,
        traced: bool,
        dial: Dial<T>,
    ) -> BenchResult<Self> {
        let server = Server::start(workload, store, traced)?;
        let mut clients = Vec::with_capacity(gens.len());
        for (index, gen) in gens.iter().enumerate() {
            let mut client = Client::connect(server.addr(), gen.clone(), index, traced, dial)?;
            client.seed()?;
            client.hang_up()?;
            clients.push(client);
        }
        for client in &mut clients {
            client.rejoin(server.addr(), dial)?;
        }
        Ok(Bench { clients, server })
    }

    /// Counters as of now (every client idle).
    pub fn counters(&self) -> BenchResult<Counters> {
        Ok(Counters::read(&self.clients, &self.server.report()?))
    }

    /// Hangs up every client, then stops the server.
    pub fn teardown(self) -> BenchResult<ServerOutcome> {
        drop(self.clients);
        self.server.stop()
    }
}
