//! Tracing from outside the program: timing shims around the public
//! seams (transport, acceptor, persist sink, driver event hooks) that
//! record point marks in per-thread memory, and the analysis that turns
//! the marks into labelled spans, per-layer totals and per-cycle paths.
//!
//! Client and server share one process clock ([`now_ns`]), so the two
//! threads' marks join into one timeline.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use shadow::tcp::{TcpFramed, TcpServer};
use shadow::{
    Accepted, DriverEvent, DurableStore, EventHook, FrameTransport, PersistRecord, PersistSink,
    SessionAcceptor, TransportClosed,
};

/// Frame tags (the first body byte after the 4-byte length prefix).
pub mod tag {
    /// Client `NotifyVersion`.
    pub const NOTIFY: u8 = 0x02;
    /// Client `Update`.
    pub const UPDATE: u8 = 0x03;
    /// Client `Submit`.
    pub const SUBMIT: u8 = 0x04;
    /// Server `UpdateRequest`.
    pub const UPDATE_REQUEST: u8 = 0x82;
    /// Server `JobComplete`.
    pub const JOB_COMPLETE: u8 = 0x87;
}

fn frame_tag(frame: &[u8]) -> u8 {
    frame.get(4).copied().unwrap_or(0)
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static MARKS: RefCell<Vec<Mark>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds on the process clock shared by every thread.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns mark recording on or off for every thread.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Records a mark on the calling thread (a no-op while disabled).
pub fn mark(kind: Kind) {
    if ENABLED.load(Ordering::Relaxed) {
        let t = now_ns();
        MARKS.with(|m| m.borrow_mut().push(Mark { t, kind }));
    }
}

/// Takes the calling thread's marks.
pub fn take_marks() -> Vec<Mark> {
    MARKS.with(|m| std::mem::take(&mut *m.borrow_mut()))
}

/// A point in one thread's timeline.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// [`now_ns`] when recorded.
    pub t: u64,
    /// What happened.
    pub kind: Kind,
}

/// Mark kinds. `conn` is the client index (accept order on the server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ServerRuntime::poll_once` entered.
    PollStart,
    /// `poll_once` returned.
    PollEnd,
    /// The server loop's idle sleep began.
    SleepStart,
    /// The idle sleep ended.
    SleepEnd,
    /// A transport receive began.
    RecvStart { conn: u8 },
    /// It ended; `tag` is `None` when no frame came back.
    RecvEnd { conn: u8, tag: Option<u8> },
    /// A transport send began.
    SendStart { conn: u8, tag: u8 },
    /// It ended.
    SendEnd { conn: u8 },
    /// The persist sink was called.
    PersistStart,
    /// It returned.
    PersistEnd,
    /// Driver hook: a frame is about to be decoded and handled.
    Received { tag: u8 },
    /// Driver hook: a due timer is about to be handled.
    TimerFired,
    /// `LiveClient::edit_finished` entered / returned.
    EditStart,
    /// See [`Kind::EditStart`].
    EditEnd,
    /// `LiveClient::submit` entered / returned.
    SubmitStart { conn: u8 },
    /// See [`Kind::SubmitStart`].
    SubmitEnd,
    /// `LiveClient::pump` entered / returned.
    PumpStart,
    /// See [`Kind::PumpStart`].
    PumpEnd,
    /// The generator is producing the next edit.
    GenStart,
    /// See [`Kind::GenStart`].
    GenEnd,
    /// The generator is checking an output.
    CheckStart,
    /// See [`Kind::CheckStart`].
    CheckEnd,
    /// A cycle began (before `edit_finished`).
    CycleStart { conn: u8 },
    /// A cycle's output arrived.
    CycleEnd { conn: u8 },
}

/// A [`FrameTransport`] that marks every send and receive.
#[derive(Debug)]
pub struct TimedTransport<T> {
    inner: T,
    conn: u8,
}

impl<T> TimedTransport<T> {
    /// Wraps the transport of client `conn`.
    pub fn new(inner: T, conn: u8) -> Self {
        TimedTransport { inner, conn }
    }
}

impl<T: FrameTransport> TimedTransport<T> {
    fn timed_recv(
        &mut self,
        recv: impl FnOnce(&mut T) -> Result<Option<Vec<u8>>, TransportClosed>,
    ) -> Result<Option<Vec<u8>>, TransportClosed> {
        let conn = self.conn;
        mark(Kind::RecvStart { conn });
        let got = recv(&mut self.inner);
        let tag = match &got {
            Ok(Some(frame)) => Some(frame_tag(frame)),
            _ => None,
        };
        mark(Kind::RecvEnd { conn, tag });
        got
    }
}

impl<T: FrameTransport> FrameTransport for TimedTransport<T> {
    fn send_frame(&mut self, frame: Vec<u8>) -> Result<(), TransportClosed> {
        let conn = self.conn;
        mark(Kind::SendStart {
            conn,
            tag: frame_tag(&frame),
        });
        let sent = self.inner.send_frame(frame);
        mark(Kind::SendEnd { conn });
        sent
    }

    fn recv_frame(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<Option<Vec<u8>>, TransportClosed> {
        self.timed_recv(|t| t.recv_frame(timeout))
    }

    fn try_recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportClosed> {
        self.timed_recv(|t| t.try_recv_frame())
    }
}

/// The TCP listener, handing out timed transports numbered in accept
/// order.
#[derive(Debug)]
pub struct TimedAcceptor {
    listener: TcpServer,
    clients: usize,
    next: usize,
}

impl TimedAcceptor {
    /// Wraps a bound listener for `clients` clients. They connect in
    /// index order, and rejoin in the same order, so the `n`th session
    /// accepted is client `n % clients`'s.
    pub fn new(listener: TcpServer, clients: usize) -> Self {
        TimedAcceptor {
            listener,
            clients,
            next: 0,
        }
    }
}

impl SessionAcceptor for TimedAcceptor {
    type Transport = TimedTransport<TcpFramed>;
    type Error = io::Error;

    fn poll_accept(&mut self) -> Result<Accepted<Self::Transport>, io::Error> {
        Ok(match self.listener.try_accept()? {
            Some(conn) => {
                let timed = TimedTransport::new(conn, (self.next % self.clients) as u8);
                self.next += 1;
                Accepted::Session(timed)
            }
            None => Accepted::None,
        })
    }
}

/// The durable store behind a sink that marks every persist call.
#[derive(Debug)]
pub struct TimedSink(pub DurableStore);

impl PersistSink for TimedSink {
    fn persist(&mut self, record: &PersistRecord) {
        mark(Kind::PersistStart);
        self.0.persist(record);
        mark(Kind::PersistEnd);
    }

    fn report_section(&self) -> Option<shadow::Section> {
        self.0.report_section()
    }
}

/// The server driver's hook: marks frame handling and timer firing.
pub fn server_hook() -> EventHook {
    Box::new(|event| match event {
        DriverEvent::FrameReceived { frame, .. } => mark(Kind::Received {
            tag: frame_tag(frame),
        }),
        DriverEvent::TimerFired { .. } => mark(Kind::TimerFired),
        _ => {}
    })
}

/// A client driver's hook: marks frame handling.
pub fn client_hook() -> EventHook {
    Box::new(|event| {
        if let DriverEvent::FrameReceived { frame, .. } = event {
            mark(Kind::Received {
                tag: frame_tag(frame),
            });
        }
    })
}

/// Label of time no shim accounts for (loop code between the marks).
pub const UNTRACED: &str = "untraced";

/// A labelled stretch of one thread's time.
#[derive(Debug, Clone, Copy)]
pub struct Seg {
    /// Start, [`now_ns`].
    pub start: u64,
    /// End, [`now_ns`].
    pub end: u64,
    /// The layer the time belongs to.
    pub label: &'static str,
}

fn handler_label(server: bool, tag: u8) -> &'static str {
    match (server, tag) {
        (true, tag::UPDATE) => "server.update",
        (true, tag::SUBMIT) => "server.submit",
        (true, tag::NOTIFY) => "server.notify",
        (true, _) => "server.other",
        (false, tag::UPDATE_REQUEST) => "client.pull",
        (false, tag::JOB_COMPLETE) => "client.output",
        (false, _) => "client.other",
    }
}

/// Partitions one thread's marks into labelled segments.
///
/// Every gap between consecutive marks gets exactly one label: a
/// running transport/persist/sleep call's own, else the handler phase a
/// driver hook opened (which runs until the next receive, send or
/// persist begins), else the enclosing call's (`poll_once`, `pump`,
/// `edit_finished`, …), else [`UNTRACED`].
pub fn segments(marks: &[Mark], server: bool) -> Vec<Seg> {
    let mut out = Vec::with_capacity(marks.len());
    let mut base = UNTRACED;
    let mut phase: Option<&'static str> = None;
    let mut child: Option<&'static str> = None;
    for (i, m) in marks.iter().enumerate() {
        match m.kind {
            Kind::PollStart => base = "runtime.poll",
            Kind::PumpStart => base = "client.pump",
            Kind::EditStart => base = "client.edit",
            Kind::SubmitStart { .. } => base = "client.submit",
            Kind::GenStart => base = "bench.generate",
            Kind::CheckStart => base = "bench.check",
            Kind::PollEnd
            | Kind::PumpEnd
            | Kind::EditEnd
            | Kind::SubmitEnd
            | Kind::GenEnd
            | Kind::CheckEnd => {
                base = UNTRACED;
                phase = None;
            }
            Kind::SleepStart => child = Some("runtime.idle_sleep"),
            Kind::RecvStart { .. } => {
                phase = None;
                let got = marks
                    .get(i + 1)
                    .is_some_and(|n| matches!(n.kind, Kind::RecvEnd { tag: Some(_), .. }));
                child = Some(match (got, server) {
                    (true, _) => "tcp.recv",
                    (false, true) => "tcp.recv_blocked",
                    (false, false) => "tcp.client_recv_blocked",
                });
            }
            Kind::SendStart { .. } => {
                phase = None;
                child = Some(if server {
                    "tcp.send"
                } else {
                    "tcp.client_send"
                });
            }
            Kind::PersistStart => {
                phase = None;
                child = Some("store.persist");
            }
            Kind::SleepEnd | Kind::RecvEnd { .. } | Kind::SendEnd { .. } | Kind::PersistEnd => {
                child = None;
            }
            Kind::Received { tag } => phase = Some(handler_label(server, tag)),
            Kind::TimerFired => phase = Some("server.job_done"),
            Kind::CycleStart { .. } | Kind::CycleEnd { .. } => {}
        }
        if let Some(next) = marks.get(i + 1) {
            if next.t > m.t {
                let label = child.or(phase).unwrap_or(base);
                out.push(Seg {
                    start: m.t,
                    end: next.t,
                    label,
                });
            }
        }
    }
    out
}

/// Sums, per label, the part of `segs` (sorted, disjoint) that falls in
/// `[from, to)`, into `into`.
pub fn attribute(segs: &[Seg], from: u64, to: u64, into: &mut BTreeMap<&'static str, u64>) {
    if from >= to {
        return;
    }
    let first = segs.partition_point(|s| s.end <= from);
    for s in &segs[first..] {
        if s.start >= to {
            break;
        }
        let overlap = s.end.min(to) - s.start.max(from);
        *into.entry(s.label).or_default() += overlap;
    }
}

/// One measured cycle as seen in the marks.
#[derive(Debug, Clone, Copy)]
pub struct CycleSpan {
    /// Client index.
    pub conn: u8,
    /// [`now_ns`] at `CycleStart`.
    pub start: u64,
    /// [`now_ns`] at `CycleEnd`.
    pub end: u64,
    /// End of the cycle's `submit` call: the client holds the cycle
    /// until then.
    pub submitted: u64,
}

/// Finds every cycle of the client thread's marks.
pub fn cycles(client_marks: &[Mark]) -> Vec<CycleSpan> {
    let mut open: BTreeMap<u8, (u64, Option<u64>)> = BTreeMap::new();
    let mut in_submit: Option<u8> = None;
    let mut out = Vec::new();
    for m in client_marks {
        match m.kind {
            Kind::CycleStart { conn } => {
                open.insert(conn, (m.t, None));
            }
            Kind::SubmitStart { conn } => in_submit = Some(conn),
            Kind::SubmitEnd => {
                if let Some((_, submitted)) = in_submit.take().and_then(|c| open.get_mut(&c)) {
                    *submitted = Some(m.t);
                }
            }
            Kind::CycleEnd { conn } => {
                if let Some((start, submitted)) = open.remove(&conn) {
                    out.push(CycleSpan {
                        conn,
                        start,
                        end: m.t,
                        submitted: submitted.unwrap_or(m.t),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// `(from, to, on_server)`: a stretch of a cycle and the thread it
/// waits on.
pub type Piece = (u64, u64, bool);

/// Which thread the cycle waits on, as `(from, to, on_server)` pieces
/// covering `[cycle.start, cycle.end)`.
///
/// The client holds the cycle until its submit returns, and again from
/// the end of every server send the client must act on (an
/// `UpdateRequest` it answers with an `Update`, the final
/// `JobComplete`) until it has acted. The rest of the time the cycle
/// waits on the server.
pub fn holders(cycle: &CycleSpan, server_marks: &[Mark], client_marks: &[Mark]) -> Vec<Piece> {
    // (time, +1 server hands the client work / -1 client answers)
    let mut events: Vec<(u64, i32)> = Vec::new();
    let mut sends = |marks: &[Mark], wanted: &[u8], delta: i32| {
        let first = marks.partition_point(|m| m.t < cycle.start);
        let mut pending_tag = None;
        for m in &marks[first..] {
            if m.t > cycle.end {
                break;
            }
            match m.kind {
                Kind::SendStart { conn, tag } if conn == cycle.conn => pending_tag = Some(tag),
                Kind::SendEnd { conn }
                    if conn == cycle.conn
                        && pending_tag.take().is_some_and(|t| wanted.contains(&t)) =>
                {
                    events.push((m.t, delta));
                }
                _ => {}
            }
        }
    };
    sends(server_marks, &[tag::UPDATE_REQUEST, tag::JOB_COMPLETE], 1);
    sends(client_marks, &[tag::UPDATE], -1);
    events.sort_unstable();

    // Cut points with the holder from each cut on.
    let mut cuts = vec![(cycle.start, false), (cycle.submitted, true)];
    let mut owed = 0i32;
    for (t, delta) in events {
        owed = (owed + delta).max(0);
        cuts.push((t.clamp(cycle.submitted, cycle.end), owed == 0));
    }
    cuts.push((cycle.end, true));
    let mut out: Vec<Piece> = Vec::new();
    for pair in cuts.windows(2) {
        let ((from, on_server), (to, _)) = (pair[0], pair[1]);
        if to > from {
            out.push((from, to, on_server));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(t: u64, kind: Kind) -> Mark {
        Mark { t, kind }
    }

    #[test]
    fn handler_phase_runs_until_the_next_send_and_blocked_receives_are_split_out() {
        let marks = [
            m(0, Kind::PollStart),
            m(1, Kind::RecvStart { conn: 0 }),
            m(11, Kind::RecvEnd { conn: 0, tag: None }),
            m(12, Kind::RecvStart { conn: 1 }),
            m(
                13,
                Kind::RecvEnd {
                    conn: 1,
                    tag: Some(tag::UPDATE),
                },
            ),
            m(14, Kind::Received { tag: tag::UPDATE }),
            m(20, Kind::PersistStart),
            m(22, Kind::PersistEnd),
            m(23, Kind::SendStart { conn: 1, tag: 0x83 }),
            m(24, Kind::SendEnd { conn: 1 }),
            m(25, Kind::PollEnd),
        ];
        let mut total = BTreeMap::new();
        attribute(&segments(&marks, true), 0, 25, &mut total);
        assert_eq!(total["tcp.recv_blocked"], 10);
        assert_eq!(total["tcp.recv"], 1);
        assert_eq!(total["server.update"], 6);
        assert_eq!(total["store.persist"], 2);
        assert_eq!(total["tcp.send"], 1);
        assert_eq!(total["runtime.poll"], 5);
        assert_eq!(total.values().sum::<u64>(), 25);
    }

    #[test]
    fn the_cycle_waits_on_the_client_between_a_pull_request_and_its_answer() {
        let cycle = CycleSpan {
            conn: 0,
            start: 0,
            end: 100,
            submitted: 10,
        };
        let server = [
            m(
                20,
                Kind::SendStart {
                    conn: 0,
                    tag: tag::UPDATE_REQUEST,
                },
            ),
            m(21, Kind::SendEnd { conn: 0 }),
            m(
                60,
                Kind::SendStart {
                    conn: 0,
                    tag: tag::JOB_COMPLETE,
                },
            ),
            m(62, Kind::SendEnd { conn: 0 }),
        ];
        let client = [
            m(
                40,
                Kind::SendStart {
                    conn: 0,
                    tag: tag::UPDATE,
                },
            ),
            m(45, Kind::SendEnd { conn: 0 }),
        ];
        assert_eq!(
            holders(&cycle, &server, &client),
            vec![
                (0, 10, false),
                (10, 21, true),
                (21, 45, false),
                (45, 62, true),
                (62, 100, false)
            ]
        );
    }
}
