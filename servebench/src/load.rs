//! Load generation over real TCP: closed-loop and open-loop streams, each on
//! its own kept-alive `Client` connection, recording every request.

use crate::inputs::Query;
use crate::stats::{due_timing, Schedule};
use crate::trace::ns;
use rcw_core::DisturbReport;
use rcw_server::client::Client;
use rcw_server::wire;
use std::collections::HashMap;
use std::time::Instant;

/// What a request was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A set-up store warm-up `/generate` (a store miss).
    Setup,
    /// A `/generate` of a stored query (a store hit).
    Warm,
    /// A `/generate` of a never-seen query (a store miss).
    Cold,
    /// A `/disturb`.
    Write,
}

/// One request as the client saw it. Times are trace-clock nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub kind: Kind,
    /// Index of the query in its input list (the write index for writes).
    pub query: u32,
    /// When it was due: the send time on closed-loop streams.
    pub due: u64,
    pub sent: u64,
    pub received: u64,
    /// HTTP status; 0 when no answer arrived.
    pub status: u16,
    /// Index of the answer in the stream's answer table.
    pub answer: u32,
}

impl Record {
    /// Round trip from due time, in nanoseconds.
    pub fn latency(&self) -> u64 {
        due_timing(self.due, self.sent, self.received).latency
    }

    /// How late the generator sent it, in nanoseconds.
    pub fn late(&self) -> u64 {
        due_timing(self.due, self.sent, self.received).late
    }

    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// One connection's requests plus its distinct answers: `/generate` bodies
/// are interned (a store hit answers the same bytes every time), `/disturb`
/// reports are kept in order.
#[derive(Default)]
pub struct Stream {
    pub records: Vec<Record>,
    pub bodies: Vec<String>,
    index: HashMap<String, u32>,
    pub reports: Vec<DisturbReport>,
    /// Failures, with what went wrong.
    pub errors: Vec<String>,
}

impl Stream {
    fn answer(&mut self, text: String) -> u32 {
        if let Some(&i) = self.index.get(&text) {
            return i;
        }
        let i = self.bodies.len() as u32;
        self.index.insert(text.clone(), i);
        self.bodies.push(text);
        i
    }

    /// Sends one `/generate` with a prebuilt body and records it.
    pub fn send_generate(
        &mut self,
        client: &mut Client,
        kind: Kind,
        query: usize,
        body: &str,
        due: Instant,
    ) {
        let sent = Instant::now();
        let outcome = client.generate_text(body);
        let received = Instant::now();
        let (status, answer) = match outcome {
            Ok((status, text)) => {
                if status != 200 {
                    self.errors
                        .push(format!("{kind:?} {query}: status {status}: {text}"));
                }
                (status, self.answer(text))
            }
            Err(e) => {
                self.errors.push(format!("{kind:?} {query}: {e}"));
                (0, u32::MAX)
            }
        };
        self.records.push(Record {
            kind,
            query: query as u32,
            due: ns(due),
            sent: ns(sent),
            received: ns(received),
            status,
            answer,
        });
    }

    /// Sends one `/disturb` flipping `pair` and records it.
    fn disturb(&mut self, client: &mut Client, write: usize, pair: (usize, usize), due: Instant) {
        let sent = Instant::now();
        let outcome = client.disturb(&[pair]);
        let received = Instant::now();
        let (status, answer) = match outcome {
            Ok(report) => {
                self.reports.push(report);
                (200, (self.reports.len() - 1) as u32)
            }
            Err(e) => {
                self.errors.push(format!("write {write}: {e}"));
                (0, u32::MAX)
            }
        };
        self.records.push(Record {
            kind: Kind::Write,
            query: write as u32,
            due: ns(due),
            sent: ns(sent),
            received: ns(received),
            status,
            answer,
        });
    }
}

/// The `/generate` request body of a query, as `Client::generate` builds it.
pub fn body(query: &Query) -> String {
    wire::versioned(wire::Json::obj([(
        "nodes",
        wire::Json::nums(query.iter().copied()),
    )]))
    .encode()
}

/// Where a stream sends: the server address and the engine route.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub addr: &'a str,
    pub route: Option<&'a str>,
}

impl Target<'_> {
    pub fn connect(&self) -> Client {
        let mut client = Client::connect(self.addr).expect("connect to the in-process server");
        client.set_route(self.route);
        client
    }
}

/// Closed loop: `next()` names the next query; send, wait, repeat until
/// `end`. Each request is timed from its send.
pub fn closed_loop(
    target: Target<'_>,
    stream: &mut Stream,
    kind: Kind,
    bodies: &[String],
    mut next: impl FnMut() -> Option<usize>,
    end: Instant,
) {
    let mut client = target.connect();
    while Instant::now() < end {
        let Some(query) = next() else { break };
        let due = Instant::now();
        stream.send_generate(&mut client, kind, query, &bodies[query], due);
    }
}

/// Sleeps until `due` (no-op when already late).
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Open loop of `/generate` reads: request `i` is due at `schedule.due(i)`
/// and is sent then, or at once if the previous one is still outstanding.
pub fn open_reads(
    target: Target<'_>,
    stream: &mut Stream,
    schedule: Schedule,
    bodies: &[String],
    mut next: impl FnMut() -> usize,
) {
    let mut client = target.connect();
    for i in 0..schedule.count {
        let due = schedule.due(i);
        wait_until(due);
        let query = next();
        stream.send_generate(&mut client, Kind::Warm, query, &bodies[query], due);
    }
}

/// Open loop of `/disturb` writes, numbered from `first`. Write `2j` flips
/// `flips[j]`; write `2j + 1` flips it back. After every restore, `edges()`
/// must read `base`: a failed check is recorded as an error.
pub fn open_writes(
    target: Target<'_>,
    stream: &mut Stream,
    schedule: Schedule,
    first: usize,
    flips: &[(usize, usize)],
    edges: &dyn Fn() -> usize,
    base: usize,
) {
    let mut client = target.connect();
    for i in 0..schedule.count {
        let w = first + i;
        let due = schedule.due(i);
        wait_until(due);
        stream.disturb(&mut client, w, flips[w / 2], due);
        if w % 2 == 1 && edges() != base {
            stream.errors.push(format!(
                "write {w}: edge count {} after restore, base {base}",
                edges()
            ));
        }
    }
}

/// Answered requests per second over the records appended to `streams`
/// since `marks` (their earlier lengths): first send to last answer.
pub fn rate(streams: &[Stream], marks: [usize; 2]) -> f64 {
    let new = || streams.iter().zip(marks).flat_map(|(s, m)| &s.records[m..]);
    let first = new().map(|r| r.sent).min().unwrap_or(0);
    let last = new().map(|r| r.received).max().unwrap_or(0);
    let answered = new().filter(|r| r.ok()).count();
    let secs = last.saturating_sub(first) as f64 / 1e9;
    if secs > 0.0 {
        answered as f64 / secs
    } else {
        0.0
    }
}
