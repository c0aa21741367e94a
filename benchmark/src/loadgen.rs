//! The load generator: one thread per connection, never more than two.
//!
//! * **Closed loop** — one request outstanding per connection; the next
//!   is sent when the reply arrives. This is how the tier's real callers
//!   behave (application back-ends and the router wait for replies).
//! * **Open loop** — requests leave on a fixed schedule whatever the
//!   server does. Latency is timed from the instant a request was *due*,
//!   so a stall (of the server or of this generator) shows up as latency
//!   on every request it delayed; how late the generator itself ran is
//!   reported separately.
//!
//! Latencies are exact `Instant` nanoseconds.

use crate::inputs::Inputs;
use crate::wire::{self, Answer, Conn, Reply};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How long the open loop waits for stragglers after its last send. A
/// reply that has not come by then is a failure, never a hang.
const OPEN_GRACE: Duration = Duration::from_secs(2);
/// Most requests one open-loop connection keeps in flight. The servers
/// admit 64 queries and shed the rest; after a stall (of either side) the
/// requests that fell due meanwhile would otherwise leave in one burst,
/// overflow that queue and turn a hiccup into failed requests. Holding a
/// connection at 24 keeps two of them under the 64. A held-back request
/// is still timed from when it was due, so the wait is charged, not
/// hidden, and a server too slow for the rate shows as growing latency.
const MAX_IN_FLIGHT: usize = 24;

/// A client-side span: one request as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct ClientSpan {
    pub id: u64,
    pub start: Instant,
    pub end: Instant,
    /// Server-reported service time (`micros`), a child of this span.
    pub service_us: u64,
}

/// What one phase on one connection measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    /// Shed, cancelled, error, upstream, transport failure, missing reply.
    pub failed: u64,
    /// A repeated request answered differently from its first answer.
    pub inconsistent: u64,
    /// Client latency of every correct answer, nanoseconds.
    pub latency_ns: Vec<u64>,
    /// When each of those answers arrived, same order.
    pub done: Vec<Instant>,
    /// Open loop only: send time minus due time, nanoseconds.
    pub late_ns: Vec<u64>,
    /// When the phase began (the earliest lane, after a merge).
    pub began: Option<Instant>,
    pub elapsed: Duration,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.inconsistent += other.inconsistent;
        self.latency_ns.extend(other.latency_ns);
        self.done.extend(other.done);
        self.late_ns.extend(other.late_ns);
        self.began = match (self.began, other.began) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    pub fn correct(&self) -> u64 {
        self.latency_ns.len() as u64
    }
}

/// The open loop's send schedule as a pure function of time: request `i`
/// is due at `start + i × period`, whenever it actually gets sent.
#[derive(Debug, Clone)]
pub struct Pacer {
    start: Instant,
    period: Duration,
    end: Instant,
    sent: u32,
}

impl Pacer {
    pub fn new(start: Instant, rate_per_s: f64, end: Instant) -> Pacer {
        Pacer {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
            end,
            sent: 0,
        }
    }

    /// Due time of the next request, `None` once the schedule is over.
    pub fn next_due(&self) -> Option<Instant> {
        let due = self.start + self.period * self.sent;
        (due < self.end).then_some(due)
    }

    /// If a request is due at `now`, take it and return its due time. A
    /// caller that was stalled gets every request it missed, one per
    /// call, each with the due time it had all along.
    pub fn pop_due(&mut self, now: Instant) -> Option<Instant> {
        let due = self.next_due().filter(|&due| due <= now)?;
        self.sent += 1;
        Some(due)
    }

    /// Requests of the schedule not taken yet.
    pub fn remaining(&self) -> u64 {
        let span = self.end.saturating_duration_since(self.start).as_nanos();
        let total = span.div_ceil(self.period.as_nanos().max(1)) as u64;
        total.saturating_sub(u64::from(self.sent))
    }
}

/// One connection and its place in the request schedule. It lives across
/// warm-up, closed and open phases, as a real caller's connection would.
pub struct Lane<'a> {
    conn: Conn,
    inputs: &'a Inputs,
    /// Next position in `inputs.schedule`.
    pos: usize,
    stride: usize,
    next_id: u64,
    line: String,
    /// First answer seen per distinct query, when answers must repeat.
    seen: Option<Vec<Option<Answer>>>,
    /// Client-side spans, when the traced run asks for them.
    pub spans: Option<Vec<ClientSpan>>,
}

impl<'a> Lane<'a> {
    /// Lane `lane` of `lanes`. `check_repeats`: identical requests must
    /// get identical answers (off while updates change the epoch).
    pub fn new(
        conn: Conn,
        inputs: &'a Inputs,
        lane: usize,
        lanes: usize,
        check_repeats: bool,
    ) -> Lane<'a> {
        Lane {
            conn,
            inputs,
            pos: lane,
            stride: lanes,
            next_id: (lane as u64) << 40,
            line: String::new(),
            seen: check_repeats.then(|| vec![None; inputs.queries.len()]),
            spans: None,
        }
    }

    /// The distinct query each answer seen so far belongs to.
    pub fn seen(&self) -> Option<&[Option<Answer>]> {
        self.seen.as_deref()
    }

    /// Encode the next scheduled request; returns `(id, query index)`.
    fn next_request(&mut self) -> (u64, usize) {
        let schedule = &self.inputs.schedule;
        let request = &self.inputs.requests[schedule[self.pos % schedule.len()] as usize];
        self.pos += self.stride;
        let id = self.next_id;
        self.next_id += 1;
        wire::finish_request(&mut self.line, &request.prefix, id);
        (id, request.query)
    }

    /// Book one reply line against the request it answers.
    fn book(
        &mut self,
        reply: Reply,
        query: usize,
        since: Instant,
        now: Instant,
        id: u64,
        out: &mut Phase,
    ) {
        if reply != Reply::Failed {
            out.latency_ns.push((now - since).as_nanos() as u64);
            out.done.push(now);
        }
        let answer = match reply {
            Reply::Answer {
                dist,
                p_star,
                micros,
            } => {
                if let Some(spans) = &mut self.spans {
                    spans.push(ClientSpan {
                        id,
                        start: since,
                        end: now,
                        service_us: micros,
                    });
                }
                Some((dist, p_star))
            }
            Reply::Empty => None,
            Reply::Failed => {
                out.failed += 1;
                return;
            }
        };
        if let Some(seen) = &mut self.seen {
            match seen[query] {
                None => seen[query] = Some(answer),
                Some(first) if first != answer => out.inconsistent += 1,
                Some(_) => {}
            }
        }
    }

    /// Closed loop until `until`.
    pub fn closed(&mut self, until: Instant) -> Phase {
        let began = Instant::now();
        let mut out = Phase {
            began: Some(began),
            ..Phase::default()
        };
        while Instant::now() < until {
            let (id, query) = self.next_request();
            out.attempted += 1;
            let sent = Instant::now();
            let reply = match self.conn.call(&self.line) {
                Ok(line) => match wire::decode_reply(line) {
                    (Some(got), reply) if got == id => reply,
                    _ => Reply::Failed,
                },
                // The connection is gone (a dead child): every further
                // request would fail the same way, so stop here.
                Err(_) => {
                    out.failed += 1;
                    break;
                }
            };
            self.book(reply, query, sent, Instant::now(), id, &mut out);
        }
        out.elapsed = began.elapsed();
        out
    }

    /// Open loop: `rate_per_s` requests per second on this connection
    /// from `start` until `until`, then wait for the stragglers.
    pub fn open(&mut self, start: Instant, rate_per_s: f64, until: Instant) -> Phase {
        let mut out = Phase {
            began: Some(start),
            ..Phase::default()
        };
        let mut pacer = Pacer::new(start, rate_per_s, until);
        // (id, query, due) of requests in flight, in send order.
        let mut in_flight: VecDeque<(u64, usize, Instant)> = VecDeque::new();
        loop {
            let now = Instant::now();
            let held = in_flight.len() >= MAX_IN_FLIGHT;
            let due = if held { None } else { pacer.pop_due(now) };
            if let Some(due) = due {
                let (id, query) = self.next_request();
                out.attempted += 1;
                out.late_ns.push((now - due).as_nanos() as u64);
                if self.conn.send(&self.line).is_err() {
                    out.failed += 1 + in_flight.len() as u64;
                    in_flight.clear();
                    break;
                }
                in_flight.push_back((id, query, due));
                continue;
            }
            let wake = match pacer.next_due() {
                Some(due) if !held => due,
                None if in_flight.is_empty() => break,
                _ => now.max(until) + OPEN_GRACE,
            };
            match self.conn.recv(Some(wake)) {
                Ok(Some(line)) => {
                    let now = Instant::now();
                    let (got, reply) = wire::decode_reply(line);
                    // Two workers may answer out of order: match by id.
                    let slot = got.and_then(|g| in_flight.iter().position(|&(id, ..)| id == g));
                    match slot.and_then(|i| in_flight.remove(i)) {
                        Some((id, query, due)) => self.book(reply, query, due, now, id, &mut out),
                        None => out.failed += 1,
                    }
                }
                Ok(None) if pacer.next_due().is_some() && !held => {}
                // Grace over, or the connection died: what is still in
                // flight never got an answer, and what is still to be
                // sent never will.
                Ok(None) | Err(_) => break,
            }
        }
        out.attempted += pacer.remaining();
        out.failed += in_flight.len() as u64 + pacer.remaining();
        out.elapsed = start.elapsed();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_keeps_due_times_through_a_stall() {
        let start = Instant::now();
        let ms = Duration::from_millis;
        let mut pacer = Pacer::new(start, 1000.0, start + ms(10));
        // Nothing is due before the start.
        assert_eq!(pacer.pop_due(start - ms(1)), None);
        assert_eq!(pacer.pop_due(start), Some(start));
        // The sender stalls for 5 ms. Requests 1..=5 became due meanwhile
        // and come out with their own due times, not the wake-up time, so
        // a reply at `woke` is charged 4, 3, 2, 1, 0 ms of waiting.
        let woke = start + ms(5);
        let dues: Vec<Instant> = std::iter::from_fn(|| pacer.pop_due(woke)).collect();
        assert_eq!(dues, (1..=5).map(|i| start + ms(i)).collect::<Vec<_>>());
        assert_eq!(woke - dues[0], ms(4));
        // The rest of the schedule is unmoved by the stall.
        assert_eq!(pacer.next_due(), Some(start + ms(6)));
        // The schedule ends at `end`: 10 requests in all, then none.
        let late = start + ms(100);
        assert_eq!(pacer.remaining(), 4);
        assert_eq!(std::iter::from_fn(|| pacer.pop_due(late)).count(), 4);
        assert_eq!((pacer.next_due(), pacer.remaining()), (None, 0));
    }

    /// A server that reads nothing for a while: the open loop must charge
    /// the stall to every request that was due during it.
    #[test]
    fn open_loop_charges_a_server_stall_to_the_requests_it_delayed() {
        use crate::inputs::{generate, InputSpec, Mix, QShape, Repeat};
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;

        let inputs = generate(
            &InputSpec {
                nodes: 400,
                distinct: 4,
                q_shape: QShape::Uniform { coverage: 0.3 },
                mix: Mix::Cycled,
                repeat: Repeat::Cycle,
            },
            1,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = Duration::from_millis(150);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            std::thread::sleep(stall);
            for line in BufReader::new(stream).lines() {
                let line = line.unwrap();
                let id = crate::json::str_field(&line, "id").unwrap().to_string();
                let reply = format!(
                    "{{\"status\":\"ok\",\"id\":\"{id}\",\"p_star\":1,\"dist\":2,\"micros\":3}}\n"
                );
                if writer.write_all(reply.as_bytes()).is_err() {
                    break;
                }
            }
        });
        let mut lane = Lane::new(Conn::connect(addr).unwrap(), &inputs, 0, 1, false);
        let start = Instant::now();
        let phase = lane.open(start, 200.0, start + Duration::from_millis(300));
        drop(lane);
        server.join().unwrap();
        assert_eq!(phase.attempted, 60);
        assert_eq!((phase.failed, phase.correct()), (0, 60));
        // The first request was due at 0 and answered after the stall.
        assert!(phase.latency_ns[0] >= stall.as_nanos() as u64);
        // Those due after the stall are answered at once.
        assert!(*phase.latency_ns.last().unwrap() < stall.as_nanos() as u64 / 2);
    }
}
