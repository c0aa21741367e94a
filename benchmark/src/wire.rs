//! The client side of the line-JSON wire protocol, written from the
//! protocol grammar and nothing else: request encoders, a reply decoder
//! built on [`crate::json`], and a line-oriented TCP connection whose
//! reads can time out without losing a partial line.

use crate::json;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Max,
    Sum,
}

impl Agg {
    pub fn name(self) -> &'static str {
        match self {
            Agg::Max => "max",
            Agg::Sum => "sum",
        }
    }
}

/// A `query` request up to, but not including, its `id`: finish it with
/// [`finish_request`]. Splitting it lets the load generator encode each
/// distinct query once and stamp the per-request id at send time.
pub fn query_prefix(p: &[u32], q: &[u32], phi: f64, agg: Agg) -> String {
    let mut s = String::with_capacity(16 + 7 * (p.len() + q.len()));
    s.push_str(r#"{"op":"query","p":"#);
    json::push_ids(&mut s, p);
    s.push_str(r#","q":"#);
    json::push_ids(&mut s, q);
    s.push_str(&format!(r#","phi":{phi},"agg":"{}""#, agg.name()));
    s
}

/// An `update` request up to its `id`: `edges` are `(u, v, w)`.
pub fn update_prefix(edges: &[(u32, u32, u32)]) -> String {
    let mut s = String::from(r#"{"op":"update","updates":["#);
    for (i, (u, v, w)) in edges.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(r#"{{"u":{u},"v":{v},"w":{w}}}"#));
    }
    s.push(']');
    s
}

/// Append `,"id":"<id>"}\n` to a request prefix.
pub fn finish_request(out: &mut String, prefix: &str, id: u64) {
    use std::fmt::Write;
    out.clear();
    out.push_str(prefix);
    let _ = writeln!(out, r#","id":"{id}"}}"#);
}

pub const HEALTH: &str = "{\"op\":\"health\"}\n";
pub const METRICS: &str = "{\"op\":\"metrics\"}\n";
pub const SHUTDOWN: &str = "{\"op\":\"shutdown\"}\n";

/// An answer as the benchmark compares it: `(dist, p_star)`, or `None`
/// for `empty`.
pub type Answer = Option<(u64, u32)>;

/// What the load generator needs from one reply line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// `status:"ok"`: the answer and the server-reported service time.
    Answer { dist: u64, p_star: u32, micros: u64 },
    /// `status:"empty"`: no data point reaches enough of `Q`.
    Empty,
    /// shed, cancelled, error, upstream, or a line that is not a reply.
    Failed,
}

/// Decode a query reply and the id it echoes.
pub fn decode_reply(line: &str) -> (Option<u64>, Reply) {
    let id = json::str_field(line, "id").and_then(|s| s.parse().ok());
    let reply = match json::str_field(line, "status") {
        Some("ok") => match (
            json::u64_field(line, "dist"),
            json::u64_field(line, "p_star").and_then(|v| u32::try_from(v).ok()),
        ) {
            (Some(dist), Some(p_star)) => Reply::Answer {
                dist,
                p_star,
                micros: json::u64_field(line, "micros").unwrap_or(0),
            },
            _ => Reply::Failed,
        },
        Some("empty") => Reply::Empty,
        _ => Reply::Failed,
    };
    (id, reply)
}

/// How long a blocking read waits before the peer counts as dead.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

mod sys {
    //! `ppoll(2)`, declared here because `std` offers no way to wait for
    //! a socket with a sub-millisecond timeout: `SO_RCVTIMEO` is rounded
    //! to scheduler ticks (4 to 10 ms), which would make the open loop
    //! send that late. `ppoll` sleeps on a high-resolution timer.
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 1;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Wait until `stream` has bytes to read (or has closed), at most for
/// `wait`. `false` means the time ran out.
fn readable_within(stream: &TcpStream, wait: Duration) -> bool {
    use std::os::fd::AsRawFd;
    let mut fd = sys::PollFd {
        fd: stream.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    };
    let timeout = sys::Timespec {
        tv_sec: wait.as_secs() as _,
        tv_nsec: wait.subsec_nanos() as _,
    };
    // SAFETY: `fd` and `timeout` are live, properly laid out values for
    // the whole call, `nfds` is 1 to match the single `PollFd`, and a
    // null signal mask is allowed (the mask is left unchanged).
    let ready = unsafe { sys::ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    // An error (EINTR) reads as "not yet": the caller re-checks its clock.
    ready > 0
}

/// One protocol connection. Reads go through an own buffer, so a read
/// that times out mid-line keeps the bytes it already has.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    head: usize,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        // A coarse safety net for blocking reads; precise deadlines go
        // through `ppoll`.
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            head: 0,
            line: String::new(),
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(line.as_bytes())
    }

    /// Move the next complete line of `buf` into `line`.
    fn take_line(&mut self) -> bool {
        let Some(len) = self.buf[self.head..].iter().position(|&c| c == b'\n') else {
            return false;
        };
        let bytes = &self.buf[self.head..self.head + len];
        self.line.clear();
        self.line
            .push_str(String::from_utf8_lossy(bytes).trim_end());
        self.head += len + 1;
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        }
        true
    }

    /// The next reply line. With a `deadline`, `Ok(None)` means it passed
    /// first; without one, a peer silent for [`REPLY_TIMEOUT`] is an
    /// error. A closed connection is always an error.
    pub fn recv(&mut self, deadline: Option<Instant>) -> io::Result<Option<&str>> {
        while !self.take_line() {
            if let Some(deadline) = deadline {
                let wait = deadline.saturating_duration_since(Instant::now());
                if wait.is_zero() {
                    return Ok(None);
                }
                if !readable_within(&self.stream, wait) {
                    continue;
                }
            }
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Some(&self.line))
    }

    /// Send one request and wait for one reply line.
    pub fn call(&mut self, request: &str) -> io::Result<&str> {
        self.send(request)?;
        self.recv(None)?
            .ok_or_else(|| io::ErrorKind::TimedOut.into())
    }
}

/// `health` as the benchmark reads it: only `epoch` and `stale` are
/// required, so a wrapped `queued` counter never loses the line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Health {
    pub epoch: u64,
    pub stale: bool,
    /// `queued` read as a float so a wrapped counter is visible.
    pub queued: f64,
}

/// `queued` values above 2^53 cannot be a queue length: the counter
/// wrapped below zero (see the README's known defects).
pub const QUEUED_WRAP: f64 = 9_007_199_254_740_992.0;

pub fn decode_health(line: &str) -> Option<Health> {
    if json::str_field(line, "status") != Some("health") {
        return None;
    }
    Some(Health {
        epoch: json::u64_field(line, "epoch")?,
        stale: json::bool_field(line, "stale")?,
        queued: json::f64_field(line, "queued").unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_what_the_grammar_says() {
        let mut line = String::new();
        finish_request(&mut line, &query_prefix(&[1, 2], &[5], 0.5, Agg::Sum), 9);
        assert_eq!(
            line,
            "{\"op\":\"query\",\"p\":[1,2],\"q\":[5],\"phi\":0.5,\"agg\":\"sum\",\"id\":\"9\"}\n"
        );
        finish_request(&mut line, &update_prefix(&[(3, 9, 120), (1, 2, 7)]), 1);
        assert_eq!(
            line,
            "{\"op\":\"update\",\"updates\":[{\"u\":3,\"v\":9,\"w\":120},{\"u\":1,\"v\":2,\"w\":7}],\"id\":\"1\"}\n"
        );
    }

    #[test]
    fn replies_decode_and_failures_are_failures() {
        let ok = r#"{"status":"ok","id":"4","p_star":484,"dist":535,"subset":[1],"strategy":"x","micros":15}"#;
        assert_eq!(
            decode_reply(ok),
            (
                Some(4),
                Reply::Answer {
                    dist: 535,
                    p_star: 484,
                    micros: 15
                }
            )
        );
        assert_eq!(
            decode_reply(r#"{"status":"empty","id":"5"}"#),
            (Some(5), Reply::Empty)
        );
        for bad in [
            r#"{"status":"shed","id":"6"}"#,
            r#"{"status":"error","error":"x"}"#,
            r#"{"status":"ok","id":"7","dist":1}"#,
            r#"{"status":"ok","id":"7","dist":1,"p_star":99999999999}"#,
            "garbage",
        ] {
            assert_eq!(decode_reply(bad).1, Reply::Failed, "{bad}");
        }
    }

    #[test]
    fn health_survives_a_wrapped_queue_counter() {
        let line = r#"{"status":"health","uptime_ms":5,"inflight":1,"queued":18446744073709552000,"workers":2,"draining":false,"epoch":3,"stale":true}"#;
        let h = decode_health(line).unwrap();
        assert_eq!((h.epoch, h.stale), (3, true));
        assert!(h.queued > QUEUED_WRAP);
        assert_eq!(decode_health(r#"{"status":"metrics","epoch":3}"#), None);
    }
}
