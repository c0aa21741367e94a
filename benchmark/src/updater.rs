//! The write side of `mixed_updates`: one connection that sends update
//! batches on a fixed schedule and, after each acknowledgement, polls
//! `health` until the tier reports the batch's epoch repaired. The
//! interval from acknowledgement to that `health` is the staleness a
//! reader lives with.

use crate::inputs::Inputs;
use crate::json;
use crate::wire::{self, Conn};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const POLL: Duration = Duration::from_millis(20);
/// Longest wait for one repair to land before the cycle is given up.
pub const CONVERGE_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug, Default)]
pub struct UpdaterOut {
    /// Update acknowledgement → first `health` with `stale=false` and
    /// `epoch ≥` the batch's epoch, milliseconds.
    pub staleness_ms: Vec<f64>,
    /// `update` round trip, microseconds.
    pub ack_us: Vec<f64>,
    /// `health` lines whose `queued` cannot be a queue length.
    pub queued_wraps: u64,
    pub attempted: u64,
    /// Batches rejected, unacknowledged, or never seen repaired.
    pub failed: u64,
}

pub struct Updater<'a> {
    conn: Conn,
    inputs: &'a Inputs,
    /// Batches sent so far; batch `k` leaves group `k` doubled.
    sent: usize,
    next_id: u64,
    line: String,
}

impl<'a> Updater<'a> {
    pub fn connect(front: SocketAddr, inputs: &'a Inputs) -> io::Result<Updater<'a>> {
        Ok(Updater {
            conn: Conn::connect(front)?,
            inputs,
            sent: 0,
            next_id: 1 << 60,
            line: String::new(),
        })
    }

    /// Send one batch; on acknowledgement wait for the repair. Returns
    /// `false` when the batch failed or the repair did not land in time.
    fn cycle(&mut self, edges: &[(u32, u32, u32)], record: bool, out: &mut UpdaterOut) -> bool {
        wire::finish_request(&mut self.line, &wire::update_prefix(edges), self.next_id);
        self.next_id += 1;
        out.attempted += 1;
        let sent = Instant::now();
        let epoch = match self.conn.call(&self.line) {
            Ok(line) if json::str_field(line, "status") == Some("updated") => {
                json::u64_field(line, "epoch")
            }
            _ => None,
        };
        let acked = Instant::now();
        let Some(epoch) = epoch else {
            out.failed += 1;
            return false;
        };
        if record {
            out.ack_us.push((acked - sent).as_secs_f64() * 1e6);
        }
        let deadline = acked + CONVERGE_TIMEOUT;
        loop {
            match self.conn.call(wire::HEALTH).map(wire::decode_health) {
                Ok(Some(h)) => {
                    if h.queued > wire::QUEUED_WRAP {
                        out.queued_wraps += 1;
                    }
                    if !h.stale && h.epoch >= epoch {
                        if record {
                            out.staleness_ms.push(acked.elapsed().as_secs_f64() * 1e3);
                        }
                        return true;
                    }
                }
                Ok(None) => {}
                Err(_) => {
                    out.failed += 1;
                    return false;
                }
            }
            if Instant::now() >= deadline {
                out.failed += 1;
                return false;
            }
            std::thread::sleep(POLL);
        }
    }

    /// The unrecorded first cycle: the first repair after a cold start
    /// is an outlier, so it runs before anything is timed.
    pub fn warm(&mut self, out: &mut UpdaterOut) -> bool {
        let batch = self.inputs.update_batch(self.sent);
        self.sent += 1;
        self.cycle(&batch, false, out)
    }

    /// One batch every `period` from `start` until `until`. A repair
    /// that outlasts its period delays the next batch to the following
    /// slot; slots are never made up in a burst.
    pub fn run(&mut self, start: Instant, period: Duration, until: Instant, out: &mut UpdaterOut) {
        let mut slot = 0u32;
        loop {
            let due = start + period * slot;
            if due >= until {
                return;
            }
            let now = Instant::now();
            if now > due + period / 2 {
                slot += 1;
                continue;
            }
            std::thread::sleep(due.saturating_duration_since(now));
            let batch = self.inputs.update_batch(self.sent);
            self.sent += 1;
            if !self.cycle(&batch, true, out) {
                return;
            }
            slot += 1;
        }
    }

    /// Put the seed weights back and wait for fresh labels, so answers
    /// can be verified against the dataset as generated.
    pub fn restore(&mut self, out: &mut UpdaterOut) -> bool {
        if self.sent == 0 {
            return true;
        }
        let batch = self.inputs.restore_batch(self.sent - 1);
        self.cycle(&batch, false, out)
    }
}
