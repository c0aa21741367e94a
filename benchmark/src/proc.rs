//! Child-process supervision: every `fannr` child is registered, killed
//! and reaped when its handle drops (so a panic or a failed assertion
//! never leaves an orphan `fannr serve`/`route`), and a watchdog ends the
//! whole run if it outlives its hard timeout.

use crate::wire::{self, Conn};
use std::fs::File;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

type Shared = Arc<Mutex<Child>>;

/// Every live child, so the watchdog can reach them from its own thread.
fn registry() -> &'static Mutex<Vec<Shared>> {
    static REGISTRY: OnceLock<Mutex<Vec<Shared>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn kill_and_reap(child: &Shared) {
    if let Ok(mut c) = child.lock() {
        let _ = c.kill();
        let _ = c.wait();
    }
}

/// A supervised child process.
pub struct Proc {
    child: Shared,
    pid: u32,
}

impl Proc {
    /// Spawn `program args…` with its output appended to `log`.
    pub fn spawn(program: &Path, args: &[String], log: &Path) -> io::Result<Proc> {
        let out = File::options().create(true).append(true).open(log)?;
        let err = out.try_clone()?;
        let child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()?;
        let pid = child.id();
        let child = Arc::new(Mutex::new(child));
        registry()
            .lock()
            .expect("registry poisoned")
            .push(Arc::clone(&child));
        Ok(Proc { child, pid })
    }

    /// Wait up to `timeout` for the child to exit by itself; `None` when
    /// it is still running.
    pub fn wait_exit(&self, timeout: Duration) -> Option<bool> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.child.lock().expect("child poisoned").try_wait();
            match status {
                Ok(Some(status)) => return Some(status.success()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return None,
            }
        }
    }

    /// Run a child that is expected to finish (e.g. `build-index`).
    pub fn run_to_end(
        program: &Path,
        args: &[String],
        log: &Path,
        timeout: Duration,
    ) -> io::Result<()> {
        let p = Proc::spawn(program, args, log)?;
        match p.wait_exit(timeout) {
            Some(true) => Ok(()),
            Some(false) => Err(io::Error::other(format!(
                "`fannr {}` failed; see {}",
                args.join(" "),
                log.display()
            ))),
            None => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("`fannr {}` did not finish", args.join(" ")),
            )),
        }
    }

    /// Peak resident set size so far (`VmHWM`), in kB; 0 once the process
    /// is gone.
    pub fn peak_rss_kb(&self) -> u64 {
        let Ok(status) = std::fs::read_to_string(format!("/proc/{}/status", self.pid)) else {
            return 0;
        };
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse().ok())
            .unwrap_or(0)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        kill_and_reap(&self.child);
        if let Ok(mut all) = registry().lock() {
            all.retain(|c| !Arc::ptr_eq(c, &self.child));
        }
    }
}

/// Kill every child and exit with code 3 if the process is still alive
/// after `limit`. The thread is detached on purpose: it must outlive any
/// hang on the main thread.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "fannr-bench: hard timeout after {:.0} s, killing children",
            limit.as_secs_f64()
        );
        if let Ok(all) = registry().lock() {
            all.iter().for_each(kill_and_reap);
        }
        std::process::exit(3);
    });
}

/// A port that was free a moment ago. The listener is dropped before the
/// child binds it; the window is small and a collision fails the
/// readiness check rather than going unnoticed.
pub fn free_addr() -> io::Result<SocketAddr> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.local_addr()
}

/// Poll `addr` until it answers a `health` request with `status:"health"`.
/// Polls every millisecond so the set-up time it bounds is resolved finely.
pub fn wait_ready(addr: SocketAddr, timeout: Duration) -> io::Result<()> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(mut conn) = Conn::connect(addr) {
            if let Ok(line) = conn.call(wire::HEALTH) {
                if wire::decode_health(line).is_some() {
                    return Ok(());
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{addr} never answered health"),
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
