//! The deployments under test, launched through the real `fannr` CLI.
//! Flags are fixed here and identical on every commit.
//!
//! * indexed: `fannr build-index --nodes N --seed 7 --out DIR` (graph.v2,
//!   labels.v2 and gtree.v2, so nothing builds in the background), then
//!   `fannr serve --index DIR --workers 2 --cache-capacity 1024`;
//! * index-free: `fannr serve --nodes N --seed 7 --workers 2` (the
//!   out-of-the-box default, cache off);
//! * routed: the index as above, `fannr partition --shards 2`, two
//!   `fannr serve --index DIR --shard-id i --shard-map MAP` on the same
//!   index directory, and `fannr route` in front.
//!
//! No deadline, no batch window.

use crate::inputs::GRAPH_SEED;
use crate::proc::{free_addr, wait_ready, Proc};
use crate::wire::{self, Conn};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;
pub const CACHE_CAPACITY: usize = 1024;
pub const SHARDS: usize = 2;
const BUILD_TIMEOUT: Duration = Duration::from_secs(120);
const READY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    Indexed,
    IndexFree,
    Routed,
    /// One server on the index directory with the cache off: the single
    /// node the routed tier is compared against in the traced run.
    IndexedUncached,
}

/// A running tier. Dropping it kills whatever is still alive.
pub struct Tier {
    /// Where clients connect (the server, or the router).
    pub front: SocketAddr,
    /// Shard servers behind the router; empty otherwise.
    pub shards: Vec<SocketAddr>,
    servers: Vec<Proc>,
    /// Wall time from launching the first child until the tier answered
    /// its first `health`.
    pub setup: Duration,
    /// Wall time of the `build-index` child alone (zero without index).
    pub build_index: Duration,
}

fn s(x: impl ToString) -> String {
    x.to_string()
}

impl Tier {
    /// Launch `deployment` on the `nodes`-node dataset, with files under
    /// `dir` (index, shard map, child logs).
    pub fn launch(
        fannr: &Path,
        deployment: Deployment,
        nodes: usize,
        dir: &Path,
    ) -> io::Result<Tier> {
        std::fs::create_dir_all(dir)?;
        let log = dir.join("children.log");
        let index: PathBuf = dir.join("index");
        let began = Instant::now();
        let mut build_index = Duration::ZERO;
        if deployment != Deployment::IndexFree && !index.join("labels.v2").exists() {
            let args = [
                s("build-index"),
                s("--nodes"),
                s(nodes),
                s("--seed"),
                s(GRAPH_SEED),
                s("--out"),
                s(index.display()),
            ];
            Proc::run_to_end(fannr, &args, &log, BUILD_TIMEOUT)?;
            build_index = began.elapsed();
        }
        let serve_index = |extra: &[String]| -> io::Result<(Proc, SocketAddr)> {
            let addr = free_addr()?;
            let mut args = vec![
                s("serve"),
                s("--index"),
                s(index.display()),
                s("--workers"),
                s(WORKERS),
                s("--addr"),
                s(addr),
            ];
            args.extend_from_slice(extra);
            Ok((Proc::spawn(fannr, &args, &log)?, addr))
        };
        let mut servers = Vec::new();
        let mut shards = Vec::new();
        let front = match deployment {
            Deployment::Indexed => {
                let (p, addr) = serve_index(&[s("--cache-capacity"), s(CACHE_CAPACITY)])?;
                servers.push(p);
                addr
            }
            Deployment::IndexedUncached => {
                let (p, addr) = serve_index(&[])?;
                servers.push(p);
                addr
            }
            Deployment::IndexFree => {
                let addr = free_addr()?;
                let args = [
                    s("serve"),
                    s("--nodes"),
                    s(nodes),
                    s("--seed"),
                    s(GRAPH_SEED),
                    s("--workers"),
                    s(WORKERS),
                    s("--addr"),
                    s(addr),
                ];
                servers.push(Proc::spawn(fannr, &args, &log)?);
                addr
            }
            Deployment::Routed => {
                let map = dir.join("shards.v2");
                let graph = [s("--nodes"), s(nodes), s("--seed"), s(GRAPH_SEED)];
                let mut args = vec![s("partition")];
                args.extend_from_slice(&graph);
                args.extend([s("--shards"), s(SHARDS), s("--out"), s(map.display())]);
                Proc::run_to_end(fannr, &args, &log, BUILD_TIMEOUT)?;
                for id in 0..SHARDS {
                    let (p, addr) =
                        serve_index(&[s("--shard-id"), s(id), s("--shard-map"), s(map.display())])?;
                    servers.push(p);
                    shards.push(addr);
                }
                let addr = free_addr()?;
                let list: Vec<String> = shards.iter().map(s).collect();
                let mut args = vec![s("route")];
                args.extend_from_slice(&graph);
                args.extend([
                    s("--shard-map"),
                    s(map.display()),
                    s("--shard-addrs"),
                    list.join(","),
                    s("--addr"),
                    s(addr),
                ]);
                servers.push(Proc::spawn(fannr, &args, &log)?);
                addr
            }
        };
        // The router's `health` asks every shard, so one probe covers
        // the whole tier.
        wait_ready(front, READY_TIMEOUT)?;
        Ok(Tier {
            front,
            shards,
            servers,
            setup: began.elapsed(),
            build_index,
        })
    }

    /// Sum of `VmHWM` over the tier's server processes, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.servers.iter().map(Proc::peak_rss_kb).sum::<u64>() as f64 / 1024.0
    }

    /// Wire `shutdown`, then wait for every child to drain and exit. A
    /// child that does not is killed when the tier drops; `false` says
    /// the drain was not clean.
    pub fn shutdown(self) -> bool {
        let acked = Conn::connect(self.front)
            .and_then(|mut c| {
                c.call(wire::SHUTDOWN)
                    .map(|line| crate::json::str_field(line, "status") == Some("bye"))
            })
            .unwrap_or(false);
        let drained = self
            .servers
            .iter()
            .all(|p| p.wait_exit(Duration::from_secs(5)) == Some(true));
        acked && drained
    }
}
