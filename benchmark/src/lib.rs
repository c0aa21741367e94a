//! `fannr-bench`: a black-box benchmark for `fannr`.
//!
//! Everything here treats `fannr` as a program: it is launched through
//! its CLI ([`tier`], [`proc`]) and spoken to over the line-JSON wire
//! protocol with this crate's own codec ([`wire`], [`json`]), so the
//! instrument does not get faster or slower when `fannr-serve`'s client
//! or parser code changes. The only repository code the library links is
//! `workload` + `roadnet::Graph`, for generating inputs ([`inputs`]) and
//! for the naive reference that verifies answers ([`reference`]).

pub mod compare;
pub mod inputs;
pub mod json;
pub mod loadgen;
pub mod proc;
pub mod reference;
pub mod run;
pub mod stats;
pub mod tier;
pub mod updater;
pub mod wire;
pub mod workloads;

use std::collections::HashMap;

/// `--key value` pairs; a key without a value reads as `"true"`.
/// Arguments before the first `--key` are returned as positionals.
pub fn parse_args(args: impl Iterator<Item = String>) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut opts = HashMap::new();
    let mut it = args.peekable();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(key) => {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                opts.insert(key.to_string(), value);
            }
            None => positional.push(a),
        }
    }
    (positional, opts)
}

/// The value of `--key`, parsed, or `default` when the option is absent.
pub fn opt<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value '{v}' for --{key}")),
    }
}
