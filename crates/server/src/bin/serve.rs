//! `hpmdr-serve`: stand up a progressive retrieval server over one or
//! more archives.
//!
//! ```text
//! hpmdr-serve [--listen ADDR] [--budget-mb N] [--cache-mb N] NAME=PATH...
//! ```
//!
//! Each `NAME=PATH` registers the archive at `PATH` (any flavor
//! `open_store` recognizes: serialized artifact file, store directory,
//! `http://` URL) under `NAME`. The server prints its bound address and
//! runs until killed.

use hpmdr_server::{ProgressiveServer, Registry, ServerConfig};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: hpmdr-serve [--listen ADDR] [--budget-mb N] [--cache-mb N] NAME=PATH...");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut cache_budget: usize = 64 << 20;
    let mut datasets: Vec<(String, String)> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(addr) => config.listen = addr,
                None => usage(),
            },
            "--budget-mb" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(mb) => config.inflight_budget = mb << 20,
                None => usage(),
            },
            "--cache-mb" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(mb) => cache_budget = mb << 20,
                None => usage(),
            },
            "--help" | "-h" => usage(),
            spec => match spec.split_once('=') {
                Some((name, path)) if !name.is_empty() && !path.is_empty() => {
                    datasets.push((name.to_string(), path.to_string()));
                }
                _ => usage(),
            },
        }
    }
    if datasets.is_empty() {
        usage();
    }

    let mut registry = Registry::new();
    for (name, path) in &datasets {
        if let Err(e) = registry.open_with_budget(name, path.as_ref(), cache_budget) {
            eprintln!("hpmdr-serve: cannot open `{path}` as `{name}`: {e}");
            return ExitCode::FAILURE;
        }
        println!("registered `{name}` from {path}");
    }

    let mut server = match ProgressiveServer::serve(registry, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hpmdr-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    server.wait();
    ExitCode::SUCCESS
}
