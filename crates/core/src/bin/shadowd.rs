//! `shadowd` — the shadow server daemon.
//!
//! Listens at a well-known TCP port (the paper's prototype shape) and
//! serves shadow clients: caches their files, runs their batch jobs,
//! returns output.
//!
//! ```text
//! shadowd [--listen ADDR:PORT] [--name HOST] [--cache-bytes N]
//!         [--eviction lru|fifo|lfu|largest] [--flow eager|lazy|request]
//!         [--slots N] [--shards N] [--store DIR]
//! ```
//!
//! With `--store DIR` the shadow store is durable: every cache and
//! output mutation is journaled under `DIR` and replayed on the next
//! start, so clients resume delta transfers across daemon restarts.

use std::process::ExitCode;

use shadow::{Deployment, EvictionPolicy, FlowControl, ServerConfig};

struct Options {
    listen: String,
    name: String,
    cache_bytes: usize,
    eviction: EvictionPolicy,
    flow: FlowControl,
    slots: usize,
    shards: usize,
    store: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: shadowd [--listen ADDR:PORT] [--name HOST] [--cache-bytes N]\n\
         \x20              [--eviction lru|fifo|lfu|largest] [--flow eager|lazy|request]\n\
         \x20              [--slots N] [--shards N] [--store DIR]"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        listen: "127.0.0.1:4411".to_string(),
        name: "shadowd".to_string(),
        cache_bytes: 64 << 20,
        eviction: EvictionPolicy::Lru,
        flow: FlowControl::DemandEager,
        slots: 1,
        shards: 1,
        store: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("shadowd: {what} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--listen" => opts.listen = value("--listen"),
            "--name" => opts.name = value("--name"),
            "--cache-bytes" => {
                opts.cache_bytes = value("--cache-bytes").parse().unwrap_or_else(|_| usage())
            }
            "--eviction" => {
                opts.eviction = match value("--eviction").as_str() {
                    "lru" => EvictionPolicy::Lru,
                    "fifo" => EvictionPolicy::Fifo,
                    "lfu" => EvictionPolicy::Lfu,
                    "largest" => EvictionPolicy::LargestFirst,
                    _ => usage(),
                }
            }
            "--flow" => {
                opts.flow = match value("--flow").as_str() {
                    "eager" => FlowControl::DemandEager,
                    "lazy" => FlowControl::DemandLazy,
                    "request" => FlowControl::RequestDriven,
                    _ => usage(),
                }
            }
            "--slots" => opts.slots = value("--slots").parse().unwrap_or_else(|_| usage()),
            "--shards" => opts.shards = value("--shards").parse().unwrap_or_else(|_| usage()),
            "--store" => opts.store = Some(value("--store")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("shadowd: unknown argument {other:?}");
                usage()
            }
        }
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    let config = ServerConfig::new(opts.name.clone())
        .with_cache_budget(opts.cache_bytes)
        .with_eviction(opts.eviction)
        .with_flow(opts.flow)
        .with_max_running(opts.slots.max(1));
    let mut deployment = Deployment::new(config).shards(opts.shards.max(1));
    if let Some(dir) = &opts.store {
        deployment = deployment.durable(dir);
    }
    let runtime = match deployment.tcp(&opts.listen) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("shadowd: cannot deploy on {}: {e}", opts.listen);
            return ExitCode::FAILURE;
        }
    };
    let recovery = runtime.recovery();
    if opts.store.is_some() {
        eprintln!(
            "shadowd: store replayed {} record(s) across {} domain(s){}",
            recovery.replayed(),
            recovery.domains,
            if recovery.degraded() {
                " (degraded: damaged segments were truncated or broken delta chains dropped)"
            } else {
                ""
            }
        );
    }
    match runtime.local_addr() {
        Ok(addr) => eprintln!(
            "shadowd: serving as {:?} on {addr} (cache {} bytes, {} slot(s), {} shard(s))",
            opts.name, opts.cache_bytes, opts.slots, opts.shards
        ),
        Err(e) => eprintln!("shadowd: {e}"),
    }
    if let Err(e) = runtime.run_forever() {
        eprintln!("shadowd: fatal: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
