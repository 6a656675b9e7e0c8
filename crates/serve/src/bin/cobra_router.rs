//! The cobra-router daemon: a sharded front door over N workers.
//!
//! ```text
//! cobra-router [--addr 127.0.0.1:7478]
//!              (--shards N | --worker-addrs HOST:PORT,HOST:PORT,...)
//!              [--data-dir PATH] [--seed N] [--demo SECONDS]
//!              [--workers W] [--queue-cap C] [--debug] [--no-cache]
//!              [--retries R] [--backoff-ms MS]
//! ```
//!
//! `--shards N` spawns N local `cobra-serve` worker processes (the
//! binary is looked up next to this executable), each listening on an
//! OS-assigned port; `--worker-addrs` instead points the router at
//! workers someone else manages. With `--data-dir PATH`, spawned worker
//! `k` persists under `PATH/shard-k` — kill it, restart the router, and
//! the shard recovers its slice of the catalog from its own WAL.
//!
//! `--demo N` synthesizes the demo broadcast on the shard the ring
//! assigns `german` to, so a fresh checkout has a queryable sharded
//! cluster with one flag. The router serves until it receives a `quit`
//! line on stdin, then shuts down its sessions and asks every spawned
//! worker to drain.

use std::io::BufRead;
use std::path::PathBuf;

use cobra_serve::ring::{Ring, DEFAULT_SEED};
use cobra_serve::router::{start, RouterConfig};
use cobra_serve::spawn::{find_worker_binary, spawn_worker, WorkerProcess};
use f1_cobra::RetryPolicy;

struct Cli {
    addr: String,
    shards: Option<u32>,
    worker_addrs: Vec<String>,
    data_dir: Option<PathBuf>,
    seed: u64,
    demo: Option<usize>,
    workers: usize,
    queue_cap: usize,
    debug: bool,
    cache: bool,
    retry: RetryPolicy,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        addr: "127.0.0.1:7478".into(),
        shards: None,
        worker_addrs: Vec::new(),
        data_dir: None,
        seed: DEFAULT_SEED,
        demo: None,
        workers: 4,
        queue_cap: 32,
        debug: false,
        cache: true,
        retry: RetryPolicy {
            max_retries: 2,
            backoff_ms: 50,
        },
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => cli.addr = take("--addr")?,
            "--shards" => {
                cli.shards = Some(
                    take("--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                )
            }
            "--worker-addrs" => {
                cli.worker_addrs = take("--worker-addrs")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--data-dir" => cli.data_dir = Some(PathBuf::from(take("--data-dir")?)),
            "--seed" => {
                cli.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--demo" => {
                cli.demo = Some(
                    take("--demo")?
                        .parse()
                        .map_err(|e| format!("--demo: {e}"))?,
                )
            }
            "--workers" => {
                cli.workers = take("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue-cap" => {
                cli.queue_cap = take("--queue-cap")?
                    .parse()
                    .map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--debug" => cli.debug = true,
            "--no-cache" => cli.cache = false,
            "--retries" => {
                cli.retry.max_retries = take("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?
            }
            "--backoff-ms" => {
                cli.retry.backoff_ms = take("--backoff-ms")?
                    .parse()
                    .map_err(|e| format!("--backoff-ms: {e}"))?
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if cli.shards.is_none() && cli.worker_addrs.is_empty() {
        return Err("need --shards N (spawn local workers) or --worker-addrs".into());
    }
    if cli.shards.is_some() && !cli.worker_addrs.is_empty() {
        return Err("--shards and --worker-addrs are mutually exclusive".into());
    }
    Ok(cli)
}

/// The command line for worker `shard`. Every worker binds an
/// OS-assigned port; `--demo` goes only to the shard the ring assigns
/// `german` to.
fn worker_args(cli: &Cli, shard: u32, demo_shard: u32) -> Vec<String> {
    let mut args = vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--workers".into(),
        cli.workers.to_string(),
        "--queue-cap".into(),
        cli.queue_cap.to_string(),
    ];
    if cli.debug {
        args.push("--debug".into());
    }
    if let Some(root) = &cli.data_dir {
        args.push("--data-dir".into());
        args.push(root.join(format!("shard-{shard}")).display().to_string());
    }
    if let (Some(seconds), true) = (cli.demo, shard == demo_shard) {
        args.push("--demo".into());
        args.push(seconds.to_string());
    }
    args
}

fn main() {
    // The router holds one fd per client plus a handful per shard, so
    // its connection capacity is the soft nofile limit too.
    let _ = cobra_serve::raise_nofile_limit(65536);
    let cli = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("cobra-router: {e}");
            std::process::exit(2);
        }
    };

    let mut spawned: Vec<WorkerProcess> = Vec::new();
    let shard_addrs: Vec<String> = if let Some(n) = cli.shards {
        let binary = match find_worker_binary() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("cobra-router: {e}");
                std::process::exit(1);
            }
        };
        let demo_shard = Ring::new(n, cli.seed).owner("german");
        for shard in 0..n {
            match spawn_worker(&binary, &worker_args(&cli, shard, demo_shard)) {
                Ok(worker) => {
                    eprintln!("shard {shard}: worker at {}", worker.addr());
                    spawned.push(worker);
                }
                Err(e) => {
                    eprintln!("cobra-router: worker {shard}: {e}");
                    spawned.clear(); // dropping kills the already-spawned workers
                    std::process::exit(1);
                }
            }
        }
        spawned.iter().map(|w| w.addr().to_string()).collect()
    } else {
        cli.worker_addrs.clone()
    };

    let config = RouterConfig {
        addr: cli.addr.clone(),
        shards: shard_addrs,
        seed: cli.seed,
        retry: cli.retry,
        cache: cli.cache,
        ..RouterConfig::default()
    };
    let n_shards = config.shards.len();
    let handle = match start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cobra-router: bind failed: {e}");
            spawned.clear();
            std::process::exit(1);
        }
    };
    // The readiness line scripts wait for; stdout, flushed by newline.
    println!("router listening on {} ({n_shards} shards)", handle.addr());

    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(cmd) if matches!(cmd.trim(), "quit" | "shutdown") => {
                eprintln!("cobra-router: shutting down router and workers");
                handle.shutdown();
                for w in spawned {
                    w.quit();
                }
                return;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    // Stdin closed without a quit command: serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
