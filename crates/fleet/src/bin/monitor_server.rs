//! `monitor-server` — a demo fleet monitor service.
//!
//! Drives a synthetic vehicle fleet ([`adassure_fleet::synth`]) through
//! the sharded checker and serves the merged metrics over HTTP
//! (`GET /metrics`, Prometheus text format; `GET /metrics.json` for the
//! JSON exporter), plus fleet-level gauges (open streams, stale drops,
//! bad cycles). With
//! `--ingest PORT` it also opens the binary wire-protocol listener
//! ([`adassure_fleet::IngestServer`]) on the same fleet, so external
//! producers can push batches while Prometheus scrapes. Plain
//! `std::net` — no async runtime, one thread per connection, which is
//! plenty for a scrape endpoint.
//!
//! ```text
//! monitor-server [--streams N] [--shards N] [--bind ADDR] [--port P]
//!                [--ingest PORT] [--ticks N] [--once]
//!                [--checkpoint-dir DIR] [--checkpoint-every SECS]
//!                [--max-connections N]
//! ```
//!
//! `--streams 0` disables the synthetic driver (ingest-only service).
//! `--once` runs `--ticks` ingestion ticks and prints the Prometheus
//! export to stdout instead of serving — the CI smoke mode.
//!
//! With `--checkpoint-dir` (and `--ingest`), the server writes a
//! periodic [`adassure_fleet::checkpoint`] snapshot of the whole fleet —
//! checker state, slab layout, session sequences — to
//! `DIR/fleet.adckpt`, atomically. On startup it restores from that
//! file when present, so producers that reconnect with their session
//! token resume exactly where the checkpoint left them.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use adassure_fleet::synth::{catalog, wave, Synth};
use adassure_fleet::{
    restore_server, Fleet, FleetConfig, IngestConfig, IngestListener, IngestServer,
    IngestStatsSnapshot, SessionSeed, StreamId,
};
use adassure_obs::export;

struct Args {
    streams: usize,
    shards: usize,
    bind: String,
    port: u16,
    ingest: Option<u16>,
    ticks: u64,
    once: bool,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u64,
    max_connections: usize,
}

/// Startup failures that should reach the operator as a message and a
/// nonzero exit, not a panic backtrace.
#[derive(Debug)]
enum ServerError {
    /// A listener could not be bound.
    Bind {
        what: &'static str,
        addr: String,
        source: std::io::Error,
    },
    /// A checkpoint file exists but cannot be restored.
    Restore { path: PathBuf, message: String },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Bind { what, addr, source } => {
                write!(f, "cannot bind {what} listener on {addr}: {source}")
            }
            ServerError::Restore { path, message } => {
                write!(f, "cannot restore checkpoint {}: {message}", path.display())
            }
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        streams: 256,
        shards: 8,
        bind: String::from("127.0.0.1"),
        port: 9464,
        ingest: None,
        ticks: 200,
        once: false,
        checkpoint_dir: None,
        checkpoint_every: 30,
        max_connections: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric value"))
        };
        match flag.as_str() {
            "--streams" => args.streams = grab("--streams") as usize,
            "--shards" => args.shards = grab("--shards") as usize,
            "--bind" => {
                args.bind = it.next().unwrap_or_else(|| {
                    eprintln!("--bind needs an address");
                    std::process::exit(2);
                })
            }
            "--port" => args.port = grab("--port") as u16,
            "--ingest" => args.ingest = Some(grab("--ingest") as u16),
            "--ticks" => args.ticks = grab("--ticks"),
            "--once" => args.once = true,
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--checkpoint-dir needs a path");
                    std::process::exit(2);
                })))
            }
            "--checkpoint-every" => args.checkpoint_every = grab("--checkpoint-every"),
            "--max-connections" => args.max_connections = grab("--max-connections") as usize,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One ingestion tick: a cycle for every stream.
fn tick(fleet: &Fleet, ids: &[StreamId], synths: &mut [Synth]) {
    wave(ids, synths, 1, |batch| {
        if let Err(e) = fleet.submit(batch) {
            panic!("submit failed: {e}");
        }
    });
}

/// The Prometheus page: checker metrics, fleet-level counters, and —
/// when the wire listener is up — the ingest counters.
fn metrics_page(fleet: &Fleet, ingest: Option<&IngestStatsSnapshot>) -> String {
    let mut page = export::prometheus(&fleet.metrics());
    let stats = fleet.stats();
    export::push_gauge(
        &mut page,
        "adassure_fleet_open_streams",
        "Streams currently open",
        stats.open_streams as f64,
    );
    export::push_counter(
        &mut page,
        "adassure_fleet_stale_batches",
        "Batches dropped for a stale stream generation",
        stats.stale_batches,
    );
    export::push_counter(
        &mut page,
        "adassure_fleet_bad_cycles",
        "Cycles rejected for non-monotone timestamps",
        stats.bad_cycles,
    );
    export::push_counter(
        &mut page,
        "adassure_fleet_samples",
        "Samples checked",
        stats.samples,
    );
    if let Some(ingest) = ingest {
        for (name, help, value) in [
            (
                "adassure_ingest_connections_total",
                "Producer connections accepted",
                ingest.connections,
            ),
            (
                "adassure_ingest_rejected_connections",
                "Connections refused at the connection or session cap",
                ingest.rejected_connections,
            ),
            (
                "adassure_ingest_resumes_total",
                "Producer sessions resumed after a reconnect",
                ingest.resumes,
            ),
            (
                "adassure_ingest_checkpoints_total",
                "Fleet checkpoints written",
                ingest.checkpoints,
            ),
            (
                "adassure_ingest_frames_total",
                "Wire frames decoded",
                ingest.frames,
            ),
            (
                "adassure_ingest_batches_total",
                "Sample batches applied from the wire",
                ingest.batches,
            ),
            (
                "adassure_ingest_samples_total",
                "Samples applied from the wire",
                ingest.samples,
            ),
            (
                "adassure_ingest_streams_opened_total",
                "Streams opened over the wire",
                ingest.opens,
            ),
            (
                "adassure_ingest_streams_closed_total",
                "Streams closed over the wire",
                ingest.closes,
            ),
            (
                "adassure_ingest_rejected_unknown_shard_total",
                "Batches addressed to a shard the fleet does not have",
                ingest.rejected_unknown_shard,
            ),
            (
                "adassure_ingest_rejected_stale_total",
                "Close requests for stale or unknown streams",
                ingest.rejected_stale,
            ),
            (
                "adassure_ingest_malformed_total",
                "Protocol-level rejections (malformed, bad magic, bad version)",
                ingest.malformed,
            ),
            (
                "adassure_ingest_truncated_total",
                "Connections that disconnected mid-frame",
                ingest.truncated,
            ),
            (
                "adassure_ingest_bytes_total",
                "Raw bytes received on the wire",
                ingest.bytes_rx,
            ),
        ] {
            export::push_counter(&mut page, name, help, value);
        }
        export::push_quantiles(
            &mut page,
            "adassure_ingest_decode_ns",
            "Sampled wire-frame decode latency, nanoseconds",
            &ingest.decode_ns,
        );
    }
    page
}

fn run(args: Args) -> Result<(), ServerError> {
    let fleet_config = FleetConfig {
        shards: args.shards,
        ..FleetConfig::default()
    };
    // Restore from the last checkpoint when one exists: the fleet comes
    // back with every stream's checker state, and the session seed lets
    // reconnecting producers resume exactly where the snapshot left
    // them.
    let checkpoint_path = args
        .checkpoint_dir
        .as_ref()
        .map(|dir| dir.join("fleet.adckpt"));
    let mut session_seed: Option<SessionSeed> = None;
    let mut fleet = match &checkpoint_path {
        Some(path) if path.exists() && !args.once => {
            let restore = std::fs::read(path)
                .map_err(|e| (path, e.to_string()))
                .and_then(|bytes| {
                    restore_server(catalog(), fleet_config, &bytes)
                        .map_err(|e| (path, e.to_string()))
                });
            match restore {
                Ok((fleet, seed)) => {
                    eprintln!(
                        "monitor-server: restored {} sessions from {}",
                        seed.len(),
                        path.display()
                    );
                    session_seed = Some(seed);
                    fleet
                }
                Err((path, message)) => {
                    return Err(ServerError::Restore {
                        path: path.clone(),
                        message,
                    })
                }
            }
        }
        _ => Fleet::new(catalog(), fleet_config),
    };
    let ids: Vec<StreamId> = (0..args.streams).map(|_| fleet.open_stream()).collect();
    let mut synths: Vec<Synth> = (0..args.streams).map(|i| Synth::new(i as u64)).collect();

    if args.once {
        for _ in 0..args.ticks {
            tick(&fleet, &ids, &mut synths);
        }
        print!("{}", metrics_page(&fleet, None));
        let stats = fleet.stats();
        eprintln!(
            "monitor-server: {} streams, {} cycles, {} violations",
            args.streams, stats.cycles, stats.violations
        );
        return Ok(());
    }

    let fleet = Arc::new(Mutex::new(fleet));

    // The wire-protocol ingest listener, if requested. Its connection
    // threads apply their own batches, so the synthetic driver below
    // stays optional.
    let ingest = match args.ingest {
        Some(port) => {
            let addr = format!("{}:{port}", args.bind);
            let listener =
                TcpListener::bind(addr.as_str()).map_err(|source| ServerError::Bind {
                    what: "ingest",
                    addr: addr.clone(),
                    source,
                })?;
            let config = IngestConfig {
                max_connections: args.max_connections,
                ..IngestConfig::default()
            };
            let server = match session_seed.take() {
                Some(seed) => IngestServer::spawn_restored(
                    Arc::clone(&fleet),
                    IngestListener::Tcp(listener),
                    config,
                    seed,
                ),
                None => {
                    IngestServer::spawn(Arc::clone(&fleet), IngestListener::Tcp(listener), config)
                }
            }
            .map_err(|source| ServerError::Bind {
                what: "ingest",
                addr,
                source,
            })?;
            eprintln!("monitor-server: wire ingest on {}:{port}", args.bind);
            Some(server)
        }
        None => None,
    };

    // Periodic crash-recovery snapshots, atomically replacing
    // DIR/fleet.adckpt. Only meaningful alongside the wire listener —
    // the checkpoint covers the sessions producers resume into.
    if let (Some(server), Some(path)) = (&ingest, &checkpoint_path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let checkpointer = server.checkpointer();
        let every = std::time::Duration::from_secs(args.checkpoint_every.max(1));
        eprintln!(
            "monitor-server: checkpointing to {} every {}s",
            path.display(),
            every.as_secs()
        );
        let path = path.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(every);
            if let Err(e) = checkpointer.checkpoint_to(&path) {
                eprintln!("monitor-server: checkpoint failed: {e}");
            }
        });
    } else if checkpoint_path.is_some() && !args.once {
        eprintln!("monitor-server: --checkpoint-dir is ignored without --ingest");
    }

    if !ids.is_empty() {
        let fleet = Arc::clone(&fleet);
        std::thread::spawn(move || loop {
            tick(&fleet.lock().expect("fleet lock"), &ids, &mut synths);
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }

    let addr = format!("{}:{}", args.bind, args.port);
    let listener = TcpListener::bind(addr.as_str()).map_err(|source| ServerError::Bind {
        what: "metrics",
        addr: addr.clone(),
        source,
    })?;
    eprintln!(
        "monitor-server: serving /metrics on {addr} ({} streams, {} shards)",
        args.streams, args.shards
    );
    let ingest = ingest.map(Arc::new);
    for stream in listener.incoming() {
        let Ok(mut conn) = stream else { continue };
        let fleet = Arc::clone(&fleet);
        let ingest = ingest.clone();
        std::thread::spawn(move || {
            let mut buf = [0u8; 1024];
            let n = conn.read(&mut buf).unwrap_or(0);
            let request = String::from_utf8_lossy(&buf[..n]);
            let path = request.split_whitespace().nth(1).unwrap_or("/");
            let (status, body, content_type) = {
                let ingest_stats = ingest.as_ref().map(|s| s.stats());
                let fleet = fleet.lock().expect("fleet lock");
                match path {
                    "/metrics" => (
                        "200 OK",
                        metrics_page(&fleet, ingest_stats.as_ref()),
                        "text/plain; version=0.0.4",
                    ),
                    "/metrics.json" => {
                        ("200 OK", export::json(&fleet.metrics()), "application/json")
                    }
                    _ => ("404 Not Found", String::from("not found\n"), "text/plain"),
                }
            };
            let _ = write!(
                conn,
                "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
        });
    }
    Ok(())
}

fn main() {
    if let Err(e) = run(parse_args()) {
        eprintln!("monitor-server: {e}");
        std::process::exit(1);
    }
}
