//! `mvrobust serve`: run the online allocation daemon.
//!
//! ```text
//! mvrobust serve [--addr HOST:PORT] [--levels rc-si|rc-si-ssi] [--threads N]
//!                [--realloc-timeout-ms N] [--fault-plan SPEC]
//!                [--batch-max N] [--batch-delay-us N]
//!                [--codec auto|line|binary]
//!                [--data-dir DIR] [--snapshot-every N]
//!                [--durability none|batch|event]
//! ```
//!
//! `--realloc-timeout-ms` caps each incremental reallocation; on expiry
//! the mutation is rolled back and the last-known-good allocation keeps
//! being served (degraded mode). `--fault-plan` installs a seeded
//! chaos-testing schedule, e.g.
//! `seed=42,drop=0.1,truncate=0.05,slow=0.1,delay_ms=10,budget=40` —
//! never use it in production. `--batch-max` enables group-commit
//! coalescing: up to N concurrent mutations are applied as one engine
//! batch (default 1 = off); `--batch-delay-us` is how long a drain
//! lingers for companions (default 100).
//!
//! `--codec` restricts which wire codecs connections may negotiate
//! (default `auto`: first-byte sniff per connection — `{` means
//! line-JSON, the 0xB1 magic means binary frames). One event-loop
//! thread multiplexes every connection over readiness polling.
//!
//! `--data-dir` turns on durability: every applied mutation is written
//! to a write-ahead event log in DIR before its reply ships, a snapshot
//! is cut every `--snapshot-every` applied events (default 1024,
//! 0 = never), and on startup the server recovers its exact pre-crash
//! state — all tenants, allocations, and the idempotency replay cache —
//! from the latest valid snapshot plus the log tail. `--durability`
//! picks the fsync policy: `batch` (default) syncs once per group-commit
//! drain, `event` syncs every record, `none` leaves flushing to the OS.
//!
//! Prints `listening on <addr>` once the socket is bound (with the
//! ephemeral port resolved, so `--addr 127.0.0.1:0` is scriptable),
//! then serves until a client sends `shutdown` or the process receives
//! `SIGINT`/`SIGTERM`. The shutdown summary reports connection and
//! per-codec counters from the server's metrics.

use crate::args::Parsed;
use mvservice::{install_signal_handlers, CodecAccept, Config, Durability, FaultPlan, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = Parsed::parse(argv)?;
    if let Some(extra) = parsed.positional.first() {
        return Err(format!(
            "serve takes no positional argument (got `{extra}`)"
        ));
    }
    if parsed.flag("no-components") {
        return Err("--no-components applies to allocate and check; serve always shards".into());
    }
    let faults = parsed
        .option("fault-plan")
        .map(|spec| spec.parse::<FaultPlan>())
        .transpose()
        .map_err(|e| format!("invalid --fault-plan: {e}"))?;
    let mut config = Config {
        addr: parsed
            .option("addr")
            .unwrap_or("127.0.0.1:7411")
            .to_string(),
        levels: parsed.level_set()?,
        threads: parsed.threads()?,
        realloc_timeout: parsed
            .option_parse::<u64>("realloc-timeout-ms")?
            .map(Duration::from_millis),
        faults,
        batch_max: parsed
            .option_parse::<usize>("batch-max")?
            .unwrap_or(1)
            .max(1),
        codec: parsed
            .option("codec")
            .map(|s| s.parse::<CodecAccept>())
            .transpose()
            .map_err(|e| format!("invalid --codec: {e}"))?
            .unwrap_or_default(),
        data_dir: parsed.option("data-dir").map(PathBuf::from),
        durability: parsed
            .option("durability")
            .map(|s| s.parse::<Durability>())
            .transpose()
            .map_err(|e| format!("invalid --durability: {e}"))?
            .unwrap_or_default(),
        ..Config::default()
    };
    if let Some(n) = parsed.option_parse::<u64>("snapshot-every")? {
        config.snapshot_every = n;
    }
    if config.data_dir.is_none()
        && (parsed.option("snapshot-every").is_some() || parsed.option("durability").is_some())
    {
        return Err(
            "--snapshot-every / --durability need --data-dir (nothing is durable without one)"
                .to_string(),
        );
    }
    if let Some(us) = parsed.option_parse::<u64>("batch-delay-us")? {
        config.batch_delay = Duration::from_micros(us);
    }
    let levels = config.levels;
    let fault_note = config
        .faults
        .as_ref()
        .map(|p| format!(" [fault injection: {p}]"))
        .unwrap_or_default();
    let codec = config.codec;
    let durable_note = config
        .data_dir
        .as_ref()
        .map(|d| format!(" [durable: {} fsync={}]", d.display(), config.durability))
        .unwrap_or_default();
    let server = Server::bind(config).map_err(|e| format!("binding listener: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle();
    install_signal_handlers();
    // Stdout is line-buffered: this line is visible to a parent process
    // (or test harness) immediately, before the accept loop blocks. It
    // must stay the FIRST line printed — harnesses parse the address
    // out of it.
    println!(
        "listening on {addr} (levels {levels}, codec {}){durable_note}{fault_note}",
        codec.as_str()
    );
    server.run().map_err(|e| format!("serving: {e}"))?;
    let m = handle.metrics_json();
    println!(
        "served {} connections ({} line, {} binary), {} requests, {} errors",
        m["connections"]["total"], m["codec_line"], m["codec_frame"], m["total"], m["errors"]
    );
    println!("shut down cleanly");
    Ok(ExitCode::SUCCESS)
}
