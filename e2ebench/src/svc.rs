//! The service phase: set up a durable server, drive the seeded stream
//! over one closed-loop binary connection, then crash and restart it.

use crate::gen::{Inputs, Op};
use crate::serve::{dir_bytes, fresh_dir, ServerProc};
use mvmodel::TxnId;
use mvservice::{Client, Request};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A server loaded with a workload's set-up state.
pub struct Loaded {
    pub server: ServerProc,
    pub client: Client,
    pub dir: PathBuf,
    /// Mutations acknowledged so far.
    pub acked: u64,
}

/// What the measured stream observed.
#[derive(Default)]
pub struct Observed {
    pub read_us: Vec<f64>,
    pub write_us: Vec<f64>,
    /// Completion times (s since the stream started) of every request.
    pub done_at: Vec<f64>,
    pub elapsed_s: f64,
    /// Server CPU time spent while the stream ran.
    pub server_cpu_s: f64,
    pub steps: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The state right after the `checkpoint_at`-th mutation.
    pub checkpoint: Option<Checkpoint>,
    /// `(template, level)` of every acknowledged instantiation.
    pub instantiated: Vec<(u64, String)>,
    /// Replies of the first requests, for the traced pass.
    pub replies: Vec<Value>,
}

/// Replies kept for the traced pass, which replays this many requests.
const KEPT_REPLIES: usize = crate::layers::REPLAY_OPS;

fn request_of(op: &Op) -> Request {
    match op {
        Op::Register { line, .. } => Request::Register {
            line: line.clone(),
            req_id: None,
        },
        Op::Deregister(id) => Request::Deregister {
            id: TxnId(*id),
            req_id: None,
        },
        Op::Assign(id) => Request::Assign { id: TxnId(*id) },
        Op::Instantiate { template, params } => Request::Instantiate {
            template_id: *template,
            params: params.clone(),
            req_id: None,
        },
    }
}

/// The JSON request value of an op, as a client puts it on the wire.
pub fn request_value(op: &Op) -> Value {
    request_of(op).to_json()
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Starts a server in the empty directory `dir` and registers the
/// set-up state.
pub fn load(bin: &Path, dir: PathBuf, inputs: &Inputs) -> Result<Loaded, String> {
    let server = ServerProc::spawn(bin, &dir)?;
    let mut client = server.connect()?;
    let mut acked = 0u64;
    for t in &inputs.templates {
        client
            .template_register(t)
            .map_err(|e| format!("template_register {t}: {e}"))?;
        acked += 1;
    }
    for (_, line) in &inputs.preload {
        client
            .register(line)
            .map_err(|e| format!("register {line}: {e}"))?;
        acked += 1;
    }
    Ok(Loaded {
        server,
        client,
        dir,
        acked,
    })
}

/// The server's state at a fixed mutation count, so that disk, memory
/// and recovery figures do not depend on how far a run got.
pub struct Checkpoint {
    /// Mutations acknowledged when it was taken.
    pub writes: u64,
    pub disk_bytes: u64,
    pub peak_rss_mb: f64,
    /// A copy of the data dir, for the recovery measurement.
    pub dir: PathBuf,
    pub levels: BTreeMap<u32, String>,
}

/// Takes a [`Checkpoint`]: sizes and copies the data dir and reads the
/// served levels.
pub fn checkpoint(loaded: &mut Loaded) -> Result<Checkpoint, String> {
    let disk_bytes = dir_bytes(&loaded.dir);
    let peak_rss_mb = loaded.server.peak_rss_mb();
    let mut name = loaded.dir.file_name().unwrap_or_default().to_os_string();
    name.push("-checkpoint");
    let dir = fresh_dir(loaded.dir.with_file_name(name))?;
    for entry in std::fs::read_dir(&loaded.dir)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::copy(entry.path(), dir.join(entry.file_name()))
                .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
        }
    }
    Ok(Checkpoint {
        writes: loaded.acked,
        disk_bytes,
        peak_rss_mb,
        dir,
        levels: list_levels(&mut loaded.client)?,
    })
}

/// Sends whole steps of the stream until `budget` is spent and the
/// `checkpoint_at`-th mutation (counting set-up writes) is acknowledged,
/// taking a [`Checkpoint`] right after that mutation.
pub fn drive(
    loaded: &mut Loaded,
    inputs: &Inputs,
    budget: Duration,
    checkpoint_at: u64,
) -> Result<Observed, String> {
    let mut obs = Observed::default();
    let cpu0 = loaded.server.cpu_seconds();
    let start = Instant::now();
    for step in &inputs.stream {
        if start.elapsed() >= budget && loaded.acked >= checkpoint_at {
            break;
        }
        for op in step {
            let t0 = Instant::now();
            let res = loaded.client.request(&request_of(op));
            let us = micros(t0);
            let at = start.elapsed().as_secs_f64();
            obs.attempted += 1;
            obs.done_at.push(at);
            let reply = match res {
                Ok(v) => v,
                Err(_) => {
                    obs.failed += 1;
                    continue;
                }
            };
            if op.is_write() {
                obs.write_us.push(us);
                loaded.acked += 1;
                if loaded.acked == checkpoint_at {
                    obs.checkpoint = Some(checkpoint(loaded)?);
                }
                if let Op::Instantiate { template, .. } = op {
                    let level = reply["level"].as_str().unwrap_or("?").to_string();
                    obs.instantiated.push((*template, level));
                }
            } else {
                obs.read_us.push(us);
            }
            if obs.replies.len() < KEPT_REPLIES {
                obs.replies.push(reply);
            }
        }
        obs.steps += 1;
    }
    obs.elapsed_s = start.elapsed().as_secs_f64();
    obs.server_cpu_s = loaded.server.cpu_seconds() - cpu0;
    Ok(obs)
}

/// The served levels, by transaction id.
pub fn list_levels(client: &mut Client) -> Result<BTreeMap<u32, String>, String> {
    let v = client.list().map_err(|e| format!("list: {e}"))?;
    let mut out = BTreeMap::new();
    for t in v["txns"].as_array().ok_or("list reply lacks txns")? {
        let id = t["id"].as_u64().ok_or("list entry lacks id")? as u32;
        let level = t["level"].as_str().ok_or("list entry lacks level")?;
        out.insert(id, level.to_string());
    }
    Ok(out)
}

/// One restart on a crashed server's data dir.
pub struct Restart {
    /// Spawn until the first reply.
    pub seconds: f64,
    pub levels: BTreeMap<u32, String>,
}

/// Restarts a server on `dir`, times it until the first reply, reads
/// back the recovered state, and kills it again.
pub fn restart(bin: &Path, dir: &Path) -> Result<Restart, String> {
    let start = Instant::now();
    let server = ServerProc::spawn(bin, dir)?;
    let mut client = server.connect()?;
    client
        .ping()
        .map_err(|e| format!("ping after restart: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    let levels = list_levels(&mut client)?;
    server.kill();
    Ok(Restart { seconds, levels })
}
