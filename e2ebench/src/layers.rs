//! The traced pass: replays a run's seeded inputs through each layer's
//! public calls, with no socket in between, and times every call as a
//! span of the benchmark's own code.

use crate::exec;
use crate::gen::{as_instance, parse_lines, Inputs, Op, Workload};
use crate::serve::SNAPSHOT_EVERY;
use crate::stats::{median, Spans};
use crate::svc::request_value;
use mvmodel::{parse_transaction_line, Op as ModelOp, Transaction, TransactionSet, TxnId};
use mvrobustness::{Allocator, Components, ConflictIndex, EngineStats, LevelSet};
use mvservice::{
    encode_payload, CodecKind, Durability, FrameBuf, Payload, Registry, RegistryEvent,
    SnapshotState, Store, TenantSnapshot, DEFAULT_TENANT,
};
use mvsim::Job;
use mvtemplates::TemplateCatalog;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Stream ops the registry/store replay covers (the service phase
/// keeps exactly this many replies).
pub const REPLAY_OPS: usize = 4096;
/// Mutations the allocator replay covers.
const ALLOC_EVENTS: usize = 256;
/// Deregistrations probed on workloads whose stream makes none.
const PROBE_REMOVALS: usize = 16;

/// What the untraced phases hand to the traced pass.
pub struct Ctx<'a> {
    pub inputs: &'a Inputs,
    /// Whole stream steps the service phase completed.
    pub steps: usize,
    /// Replies to the first stream requests, in order.
    pub replies: &'a [Value],
    pub server_stats: &'a Value,
    /// Server CPU seconds per stream request.
    pub server_cpu_per_request_s: f64,
    /// Client-observed p50 of the stream's reads and writes.
    pub read_p50_us: f64,
    pub write_p50_us: f64,
    /// From-scratch optimum time on the final live set, ms.
    pub optimal_ms: f64,
    pub jobs: &'a [Job],
    pub threads: usize,
    pub engine_budget: Duration,
    pub store_dir: PathBuf,
    pub spans_file: PathBuf,
}

/// Per-layer metrics `(name, value, unit)` plus report lines.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub report: Vec<String>,
}

#[derive(Default)]
struct EngineCounts {
    events: u64,
    probes: u64,
    iso_builds: u64,
    kernel_row_ops: u64,
    /// Components searched or solved (cache misses).
    checked: u64,
    /// Components answered from the component cache.
    cached: u64,
}

impl EngineCounts {
    fn add(&mut self, s: Option<&EngineStats>, events: u64) {
        if let Some(s) = s {
            self.events += events;
            self.probes += s.probes;
            self.iso_builds += s.iso_builds;
            self.kernel_row_ops += s.kernel_row_ops;
            self.checked += s.components_checked;
            self.cached += s.components_cached;
        }
    }

    fn per_event(&self, x: u64) -> f64 {
        x as f64 / self.events.max(1) as f64
    }
}

/// The stream ops the replay covers: whole completed steps, at most
/// [`REPLAY_OPS`] requests.
fn replayed_ops(inputs: &Inputs, steps: usize) -> Vec<&Op> {
    inputs.stream[..steps]
        .iter()
        .flatten()
        .take(REPLAY_OPS)
        .collect()
}

fn ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

pub fn measure(ctx: &Ctx) -> Result<Layers, String> {
    let inputs = ctx.inputs;
    let ops = replayed_ops(inputs, ctx.steps);
    let mut spans = Spans::new(true);
    let mut report = Vec::new();

    // --- codec: the requests and replies of the stream, binary frames.
    let requests: Vec<Value> = ops.iter().map(|op| request_value(op)).collect();
    let round_trip = |spans: &mut Spans,
                      v: &Value,
                      buf: &mut Vec<u8>,
                      names: [&'static str; 2]|
     -> Result<(), String> {
        buf.clear();
        spans.time(names[0], |_| encode_payload(CodecKind::Frame, v, buf));
        let back = spans.time(names[1], |_| {
            let mut fb = FrameBuf::with_kind(CodecKind::Frame);
            fb.push(buf);
            fb.next_payload()
        });
        match back {
            Ok(Some(Payload::Frame(d))) if &d == v => Ok(()),
            other => Err(format!("codec round trip of {v} gave {other:?}")),
        }
    };
    let codec_pass = |spans: &mut Spans| -> Result<(), String> {
        let mut buf = Vec::new();
        for (v, reply) in requests.iter().zip(ctx.replies) {
            round_trip(spans, v, &mut buf, ["codec.encode", "codec.decode"])?;
            round_trip(
                spans,
                reply,
                &mut buf,
                ["codec.reply_encode", "codec.reply_decode"],
            )?;
        }
        Ok(())
    };
    // Span overhead: the same codec replay with recording off, then on.
    let mut quiet = Spans::new(false);
    let t_off = Instant::now();
    codec_pass(&mut quiet)?;
    let off_ns = ns(t_off);
    let t_on = Instant::now();
    spans.time("layer.codec", |s| codec_pass(s))?;
    let on_ns = ns(t_on);
    let frame_bytes = |vs: &[Value]| -> f64 {
        let total: usize = vs
            .iter()
            .map(|v| {
                let mut b = Vec::new();
                encode_payload(CodecKind::Frame, v, &mut b);
                b.len()
            })
            .sum();
        total as f64 / vs.len().max(1) as f64
    };
    let request_bytes = frame_bytes(&requests);
    let reply_bytes = frame_bytes(ctx.replies);

    // --- registry + store: the server's apply-then-append path.
    let store_dir = crate::serve::fresh_dir(ctx.store_dir.clone())?;
    let (store, _) = Store::open(&store_dir, Durability::Batch, SNAPSHOT_EVERY)
        .map_err(|e| format!("opening the replay store: {e}"))?;
    let mut reg = Registry::new(LevelSet::default(), 1);
    let mut counts = EngineCounts::default();
    let mut wal_bytes = 0u64;
    let mut writes = 0u64;
    let mut register_ns: Vec<f64> = Vec::new();
    let wal_path = store_dir.join("wal.log");
    let wal_len = || std::fs::metadata(&wal_path).map_or(0, |m| m.len());

    let snapshot = |spans: &mut Spans, reg: &mut Registry, store: &Store| -> Result<(), String> {
        let listed = reg.list();
        let state = SnapshotState {
            tenants: vec![TenantSnapshot {
                name: DEFAULT_TENANT.to_string(),
                lines: listed.iter().map(|t| t.text.clone()).collect(),
                alloc: listed
                    .iter()
                    .map(|t| (t.id.0, t.level.as_str().to_string()))
                    .collect(),
                templates: reg
                    .templates()
                    .iter()
                    .map(|t| (t.text.clone(), t.level.as_str().to_string()))
                    .collect(),
                instances: reg.templates().iter().map(|t| t.instances).collect(),
            }],
            ..SnapshotState::default()
        };
        spans
            .time("store.snapshot", |_| store.write_snapshot(&state))
            .map_err(|e| format!("snapshot: {e}"))?;
        Ok(())
    };
    let persist = |spans: &mut Spans,
                   store: &Store,
                   events: &[RegistryEvent],
                   reply: &Value|
     -> Result<(), String> {
        for event in events {
            spans
                .time("store.append", |_| {
                    store.append(DEFAULT_TENANT, event, None, reply)
                })
                .map_err(|e| format!("append: {e}"))?;
        }
        spans
            .time("store.commit", |_| store.commit())
            .map_err(|e| format!("commit: {e}"))
    };
    let ok = json!({"ok": true});

    spans.time("layer.registry", |spans| -> Result<(), String> {
        for t in &inputs.templates {
            spans
                .time("registry.template_register", |_| reg.register_template(t))
                .map_err(|e| format!("template {t}: {e}"))?;
            persist(
                spans,
                &store,
                &[RegistryEvent::TemplateRegister(t.clone())],
                &ok,
            )?;
            writes += 1;
        }
        for (_, line) in &inputs.preload {
            let t0 = Instant::now();
            spans
                .time("registry.register", |_| reg.register(line))
                .map_err(|e| format!("register {line}: {e}"))?;
            register_ns.push(ns(t0));
            counts.add(reg.last_stats(), 1);
            persist(spans, &store, &[RegistryEvent::Register(line.clone())], &ok)?;
            writes += 1;
            if store.wants_snapshot() && store.begin_snapshot() {
                wal_bytes += wal_len();
                snapshot(spans, &mut reg, &store)?;
            }
        }
        for (op, reply) in ops.iter().zip(ctx.replies) {
            let event = match op {
                Op::Register { line, .. } => {
                    let t0 = Instant::now();
                    spans
                        .time("registry.register", |_| reg.register(line))
                        .map_err(|e| format!("register {line}: {e}"))?;
                    register_ns.push(ns(t0));
                    counts.add(reg.last_stats(), 1);
                    RegistryEvent::Register(line.clone())
                }
                Op::Deregister(id) => {
                    spans
                        .time("registry.deregister", |_| reg.deregister(TxnId(*id)))
                        .map_err(|e| format!("deregister {id}: {e}"))?;
                    counts.add(reg.last_stats(), 1);
                    RegistryEvent::Deregister(TxnId(*id))
                }
                Op::Assign(id) => {
                    spans
                        .time("registry.assign", |_| reg.assign(TxnId(*id)))
                        .ok_or(format!("assign of unknown T{id}"))?;
                    continue;
                }
                Op::Instantiate { template, params } => {
                    spans
                        .time("registry.admit", |_| {
                            reg.admit_instance(*template as usize, params)
                        })
                        .map_err(|e| format!("instantiate {template}: {e}"))?;
                    RegistryEvent::Instantiate {
                        template_id: *template as usize,
                        params: params.clone(),
                    }
                }
            };
            persist(spans, &store, &[event], reply)?;
            writes += 1;
            if store.wants_snapshot() && store.begin_snapshot() {
                wal_bytes += wal_len();
                snapshot(spans, &mut reg, &store)?;
            }
        }
        Ok(())
    })?;
    wal_bytes += wal_len();
    let fsyncs = store.fsyncs();
    drop(store);
    let t0 = Instant::now();
    let (store, recovered) = spans
        .time("store.recover", |_| {
            Store::open(&store_dir, Durability::Batch, SNAPSHOT_EVERY)
        })
        .map_err(|e| format!("reopening the replay store: {e}"))?;
    let recovery_ms = ns(t0) / 1e6;
    // Every workload snapshots its final state once, so the snapshot
    // cost is measured even where the stream cuts none.
    if store.begin_snapshot() {
        snapshot(&mut spans, &mut reg, &store)?;
    }

    // Probes for the calls a workload's stream does not make, on the
    // same live set: admission of its SmallBank transactions as
    // template instances, and deregistration of its newest members.
    let live_lines: Vec<String> = reg.list().into_iter().map(|t| t.text).collect();
    let live = parse_lines(live_lines.iter());
    let instances: Vec<(usize, Vec<u32>)> = match ops
        .iter()
        .any(|o| matches!(o, Op::Instantiate { .. }))
    {
        true => ops
            .iter()
            .filter_map(|o| match o {
                Op::Instantiate { template, params } => Some((*template as usize, params.clone())),
                _ => None,
            })
            .collect(),
        false => live
            .ids()
            .take(512)
            .map(|id| as_instance(&live, id))
            .collect(),
    };
    spans.time("layer.registry_probe", |spans| -> Result<(), String> {
        if !ops.iter().any(|o| matches!(o, Op::Instantiate { .. })) {
            if reg.template_count() == 0 {
                let set = mvtemplates::smallbank_templates();
                for i in 0..set.len() {
                    let line = set.get(i).expect("i < len").render();
                    spans
                        .time("registry.template_register", |_| {
                            reg.register_template(&line)
                        })
                        .map_err(|e| format!("template {line}: {e}"))?;
                }
            }
            for (t, params) in &instances {
                spans
                    .time("registry.admit", |_| reg.admit_instance(*t, params))
                    .map_err(|e| format!("admit: {e}"))?;
            }
        }
        if !ops.iter().any(|o| matches!(o, Op::Deregister(_))) {
            let ids: Vec<TxnId> = live.ids().collect();
            for id in ids.iter().rev().take(PROBE_REMOVALS) {
                spans
                    .time("registry.deregister", |_| reg.deregister(*id))
                    .map_err(|e| format!("deregister {id}: {e}"))?;
                counts.add(reg.last_stats(), 1);
            }
        }
        Ok(())
    })?;

    // --- allocator: the same mutations straight into `Allocator`.
    let mut alloc = Allocator::from_owned(parse_lines(inputs.preload.iter().map(|(_, l)| l)));
    alloc
        .current()
        .map_err(|e| format!("initial allocation: {e:?}"))?;
    let mut mutations: Vec<Op> = ops
        .iter()
        .filter(|o| matches!(o, Op::Register { .. } | Op::Deregister(_)))
        .take(ALLOC_EVENTS)
        .map(|o| (*o).clone())
        .collect();
    if mutations.is_empty() {
        let newest: Vec<&(u32, String)> =
            inputs.preload.iter().rev().take(PROBE_REMOVALS).collect();
        mutations.extend(newest.iter().map(|(id, _)| Op::Deregister(*id)));
        mutations.extend(newest.iter().map(|(id, line)| Op::Register {
            id: *id,
            line: line.clone(),
        }));
    }
    spans.time("layer.alloc", |spans| -> Result<(), String> {
        for op in &mutations {
            match op {
                Op::Register { line, .. } => {
                    let mut scratch = TransactionSet::default();
                    let parsed = parse_transaction_line(line, &mut scratch)
                        .map_err(|e| format!("parse {line}: {e}"))?;
                    let ops: Vec<ModelOp> = parsed
                        .ops()
                        .iter()
                        .map(|op| ModelOp {
                            kind: op.kind,
                            object: alloc.intern_object(&scratch.object_name(op.object)),
                        })
                        .collect();
                    let txn = Transaction::new(parsed.id(), ops).map_err(|e| e.to_string())?;
                    spans
                        .time("alloc.add", |_| alloc.add_txn(txn))
                        .map_err(|e| format!("add_txn: {e:?}"))?;
                }
                Op::Deregister(id) => {
                    spans
                        .time("alloc.remove", |_| alloc.remove_txn(TxnId(*id)))
                        .map_err(|e| format!("remove_txn: {e:?}"))?;
                }
                _ => unreachable!("only mutations replay"),
            }
        }
        Ok(())
    })?;
    let final_set = alloc.txns().clone();
    let index = spans.time("alloc.index_build", |_| ConflictIndex::new(&final_set));
    let comps = spans.time("alloc.components", |_| Components::new(&final_set, &index));

    // --- templates: the audit, then admission straight on the catalog.
    let mut catalog = TemplateCatalog::new(
        TemplateCatalog::DEFAULT_COPIES,
        TemplateCatalog::DEFAULT_DOMAIN,
    );
    let tset = mvtemplates::smallbank_templates();
    spans.time("templates.audit", |_| -> Result<(), String> {
        for i in 0..tset.len() {
            catalog
                .register_line(&tset.get(i).expect("i < len").render())
                .map_err(|e| format!("catalog: {e}"))?;
        }
        Ok(())
    })?;
    for (t, params) in &instances {
        spans
            .time("templates.admit", |_| catalog.admit(*t, params))
            .map_err(|e| format!("catalog admit: {e}"))?;
    }

    // --- engine: 1 thread against N threads on the run's job list.
    let (one, many) = spans.time("layer.engine", |_| {
        exec::paired(ctx.jobs, ctx.threads, inputs.seed, ctx.engine_budget)
    });
    let m = &many.metrics;
    let commits = m.commits.max(1) as f64;
    let per_1k = |x: u64| x as f64 * 1e3 / commits;
    let ssi_jobs = ctx
        .jobs
        .iter()
        .filter(|j| j.level == mvisolation::IsolationLevel::SSI)
        .count();

    let svc_snapshots = ctx.server_stats["durability"]["snapshots"]
        .as_f64()
        .unwrap_or(0.0);

    let med = |name: &str| median(&spans.self_ns(name));
    let p50_1t = median(&one.rates);
    let p50_nt = median(&many.rates);

    // --- attribution of the client's p50s to layer self times; the
    // rest is transport: socket, event loop and scheduling.
    let codec_ns = |kind: fn(&Op) -> bool| -> f64 {
        let parts = [
            "codec.encode",
            "codec.decode",
            "codec.reply_encode",
            "codec.reply_decode",
        ]
        .map(|name| spans.self_ns(name));
        let per_op: Vec<f64> = ops
            .iter()
            .take(parts[3].len())
            .enumerate()
            .filter(|(_, op)| kind(op))
            .map(|(i, _)| parts.iter().map(|p| p[i]).sum())
            .collect();
        median(&per_op)
    };
    let read_layers_us = (med("registry.assign") + codec_ns(|op| !op.is_write())) / 1e3;
    let mut w = spans.self_ns("registry.register");
    w.extend(spans.self_ns("registry.deregister"));
    if inputs.workload == Workload::SvcTemplate {
        w = spans.self_ns("registry.admit");
    }
    let (registry_ns, store_ns, codec_w) = (
        median(&w),
        med("store.append") + med("store.commit"),
        codec_ns(Op::is_write),
    );
    let explained_us = (registry_ns + store_ns + codec_w) / 1e3;
    let share = explained_us / ctx.write_p50_us.max(1e-9);
    report.push(format!(
        "attribution {}: client write_p50 {:.1} us = registry {:.1} + store {:.1} + codec {:.1} \
         ({:.0}% in layers), rest {:.1} us transport; client read_p50 {:.1} us = registry \
         {:.1} + codec {:.1}, rest {:.1} us transport",
        inputs.workload.name(),
        ctx.write_p50_us,
        registry_ns / 1e3,
        store_ns / 1e3,
        codec_w / 1e3,
        share * 100.0,
        ctx.write_p50_us - explained_us,
        ctx.read_p50_us,
        med("registry.assign") / 1e3,
        codec_ns(|op| !op.is_write()) / 1e3,
        ctx.read_p50_us - read_layers_us,
    ));
    report.push(format!(
        "attribution {}: engine {:.0} txns/s at 1 thread, {:.0} at {} threads ({:.2}x)",
        inputs.workload.name(),
        p50_1t,
        p50_nt,
        ctx.threads,
        p50_nt / p50_1t.max(1e-9)
    ));

    let out_spans = spans.len();
    if let Some(parent) = ctx.spans_file.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(&ctx.spans_file, spans.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", ctx.spans_file.display()))?;

    let metrics = vec![
        ("codec.encode_ns", med("codec.encode"), "ns"),
        ("codec.decode_ns", med("codec.decode"), "ns"),
        ("codec.request_bytes", request_bytes, "bytes"),
        ("codec.reply_bytes", reply_bytes, "bytes"),
        (
            "server.busy_us_per_request",
            ctx.server_cpu_per_request_s * 1e6,
            "us",
        ),
        (
            "server.transport_p50_us",
            ctx.read_p50_us - read_layers_us,
            "us",
        ),
        ("registry.register_us", median(&register_ns) / 1e3, "us"),
        (
            "registry.deregister_us",
            med("registry.deregister") / 1e3,
            "us",
        ),
        ("registry.assign_ns", med("registry.assign"), "ns"),
        ("registry.admit_ns", med("registry.admit"), "ns"),
        ("alloc.add_us", med("alloc.add") / 1e3, "us"),
        ("alloc.remove_us", med("alloc.remove") / 1e3, "us"),
        ("alloc.index_build_us", med("alloc.index_build") / 1e3, "us"),
        ("alloc.components_us", med("alloc.components") / 1e3, "us"),
        ("alloc.optimal_ms", ctx.optimal_ms, "ms"),
        (
            "alloc.probes_per_event",
            counts.per_event(counts.probes),
            "count",
        ),
        (
            "alloc.iso_builds_per_event",
            counts.per_event(counts.iso_builds),
            "count",
        ),
        (
            "alloc.kernel_row_ops_per_event",
            counts.per_event(counts.kernel_row_ops),
            "count",
        ),
        (
            "alloc.comp_cache_hit_ratio",
            counts.cached as f64 / (counts.checked + counts.cached).max(1) as f64,
            "ratio",
        ),
        ("alloc.largest_component", comps.largest() as f64, "count"),
        ("store.append_us", med("store.append") / 1e3, "us"),
        ("store.commit_us", med("store.commit") / 1e3, "us"),
        ("store.snapshot_ms", med("store.snapshot") / 1e6, "ms"),
        (
            "store.fsyncs_per_write",
            fsyncs as f64 / writes.max(1) as f64,
            "count",
        ),
        (
            "store.wal_bytes_per_write",
            wal_bytes as f64 / writes.max(1) as f64,
            "bytes",
        ),
        ("store.snapshots", svc_snapshots, "count"),
        (
            "store.replayed_records",
            recovered.records.len() as f64,
            "count",
        ),
        ("store.recovery_ms", recovery_ms, "ms"),
        ("templates.admit_ns", med("templates.admit"), "ns"),
        ("templates.audit_ms", med("templates.audit") / 1e6, "ms"),
        ("engine.txns_per_s_1t", p50_1t, "1/s"),
        ("engine.scaling", p50_nt / p50_1t.max(1e-9), "ratio"),
        (
            "engine.commit_ratio",
            m.commits as f64 / (m.commits + m.total_aborts()).max(1) as f64,
            "ratio",
        ),
        ("engine.fcw_per_1k", per_1k(m.aborts_fcw), "count"),
        ("engine.deadlock_per_1k", per_1k(m.aborts_deadlock), "count"),
        ("engine.ssi_per_1k", per_1k(m.aborts_ssi), "count"),
        ("engine.blocked_per_1k", per_1k(m.blocked_events), "count"),
        (
            "engine.ticks_per_commit",
            many.ticks as f64 / commits,
            "count",
        ),
        (
            "engine.pruned_per_commit",
            m.versions_pruned as f64 / commits,
            "count",
        ),
        (
            "engine.ssi_share",
            ssi_jobs as f64 / ctx.jobs.len().max(1) as f64,
            "ratio",
        ),
        ("attr.write_layer_share", share, "ratio"),
        (
            "trace.overhead_pct",
            (on_ns - off_ns) / off_ns.max(1.0) * 100.0,
            "%",
        ),
        ("trace.spans", out_spans as f64, "count"),
    ];
    Ok(Layers { metrics, report })
}
