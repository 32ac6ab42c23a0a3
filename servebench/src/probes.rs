//! Per-layer metrics of the traced run.
//!
//! Counters come straight from the run's reports. Per-call costs come
//! from probes that replay the workload's own inputs (its arrival
//! stream, or the closed loop's delivered trace) through each layer's
//! public functions in isolation, each probe inside its own span. A
//! layer's *share* is its probe cost times the number of calls the run
//! made, over the serving call's thread-time: an estimate that says
//! where the time goes, not a measurement inside the run.

use crate::report::RepReport;
use crate::trace::Tracer;
use crate::workloads::{exec_config, Input, Prepared, Served, Workload};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use tinymlops_crypto::hmac::hmac_sha256;
use tinymlops_observe::LogHistogram;
use tinymlops_registry::{ModelFormat, ModelId, SemVer};
use tinymlops_serve::{
    ControlAction, ExecModel, Gateway, IngestQueue, MicroBatcher, ModelCache, PushOutcome, Request,
    Router, ShedReason,
};
use tinymlops_tensor::Tensor;

/// Requests replayed through each per-call probe (a prefix of the input).
const PROBE_REQUESTS: usize = 200_000;
/// Minimum wall time one kernel probe measures.
const KERNEL_PROBE_NS: u128 = 50_000_000;

/// Fill `r.layers` with the per-layer metrics of this run (the parent
/// reports a metric this run has no value for as 0).
pub(crate) fn layers(p: &mut Prepared, served: &Served, t: &Tracer, r: &mut RepReport) {
    let requests: Vec<Request> = match (&p.input, served) {
        (Input::Stream(s), _) => s.iter().take(PROBE_REQUESTS).cloned().collect(),
        (Input::Clients(_), Served::Closed(c)) => {
            c.trace.iter().take(PROBE_REQUESTS).cloned().collect()
        }
        (Input::Clients(_), _) => unreachable!("closed loops report their trace"),
    };
    let report = served.fabric();
    let fleet = &report.fleet;
    let mut m = |name: &str, v: f64| {
        r.layers.insert(name.to_string(), v);
    };

    // Set-up steps, from their spans.
    m("nn.fit_s", t.seconds("setup.nn.fit"));
    m("registry.publish_s", t.seconds("setup.registry.publish"));
    m("core.build_s", t.seconds("setup.core.build_fabric"));
    m("loadgen.generate_s", t.seconds("setup.loadgen.generate"));

    // Gateway and meter.
    let admitted = report
        .telemetry
        .counters
        .get("serve.admitted")
        .copied()
        .unwrap_or(0);
    m("gateway.admitted", admitted as f64);
    for (name, reason) in [
        ("gateway.shed.quota", ShedReason::QuotaExhausted),
        ("gateway.shed.tenant_bp", ShedReason::TenantBackpressure),
        ("gateway.shed.overload", ShedReason::Overload),
        ("gateway.shed.no_route", ShedReason::NoRoute),
        ("gateway.shed.deadline", ShedReason::DeadlineExpired),
        ("gateway.shed.failover", ShedReason::Failover),
    ] {
        m(name, fleet.shed_by(reason) as f64);
    }
    let audit_entries: usize = p
        .fabric
        .nodes()
        .iter()
        .flat_map(|n| n.plane.gateway.accounts())
        .map(|(_, a)| a.quota.log().len())
        .sum();
    m("meter.audit_entries", audit_entries as f64);
    m("meter.refunds", report.refunds as f64);
    m("meter.verify_s", t.seconds("check.meter.verify_chains"));
    let admit_ns = t.span("probe.gateway.admit", || probe_admit(p, &requests));
    m("gateway.admit_ns", admit_ns);
    let hmac_ns = t.span("probe.crypto.hmac", || probe_hmac(requests.len()));
    m("crypto.hmac_ns", hmac_ns);

    // Batcher, cache, router, observability.
    m("batcher.batches", fleet.batches as f64);
    m("batcher.mean_batch", fleet.mean_batch);
    let push_ns = t.span("probe.batcher.push_flush", || probe_batcher(p, &requests));
    m("batcher.push_flush_ns", push_ns);
    m("cache.hit_rate", fleet.cache_hit_rate);
    let evictions: u64 = p
        .fabric
        .nodes()
        .iter()
        .map(|n| n.plane.cache.evictions())
        .sum();
    m("cache.evictions", evictions as f64);
    let route_ns = t.span("probe.router.route", || probe_router(p, &requests));
    m("router.route_ns", route_ns);
    let nodes = p.fabric.node_count();
    m(
        "router.devices_per_node",
        p.platform.fleet.devices.len() as f64 / nodes as f64,
    );
    let hist_ns = t.span("probe.observe.hist_record", || probe_hist(&requests));
    m("observe.hist_record_ns", hist_ns);
    let trace_events: usize = report.traces.iter().map(|(_, ev)| ev.len()).sum();
    m("observe.trace_events", trace_events as f64);
    m("observe.alarms", report.alarms.len() as f64);

    // Closed loop and retries.
    let (issued, retries, denied) = match served {
        Served::Closed(c) => {
            let cl = &c.clients;
            (
                cl.issued,
                cl.retries,
                cl.retry.deadline_denied + cl.retry.budget_denied + cl.retry.attempts_exhausted,
            )
        }
        Served::Sim(_) | Served::Live(_) => (0, 0, 0),
    };
    m("closedloop.issued", issued as f64);
    m("closedloop.retries", retries as f64);
    m("closedloop.retry_denied", denied as f64);

    // Controller.
    let count = |f: &dyn Fn(&ControlAction) -> bool| {
        report.control.iter().filter(|c| f(&c.action)).count() as f64
    };
    m("controller.actions", report.control.len() as f64);
    m(
        "controller.migrate",
        count(&|a| matches!(a, ControlAction::Migrate { .. })),
    );
    m(
        "controller.join",
        count(&|a| matches!(a, ControlAction::Join { .. })),
    );
    m(
        "controller.drain",
        count(&|a| matches!(a, ControlAction::Drain { .. })),
    );
    m(
        "controller.brownout",
        count(&|a| matches!(a, ControlAction::Brownout { .. })),
    );

    // Executor.
    m("exec.wall_s", r.serve_s);
    let (speedup, failures, handoff_ns) = match served {
        Served::Live(live) => {
            let sim_s = t.span("probe.exec.sim_replay", || {
                let mut twin = p.build_fabric();
                let Input::Stream(stream) = &p.input else {
                    unreachable!("live workloads replay streams")
                };
                let start = Instant::now();
                black_box(twin.run(stream).expect("sim replay"));
                start.elapsed().as_secs_f64()
            });
            let handoff = t.span("probe.exec.handoff", || probe_handoff(&requests));
            (sim_s / r.serve_s, live.failures.len(), handoff)
        }
        Served::Closed(_) | Served::Sim(_) => (0.0, 0, 0.0),
    };
    m("exec.speedup_vs_sim", speedup);
    m("exec.node_failures", failures as f64);
    m("exec.handoff_ns", handoff_ns);

    // Kernels: only the inference workload installs executables.
    let mut row_ns = Vec::new();
    let (mut macs, mut weight_bytes) = (0.0, 0.0);
    if p.workload == Workload::InferenceLive {
        let resident: BTreeSet<ModelId> = p
            .fabric
            .nodes()
            .iter()
            .flat_map(|n| n.plane.cache.resident_lru_order().iter().copied())
            .collect();
        let batch = fleet.mean_batch.round().max(1.0) as usize;
        for id in &resident {
            let record = p.platform.registry.get(*id).expect("resident record");
            let model = match record.format {
                ModelFormat::F32 => p.platform.registry.load_model(*id).ok().map(ExecModel::F32),
                ModelFormat::Quantized { .. } => p
                    .platform
                    .registry
                    .load_quantized(*id)
                    .ok()
                    .map(ExecModel::Quantized),
                _ => None,
            };
            let Some(model) = model else { continue };
            let name = record.format.name();
            let ns = t.span(&format!("probe.kernel.predict.{name}"), || {
                probe_predict(&model, &requests, batch)
            });
            m(&format!("kernel.predict_ns_per_row.{name}"), ns);
            row_ns.push(ns);
            weight_bytes += record.size_bytes as f64;
        }
        macs = p
            .platform
            .registry
            .latest_base(&p.family(0))
            .map_or(0.0, |b| b.macs as f64);
    }
    m("kernel.predictions", fleet.real_predictions as f64);
    m("kernel.macs_per_row", macs);
    m("kernel.weight_bytes", weight_bytes);

    // Shares of the serving call's thread-time (node threads on the live
    // backend, the one driver thread in the simulator).
    let threads = if p.workload.live() { nodes as f64 } else { 1.0 };
    let budget_ns = r.serve_s * 1e9 * threads;
    let mean_row_ns = if row_ns.is_empty() {
        0.0
    } else {
        row_ns.iter().sum::<f64>() / row_ns.len() as f64
    };
    // The probe admits every request; a request shed at the door never
    // reaches the audit chain, so only admitted ones pay the probe cost.
    m("share.gateway", admit_ns * admitted as f64 / budget_ns);
    m("share.batcher", push_ns * admitted as f64 / budget_ns);
    m("share.router", route_ns * fleet.batches as f64 / budget_ns);
    m(
        "share.kernel",
        mean_row_ns * fleet.real_predictions as f64 / budget_ns,
    );
    // The feeder is one thread: its share is of the wall time.
    m(
        "share.handoff",
        handoff_ns * r.first_attempts as f64 / (r.serve_s * 1e9),
    );
}

/// Per-request cost of `Gateway::admit` + `resolve` (one HMAC-linked
/// audit entry each) on a fresh gateway holding the workload's tenants.
fn probe_admit(p: &Prepared, requests: &[Request]) -> f64 {
    let mut gateway = Gateway::new(p.shape.cfg.serve.gateway.clone());
    for (serial, tenant) in p.load.tenants.iter().enumerate() {
        gateway.register_tenant(tenant.id, p.meter_key(tenant.id));
        gateway
            .credit(tenant.id, tenant.prepaid_queries, serial as u64 + 1, 0)
            .expect("tenant registered");
    }
    per_item_ns(requests.len(), || {
        for r in requests {
            if gateway.admit(r).is_ok() {
                gateway.resolve(r.tenant);
            }
        }
    })
}

/// Cost of one HMAC-SHA256 over an audit-entry-sized message.
fn probe_hmac(n: usize) -> f64 {
    let key = [7u8; 32];
    let mut msg = [0u8; 64];
    per_item_ns(n, || {
        for i in 0..n {
            msg[..8].copy_from_slice(&(i as u64).to_le_bytes());
            black_box(hmac_sha256(&key, &msg));
        }
    })
}

/// Per-request cost of `MicroBatcher::push` plus a `flush_due` check at
/// the request's arrival, over the input in arrival order.
fn probe_batcher(p: &Prepared, requests: &[Request]) -> f64 {
    let mut batcher = MicroBatcher::new(p.shape.cfg.serve.batch.clone());
    let families: Vec<String> = (0..p.shape.families).map(|f| p.family(f)).collect();
    let family_of = |tenant: u32| families[(tenant as usize - 1) % families.len()].as_str();
    let owned: Vec<Request> = requests.to_vec();
    let mut batches = 0u64;
    let ns = per_item_ns(owned.len(), || {
        for r in owned {
            let (tenant, at) = (r.tenant, r.arrival_us);
            if let PushOutcome::Flushed(_) = batcher.push(r) {
                batches += 1;
            }
            if batcher.flush_due(family_of(tenant), at).is_some() {
                batches += 1;
            }
        }
    });
    black_box(batches);
    ns
}

/// Per-call cost of `Router::route_affine` (with the workload's cache
/// budget) plus `occupy`, on the first node's share of the fleet.
fn probe_router(p: &Prepared, requests: &[Request]) -> f64 {
    let serve = &p.shape.cfg.serve;
    let nodes = p.shape.cfg.node_weights.len() + p.shape.cfg.controller.standby_weights.len();
    let fleet = p.platform.fleet.partition(nodes).swap_remove(0);
    let mut router = Router::new(fleet, serve.requirements.clone());
    let version = SemVer::new(1, 0, 0);
    let families: Vec<String> = (0..p.shape.families).map(|f| p.family(f)).collect();
    for name in &families {
        let mut records = p.platform.registry.family_at(name, version);
        records.sort_by_key(|r| r.id);
        router.refresh_family(name, &records);
    }
    let mut cache = ModelCache::new(serve.cache_budget_bytes);
    per_item_ns(requests.len(), || {
        for r in requests {
            let family = &families[(r.tenant as usize - 1) % families.len()];
            if let Some(route) =
                router.route_affine(family, r.arrival_us, &cache, serve.cache_load_bytes_per_ms)
            {
                let done = r.arrival_us + (route.selection.latency_ms * 1e3) as u64;
                router.occupy(route.device_index, done);
                if cache.get(route.selection.record.id).is_none() {
                    cache.admit(route.selection.record.clone());
                }
            }
        }
    })
}

/// Per-sample cost of `LogHistogram::record` over the input's
/// inter-arrival gaps.
fn probe_hist(requests: &[Request]) -> f64 {
    let mut hist = LogHistogram::new();
    let ns = per_item_ns(requests.len(), || {
        let mut prev = 0;
        for r in requests {
            hist.record(r.arrival_us - prev);
            prev = r.arrival_us;
        }
    });
    black_box(hist.count());
    ns
}

/// Per-item cost of moving the input through one `IngestQueue` from a
/// feeder thread to a consumer thread at the live executor's capacity.
fn probe_handoff(requests: &[Request]) -> f64 {
    let queue = IngestQueue::new(exec_config().queue_capacity);
    let owned: Vec<Request> = requests.to_vec();
    let n = owned.len();
    per_item_ns(n, || {
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut popped = 0usize;
                while queue.pop().is_some() {
                    popped += 1;
                }
                popped
            });
            for r in owned {
                queue.push(r);
            }
            queue.close();
            assert_eq!(consumer.join().expect("consumer"), n);
        });
    })
}

/// Per-row cost of `ExecModel::predict` at `batch` rows drawn from the
/// input's features, repeated for at least [`KERNEL_PROBE_NS`].
fn probe_predict(model: &ExecModel, requests: &[Request], batch: usize) -> f64 {
    let rows: Vec<&Vec<f32>> = requests
        .iter()
        .filter_map(|r| r.features.as_ref())
        .take(batch)
        .collect();
    let dim = rows.first().map_or(0, |r| r.len());
    if rows.is_empty() || dim == 0 {
        return 0.0;
    }
    let x = Tensor::from_vec(
        rows.iter().flat_map(|r| r.iter().copied()).collect(),
        &[rows.len(), dim],
    );
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || start.elapsed().as_nanos() < KERNEL_PROBE_NS {
        black_box(model.predict(&x));
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / (calls as f64 * rows.len() as f64)
}

/// Nanoseconds per item of running `f` over `n` items.
fn per_item_ns(n: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}
