//! The workloads: set-up, the serving call, and the output checks of
//! one repetition, all through the public `tinymlops_core` /
//! `tinymlops_serve` API.
//!
//! The seed draws the traffic (arrivals, features, think times, retry
//! jitter). The platform, its device fleet and the trained model are
//! fixed, so two seeds differ in load, not in hardware or in which
//! variant the router can pick. Every reported quantity except a
//! wall-clock time is a function of the seed.

use crate::calib;
use crate::probes;
use crate::report::RepReport;
use crate::stats::tail_percentile;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tinymlops_core::{Platform, PlatformConfig};
use tinymlops_nn::data::gaussian_blobs;
use tinymlops_nn::model::mlp;
use tinymlops_nn::{fit, Adam, FitConfig};
use tinymlops_observe::LogHistogram;
use tinymlops_registry::{ModelFormat, SemVer};
use tinymlops_serve::{
    ArrivalPattern, BrownoutConfig, ClientPlan, ClientSpec, ControllerConfig, ExecConfig, ExecMode,
    FabricConfig, FabricReport, FaultPlan, GatewayConfig, LoadPlan, ObserveConfig, Request,
    RetryPolicy, ServeConfig, ServeFabric, TenantId, TenantSpec,
};
use tinymlops_tensor::TensorRng;

/// Per-request latency SLO for every workload: 2^16 µs (65.5 ms). A
/// power of two is a bucket boundary of `observe::LogHistogram`, so the
/// count of open-loop requests served within the deadline is exact.
pub const DEADLINE_US: u64 = 1 << 16;

/// Prepaid queries per tenant: enough that no workload exhausts quota.
const PREPAID: u64 = 50_000_000;

/// Seed of everything the workload seed does not draw: platform keys,
/// the device fleet, the training data and the model's initial weights.
const PLATFORM_SEED: u64 = 0x7e57_5eed;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Deterministic closed-loop client population, one thread.
    FleetClosedLoop,
    /// Trained MLP served by real kernels on the threaded backend.
    InferenceLive,
    /// Flash crowd at several times capacity through the simulator.
    OverloadSim,
    /// The same flash crowd on the threaded backend, where `run_live`
    /// can hang; runnable by name, not part of `BENCHMARK.json`.
    OverloadLive,
}

impl Workload {
    /// The benchmark's workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetClosedLoop,
        Workload::InferenceLive,
        Workload::OverloadSim,
    ];

    /// Workloads runnable by name that the benchmark does not list.
    pub const EXTRA: [Workload; 1] = [Workload::OverloadLive];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetClosedLoop => "fleet_closed_loop",
            Workload::InferenceLive => "inference_live",
            Workload::OverloadSim => "overload_sim",
            Workload::OverloadLive => "overload_live",
        }
    }

    /// Look a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .chain(Workload::EXTRA)
            .find(|w| w.name() == name)
    }

    /// One-line reason the workload exists (as in `BENCHMARK.json`).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::FleetClosedLoop => {
                "Closed-loop simulator hot path: admission, metering, batching, routing, LRU cache \
                 and retries, with no kernel or worker thread."
            }
            Workload::InferenceLive => {
                "A trained MLP served by real nn/quant/tensor kernels on node threads; publish \
                 dominates set-up."
            }
            Workload::OverloadSim => {
                "Flash crowd at several times capacity through the simulator: shedding, refunds, \
                 brownout and the fleet controller dominate."
            }
            Workload::OverloadLive => {
                "The overload flash crowd on node threads: reproduces the run_live lost wake-up \
                 under heavy shedding."
            }
        }
    }

    /// Whether the serving call's wall-clock rates are host-speed
    /// corrected (see [`crate::calib`]): the simulator workloads, whose
    /// one serving thread waits on memory as the reference loop does.
    /// The kernels of `inference_live` are compute-bound on `nproc`
    /// threads, and the reference only added noise there.
    #[must_use]
    pub fn host_corrected(self) -> bool {
        matches!(self, Workload::FleetClosedLoop | Workload::OverloadSim)
    }

    /// Whether the serving call runs on the threaded backend.
    #[must_use]
    pub fn live(self) -> bool {
        matches!(self, Workload::InferenceLive | Workload::OverloadLive)
    }
}

/// What a child process does after set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Timed repetition: serve, then check outputs.
    Timed,
    /// Once per invocation, untimed: serve, check outputs, and check the
    /// run against a second backend (sim ≡ live, or trace replay).
    Parity,
    /// Timed repetition with spans on, followed by per-layer probes.
    Traced,
}

impl Mode {
    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Parity => "parity",
            Mode::Traced => "traced",
        }
    }

    /// Look a mode up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Mode> {
        [Mode::Timed, Mode::Parity, Mode::Traced]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// Node threads for the live workloads: one per available core.
#[must_use]
pub fn node_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The shape of one workload instance.
pub(crate) struct Shape {
    pub devices: usize,
    pub tenants: u32,
    pub families: usize,
    pub cfg: FabricConfig,
}

fn shape(workload: Workload) -> Shape {
    let nodes = node_threads();
    match workload {
        Workload::FleetClosedLoop => Shape {
            devices: 320,
            tenants: 1000,
            families: 24,
            cfg: FabricConfig {
                node_weights: vec![1.0; 4],
                serve: ServeConfig {
                    // Below the hot variant set: 24 families of 40 KB
                    // f32 variants per node do not fit in 256 KiB.
                    cache_budget_bytes: 256 * 1024,
                    gateway: GatewayConfig {
                        max_pending_per_tenant: 8,
                        max_total_pending: 256,
                    },
                    ..ServeConfig::default()
                },
                observe: ObserveConfig::enabled(),
                ..FabricConfig::default()
            },
        },
        Workload::InferenceLive => Shape {
            devices: 8,
            tenants: 24,
            families: 1,
            cfg: FabricConfig {
                node_weights: vec![1.0; nodes],
                serve: ServeConfig {
                    gateway: GatewayConfig {
                        max_pending_per_tenant: 2,
                        max_total_pending: 16,
                    },
                    ..ServeConfig::default()
                },
                ..FabricConfig::default()
            },
        },
        Workload::OverloadSim | Workload::OverloadLive => Shape {
            devices: 12,
            tenants: 1000,
            families: 24,
            cfg: FabricConfig {
                // The simulator's fleet does not depend on the host.
                node_weights: vec![1.0; if workload.live() { nodes } else { 2 }],
                serve: ServeConfig {
                    gateway: GatewayConfig {
                        max_pending_per_tenant: 4,
                        max_total_pending: 64,
                    },
                    ..ServeConfig::default()
                },
                fault: FaultPlan {
                    enabled: true,
                    events: Vec::new(),
                    brownout: BrownoutConfig::enabled(),
                },
                controller: ControllerConfig {
                    interval_us: 100_000,
                    tenant_cooldown_us: 250_000,
                    scale_cooldown_us: 300_000,
                    standby_weights: vec![1.0],
                    ..ControllerConfig::enabled()
                },
                ..FabricConfig::default()
            },
        },
    }
}

/// Window of each host-speed reference taken around the serving call.
const CALIB_WINDOW: Duration = Duration::from_millis(250);

/// Closed-loop population: clients, think time and issue window.
const CLIENTS: usize = 20_000;
const THINK_US: f64 = 450_000.0;
const CLOSED_WINDOW_US: u64 = 2_000_000;

/// Inference trace: offered rate and window.
const INFER_RPS: f64 = 15_000.0;
const INFER_WINDOW_US: u64 = 800_000;
const INFER_DIM: usize = 256;
const INFER_CLASSES: usize = 8;

/// Overload trace: baseline rate, window and the flash crowd on it.
const OVERLOAD_RPS: f64 = 40_000.0;
const OVERLOAD_WINDOW_US: u64 = 5_000_000;

/// The serving input of one repetition.
pub(crate) enum Input {
    /// An arrival-ordered open-loop stream.
    Stream(Vec<Request>),
    /// A closed-loop client population.
    Clients(ClientPlan),
}

/// Everything set-up produced.
pub(crate) struct Prepared {
    pub workload: Workload,
    pub platform: Platform,
    pub shape: Shape,
    pub load: LoadPlan,
    pub input: Input,
    pub fabric: ServeFabric,
}

impl Prepared {
    /// Family name of family index `f`.
    pub fn family(&self, f: usize) -> String {
        family_name(self.workload, f)
    }

    /// The meter key a tenant's audit chain is keyed with.
    pub fn meter_key(&self, tenant: TenantId) -> [u8; 32] {
        tinymlops_ipp::encrypt::device_key(&self.platform.master_key(), tenant)
    }

    /// Build another fabric identical to the one set-up built.
    pub fn build_fabric(&mut self) -> ServeFabric {
        self.platform
            .build_fabric(&self.load, &self.shape.cfg)
            .expect("fabric build")
    }
}

fn family_name(workload: Workload, f: usize) -> String {
    match workload {
        Workload::InferenceLive => "blobs".to_string(),
        _ => format!("fam{f:02}"),
    }
}

/// Register a cost-model family (f32 base, int8 and int2 variants) in
/// the platform registry: records only, so the router selects and the
/// cache holds them but no kernel runs.
fn register_synthetic(platform: &Platform, name: &str) {
    let version = SemVer::new(1, 0, 0);
    let metrics = |acc: f64| BTreeMap::from([("accuracy".to_string(), acc)]);
    let base = platform.registry.register(
        name,
        version,
        ModelFormat::F32,
        None,
        Vec::new(),
        40_000,
        100_000,
        metrics(0.96),
        vec![],
        0,
    );
    for (bits, size, acc) in [(8, 10_000, 0.95), (2, 2_500, 0.88)] {
        platform.registry.register(
            name,
            version,
            ModelFormat::Quantized { bits },
            Some(base),
            Vec::new(),
            size,
            100_000,
            metrics(acc),
            vec![],
            0,
        );
    }
}

fn tenant_plan(workload: Workload, seed: u64, s: &Shape) -> LoadPlan {
    let (total_rps, window_us, feature_dim) = match workload {
        // Rates are unused by the closed loop; the plan only provisions.
        Workload::FleetClosedLoop => (f64::from(s.tenants), CLOSED_WINDOW_US, 0),
        Workload::InferenceLive => (INFER_RPS, INFER_WINDOW_US, INFER_DIM),
        Workload::OverloadSim | Workload::OverloadLive => (OVERLOAD_RPS, OVERLOAD_WINDOW_US, 0),
    };
    LoadPlan {
        tenants: (0..s.tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: total_rps / f64::from(s.tenants),
                model: family_name(workload, i as usize % s.families),
                prepaid_queries: PREPAID,
                deadline_us: DEADLINE_US,
            })
            .collect(),
        duration_us: window_us,
        seed,
        feature_dim,
    }
}

fn client_plan(seed: u64, s: &Shape) -> ClientPlan {
    ClientPlan {
        clients: (0..CLIENTS)
            .map(|c| {
                let tenant = (c as u32 % s.tenants) + 1;
                ClientSpec {
                    tenant,
                    model: family_name(
                        Workload::FleetClosedLoop,
                        (tenant - 1) as usize % s.families,
                    ),
                    think_mean_us: THINK_US,
                    deadline_us: DEADLINE_US,
                }
            })
            .collect(),
        duration_us: CLOSED_WINDOW_US,
        seed,
        feature_dim: 0,
        retry: RetryPolicy {
            seed: seed ^ 0x5eed_fa11,
            ..RetryPolicy::default()
        },
    }
}

/// Set up one repetition: platform, catalog, fabric with voucher-funded
/// tenants, and the serving input.
pub(crate) fn setup(workload: Workload, seed: u64, t: &Tracer) -> Prepared {
    let shape = shape(workload);
    let mut platform = t.span("setup.core.platform", || {
        Platform::new(&PlatformConfig {
            fleet_size: shape.devices,
            seed: PLATFORM_SEED,
            signer_height: 2,
        })
    });
    match workload {
        Workload::InferenceLive => {
            let data = t.span("setup.nn.data", || {
                gaussian_blobs(600, INFER_CLASSES, INFER_DIM, 1.0, PLATFORM_SEED)
            });
            let (train, test) = data.split(0.8, PLATFORM_SEED);
            let model = t.span("setup.nn.fit", || {
                let mut rng = TensorRng::seed(PLATFORM_SEED);
                let mut model = mlp(&[INFER_DIM, 256, 256, INFER_CLASSES], &mut rng);
                let mut opt = Adam::new(0.002);
                fit(
                    &mut model,
                    &train,
                    &mut opt,
                    &FitConfig {
                        epochs: 2,
                        batch_size: 32,
                        seed: PLATFORM_SEED,
                        verbose: false,
                    },
                );
                model
            });
            t.span("setup.registry.publish", || {
                platform
                    .publish("blobs", &model, SemVer::new(1, 0, 0), &train, &test)
                    .expect("publish")
            });
        }
        _ => t.span("setup.registry.register", || {
            for f in 0..shape.families {
                register_synthetic(&platform, &family_name(workload, f));
            }
        }),
    }
    let load = tenant_plan(workload, seed, &shape);
    let fabric = t.span("setup.core.build_fabric", || {
        platform
            .build_fabric(&load, &shape.cfg)
            .expect("fabric build")
    });
    let input = t.span("setup.loadgen.generate", || match workload {
        Workload::FleetClosedLoop => Input::Clients(client_plan(seed, &shape)),
        Workload::InferenceLive => Input::Stream(load.generate()),
        Workload::OverloadSim | Workload::OverloadLive => {
            let w = OVERLOAD_WINDOW_US;
            Input::Stream(load.generate_shaped(&ArrivalPattern::FlashCrowd {
                at_us: w / 4,
                ramp_us: w / 16,
                hold_us: w / 4,
                decay_us: w / 16,
                peak: 4.0,
            }))
        }
    });
    Prepared {
        workload,
        platform,
        shape,
        load,
        input,
        fabric,
    }
}

/// What the serving call returned.
pub(crate) enum Served {
    Closed(tinymlops_serve::ClosedLoopReport),
    Sim(FabricReport),
    Live(tinymlops_serve::LiveReport),
}

impl Served {
    pub fn fabric(&self) -> &FabricReport {
        match self {
            Served::Closed(r) => &r.fabric,
            Served::Sim(r) => r,
            Served::Live(r) => &r.fabric,
        }
    }
}

/// The live executor configuration every live workload uses.
#[must_use]
pub fn exec_config() -> ExecConfig {
    ExecConfig {
        mode: ExecMode::Replay,
        queue_capacity: 1024,
    }
}

/// Run one repetition in this process and report it. `announce` is
/// called with the number of first attempts before the serving call, so
/// a parent can account a run that never returns.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    mode: Mode,
    t: &Tracer,
    announce: impl Fn(u64),
) -> RepReport {
    let setup_start = Instant::now();
    let mut p = t.span("setup", || setup(workload, seed, t));
    let setup_s = setup_start.elapsed().as_secs_f64();
    if let Input::Stream(stream) = &p.input {
        announce(stream.len() as u64);
    } else {
        // The closed loop's first attempts are only known afterwards;
        // announce the population as a lower bound.
        announce(CLIENTS as u64);
    }

    let corrected = workload.host_corrected();
    let before = if corrected {
        calib::rate(CALIB_WINDOW)
    } else {
        0.0
    };
    let serve_start = Instant::now();
    let served = match &p.input {
        Input::Clients(plan) => t.span("serve.run_closed_loop", || {
            Served::Closed(p.fabric.run_closed_loop(plan).expect("closed loop"))
        }),
        Input::Stream(stream) if workload.live() => t.span("serve.run_live", || {
            Served::Live(p.fabric.run_live(stream, &exec_config()).expect("live run"))
        }),
        Input::Stream(stream) => t.span("serve.run", || {
            Served::Sim(p.fabric.run(stream).expect("sim run"))
        }),
    };
    let serve_s = serve_start.elapsed().as_secs_f64();
    let host_speed = if corrected {
        calib::speed(before, calib::rate(CALIB_WINDOW))
    } else {
        0.0
    };

    let mut r = RepReport {
        setup_s,
        serve_s,
        host_speed,
        ..RepReport::default()
    };
    fill_outcome(&p, &served, &mut r);
    t.span("check", || {
        check_outputs(&p, &served, t, &mut r);
        if mode == Mode::Parity {
            check_parity(&mut p, &served, t, &mut r);
        }
    });
    if mode == Mode::Traced {
        t.span("probe", || probes::layers(&mut p, &served, t, &mut r));
    }
    r.peak_rss_mb = peak_rss_mb();
    r
}

/// Counts, goodput and SLO percentiles from the serving call.
fn fill_outcome(p: &Prepared, served: &Served, r: &mut RepReport) {
    let fleet = &served.fabric().fleet;
    match served {
        Served::Closed(c) => {
            let cl = &c.clients;
            r.first_attempts = cl.issued;
            r.deliveries = cl.pushes();
            r.served = cl.served;
            r.goodput = cl.goodput;
            r.shed_final = cl.shed_final;
            r.lost = cl.lost;
            r.slo_samples = cl.served;
            for (slot, wanted) in r.slo.iter_mut().zip([50.0, 99.0]) {
                if let Some(pct) = tail_percentile(cl.served, wanted) {
                    *slot = (pct, cl.latency_us(pct) as f64 / 1e3);
                }
            }
        }
        Served::Sim(_) | Served::Live(_) => {
            let arrivals = match &p.input {
                Input::Stream(s) => s.len() as u64,
                Input::Clients(_) => unreachable!("open-loop workloads replay streams"),
            };
            r.first_attempts = arrivals;
            r.deliveries = fleet.served + fleet.shed_total;
            r.served = fleet.served;
            r.shed_final = fleet.shed_total;
            r.lost = match served {
                Served::Live(live) => live.failures.iter().map(|f| f.lost_requests).sum(),
                _ => 0,
            };
            r.goodput = served_before(&served.fabric().latency_hist, DEADLINE_US);
            r.slo_samples = fleet.served;
            for (slot, wanted) in r.slo.iter_mut().zip([50.0, 99.0]) {
                if let Some(pct) = tail_percentile(fleet.served, wanted) {
                    // The report's own percentiles are exact; other
                    // percentiles come from the merged histogram.
                    let ms = if pct == 50.0 {
                        fleet.p50_ms
                    } else if pct == 99.0 {
                        fleet.p99_ms
                    } else {
                        served.fabric().latency_hist.quantile(pct) as f64 / 1e3
                    };
                    *slot = (pct, ms);
                }
            }
        }
    }
}

/// Samples strictly below `bound_us`, exact when `bound_us` is a bucket
/// boundary of the fixed histogram layout (every power of two ≥ 32 is).
fn served_before(hist: &LogHistogram, bound_us: u64) -> u64 {
    let mut probe = LogHistogram::new();
    probe.record(bound_us);
    let bound_index = probe.to_summary().buckets[0].index;
    hist.to_summary()
        .buckets
        .iter()
        .filter(|b| b.index < bound_index)
        .map(|b| b.count)
        .sum()
}

/// The per-run output checks; each failure is recorded by name.
fn check_outputs(p: &Prepared, served: &Served, t: &Tracer, r: &mut RepReport) {
    let report = served.fabric();
    let fleet = &report.fleet;
    t.span("check.conservation", || {
        // Arrivals at the fabric: the stream, or every closed-loop
        // delivery (first attempts plus retries).
        let arrivals = match served {
            Served::Closed(c) => c.clients.pushes(),
            Served::Sim(_) | Served::Live(_) => r.first_attempts,
        };
        if fleet.served + fleet.shed_total != arrivals {
            r.failures.push(format!(
                "served {} + shed {} != arrivals {arrivals}",
                fleet.served, fleet.shed_total
            ));
        }
        if let Served::Closed(c) = served {
            let cl = &c.clients;
            if cl.served + cl.shed_final + cl.lost != cl.issued {
                r.failures.push(format!(
                    "client served {} + shed {} + lost {} != issued {}",
                    cl.served, cl.shed_final, cl.lost, cl.issued
                ));
            }
        }
        if let Served::Live(live) = served {
            if !live.failures.is_empty() {
                r.failures
                    .push(format!("{} node worker(s) died", live.failures.len()));
            }
        }
    });
    t.span("check.meter.refunds", || {
        if !report.refunds_balance() || report.unrefunded_sheds() != 0 {
            r.failures.push(format!(
                "refunds {} vs downstream sheds {} (unrefunded {})",
                report.refunds,
                report.downstream_sheds(),
                report.unrefunded_sheds()
            ));
        }
    });
    t.span("check.meter.census", || {
        // Prepaid quota is neither burned nor minted, and the net charge
        // (queries consumed minus refunded) is exactly the work served.
        let census = p.fabric.quota_census();
        let spent: u64 = census.iter().map(|q| q.consumed - q.refunded).sum();
        let left: u64 = census.iter().map(|q| q.balance).sum();
        let prepaid: u64 = p.load.tenants.iter().map(|t| t.prepaid_queries).sum();
        if spent + left != prepaid || spent != fleet.served {
            r.failures.push(format!(
                "quota census: spent {spent} + left {left} vs prepaid {prepaid}; \
                 spent vs served {}",
                fleet.served
            ));
        }
    });
    t.span("check.meter.verify_chains", || {
        match p.fabric.verify_chains(|tenant| p.meter_key(tenant)) {
            Ok(checked) if checked == p.load.tenants.len() => {}
            Ok(checked) => r.failures.push(format!(
                "{checked} audit chains verified, {} tenants provisioned",
                p.load.tenants.len()
            )),
            Err(e) => r.failures.push(format!("audit chain broken: {e}")),
        }
    });
    if p.workload == Workload::InferenceLive {
        t.span("check.kernel.real_predictions", || {
            if fleet.real_predictions != fleet.served {
                r.failures.push(format!(
                    "real predictions {} != served {}",
                    fleet.real_predictions, fleet.served
                ));
            }
        });
    }
}

/// The once-per-invocation checks: a Replay run equals the simulator on
/// the same trace; a simulator run repeats exactly on a twin fabric; a
/// closed-loop trace replays through `run` to the same fabric report.
fn check_parity(p: &mut Prepared, served: &Served, t: &Tracer, r: &mut RepReport) {
    let mut twin = p.build_fabric();
    match (served, &p.input) {
        (Served::Closed(c), _) => t.span("check.parity.trace_replay", || {
            let replay = twin.run(&c.trace).expect("trace replay");
            if replay != c.fabric {
                r.failures
                    .push("closed-loop trace replay differs from the run".into());
            }
        }),
        (Served::Live(live), Input::Stream(stream)) => t.span("check.parity.sim", || {
            let sim = twin.run(stream).expect("sim replay");
            if sim != live.fabric {
                r.failures
                    .push("live Replay report differs from the simulator's".into());
            }
        }),
        (Served::Sim(report), Input::Stream(stream)) => t.span("check.parity.rerun", || {
            let again = twin.run(stream).expect("sim rerun");
            if &again != report {
                r.failures
                    .push("simulator run differs on a twin fabric".into());
            }
        }),
        (Served::Sim(_) | Served::Live(_), Input::Clients(_)) => {
            unreachable!("open-loop workloads replay streams")
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
