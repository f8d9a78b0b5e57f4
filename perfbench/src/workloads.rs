//! The three workloads. Each builds its serving stack from the public API,
//! drives seeded load, checks every answer, and returns its metrics.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use pir_prf::PrfKind;
use pir_serve::{PirServeRuntime, ServeHandle, StatsSnapshot};
use pir_wire::PirSession;
use rand::rngs::StdRng;
use rand::Rng;

use crate::drive::{self, Interval, Schedule};
use crate::ledger::{self, ClusterCounters, Ledger, SessionCounters, HOT_SHAPE};
use crate::measure::{
    median, ms_since, nproc, p99_of_parts, peak_rss_mb, percentile, Meter, Phase,
};
use crate::stack::{self, Cluster, Node, Shape, TABLE, TENANT};
use crate::trace::Tracer;
use crate::truth::{indices, payload, seeded_table, stream, Truth};

pub type Metric = (&'static str, f64, &'static str);

pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run is traced.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

/// Set-ups timed per run: at least `SETUPS`, and more until `SETUP_SPAN`
/// has passed, so a set-up of a few ms is not timed in one short moment of
/// a shared host. Each warms up with the same queries; the median is
/// reported.
const SETUPS: usize = 5;
const SETUP_SPAN: Duration = Duration::from_secs(1);
/// Answers completed in the first part of a closed loop are left out of
/// its throughput: the window is still filling.
const RAMP: Duration = Duration::from_millis(250);
/// How long unloaded writes are timed after rec-cluster's measured phase.
/// They run back to back: writes spaced by idle gaps each started from a
/// cold host, and their median moved more between runs on a shared host.
const WRITES_FOR: Duration = Duration::from_millis(3600);

/// Each write timed until `update_entry` returned and until a private read
/// of the written row returned the new bytes.
#[derive(Default)]
struct Writes {
    returned_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    /// Read-backs that did not return the written bytes.
    wrong: u64,
}

impl Writes {
    fn record(&mut self, issued: Instant, returned: Instant, visible: Instant, read_back_ok: bool) {
        self.returned_ms.push(ms_since(issued, returned));
        self.visible_ms.push(ms_since(issued, visible));
        self.wrong += u64::from(!read_back_ok);
    }

    /// Write `bytes` to row `index` through `handle`, then read the row back
    /// privately; the read must return the bytes at the version the write
    /// created.
    fn write_and_read_back(
        &mut self,
        handle: &ServeHandle,
        truth: &Mutex<Truth>,
        index: u64,
        bytes: Vec<u8>,
        tracer: &mut Tracer,
    ) {
        let version = truth
            .lock()
            .expect("truth")
            .record_write(index, bytes.clone());
        let issued = Instant::now();
        handle
            .update_entry(TABLE, index, &bytes)
            .expect("update_entry");
        let returned = Instant::now();
        let (row, answered_at) = handle
            .query(TABLE, TENANT, index)
            .expect("admitted")
            .wait_versioned()
            .expect("read back");
        let visible = Instant::now();
        self.record(
            issued,
            returned,
            visible,
            answered_at == version && row == bytes,
        );
        if tracer.traces_at(issued) {
            let span = tracer.record("write", 0, 0, issued, visible);
            tracer.record("serve.update_entry", span, 0, issued, returned);
        }
    }
}

/// Build the stack repeatedly, timing each build, and keep the last.
fn set_up<T>(mut build: impl FnMut() -> T, mut tear_down: impl FnMut(T)) -> (f64, T) {
    let mut times = Vec::new();
    let mut kept = None;
    let first = Instant::now();
    while times.len() < SETUPS || first.elapsed() < SETUP_SPAN {
        if let Some(previous) = kept.take() {
            tear_down(previous);
        }
        let start = Instant::now();
        kept = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    println!(
        "setup_s samples: {}, quartiles {:.4} {:.4} {:.4}",
        times.len(),
        percentile(&times, 0.25),
        median(&times),
        percentile(&times, 0.75)
    );
    (median(&times), kept.expect("at least one set-up"))
}

/// First verified answer, then a burst of `burst` queries, so the tile
/// autotune and the plan cache are warm before anything is measured.
/// Returns the number of wrong rows.
fn warm_in_process(handle: &ServeHandle, truth: &Truth, burst: usize, rng: &mut StdRng) -> u64 {
    let check = |index: u64, pending: pir_serve::PendingQuery| {
        let (row, version) = pending.wait_versioned().expect("warm-up answer");
        u64::from(!truth.matches(index, version, &row))
    };
    let first = rng.gen_range(0..truth.table().entries());
    let mut wrong = check(first, handle.query(TABLE, TENANT, first).expect("admitted"));
    let batch = indices(rng, truth.table().entries(), burst);
    let pending: Vec<_> = batch
        .iter()
        .map(|&index| handle.query(TABLE, TENANT, index).expect("admitted"))
        .collect();
    for (index, pending) in batch.into_iter().zip(pending) {
        wrong += check(index, pending);
    }
    wrong
}

/// The session counterpart of [`warm_in_process`].
fn warm_session(
    session: &mut PirSession,
    burst: usize,
    rng: &mut StdRng,
    verify: &dyn Fn(u64, &[u8]) -> bool,
) -> u64 {
    let entries = session.schema(TABLE).expect("table in catalog").entries;
    let first = rng.gen_range(0..entries);
    let row = session.query(TABLE, first, rng).expect("first answer");
    let mut wrong = u64::from(!verify(first, &row));
    let mut submitted = std::collections::HashMap::new();
    for index in indices(rng, entries, burst) {
        submitted.insert(session.submit(TABLE, index, rng).expect("submit"), index);
    }
    for _ in 0..burst {
        let done = session.poll().expect("warm-up answer");
        let row = done.outcome.expect("warm-up row");
        wrong += u64::from(!verify(submitted[&done.query_id], &row));
    }
    wrong
}

/// Serving counters summed over runtimes and diffed across a phase.
struct ServeDelta {
    batches: u64,
    batched: u64,
    busy_ms: f64,
    device_busy_s: f64,
    shed: u64,
    displaced: u64,
    replicas: usize,
    queue_p50_ms: f64,
    queue_p99_ms: f64,
}

impl ServeDelta {
    fn between(before: &[StatsSnapshot], after: &[StatsSnapshot]) -> Self {
        let tables = |snapshots: &[StatsSnapshot]| -> Vec<pir_serve::TableStatsSnapshot> {
            snapshots.iter().flat_map(|s| s.tables.clone()).collect()
        };
        let (before, after) = (tables(before), tables(after));
        let sum = |tables: &[pir_serve::TableStatsSnapshot],
                   f: &dyn Fn(&pir_serve::TableStatsSnapshot) -> f64| {
            tables.iter().map(f).sum::<f64>()
        };
        let diff =
            |f: &dyn Fn(&pir_serve::TableStatsSnapshot) -> f64| sum(&after, f) - sum(&before, f);
        let worst = |f: &dyn Fn(&pir_serve::TableStatsSnapshot) -> Option<f64>| {
            after.iter().filter_map(f).fold(0.0f64, f64::max)
        };
        Self {
            batches: diff(&|t| t.batches as f64) as u64,
            batched: diff(&|t| t.batched_queries as f64) as u64,
            busy_ms: diff(&|t| t.replicas.iter().map(|r| r.busy_ms).sum()),
            device_busy_s: diff(&|t| t.replicas.iter().map(|r| r.device_busy_s).sum()),
            shed: diff(&|t| t.shed as f64) as u64,
            displaced: diff(&|t| t.displaced as f64) as u64,
            replicas: after.iter().map(|t| t.replicas.len()).sum(),
            queue_p50_ms: worst(&|t| t.queue_p50_ms),
            queue_p99_ms: worst(&|t| t.queue_p99_ms),
        }
    }
}

/// Wire counters of the session that carried the load (or, in-process,
/// of the ledger's unloaded session).
struct WireDelta {
    frames_per_query: f64,
    version_retries: u64,
    skew_failures: u64,
    out_of_order: u64,
}

impl WireDelta {
    fn between(before: &SessionCounters, after: &SessionCounters) -> Self {
        let completed = after.pipeline.completed - before.pipeline.completed;
        Self {
            frames_per_query: after.traffic_since(before).0 as f64 / completed.max(1) as f64,
            version_retries: after.pipeline.version_retries - before.pipeline.version_retries,
            skew_failures: after.pipeline.version_skew_failures
                - before.pipeline.version_skew_failures,
            out_of_order: after.pipeline.out_of_order_completions
                - before.pipeline.out_of_order_completions,
        }
    }
}

/// What one measured phase of a workload produced.
struct Measured<'a> {
    /// The phase `p50_ms`, `p99_ms` and the trace overhead come from.
    latency: &'a Phase,
    /// The phase whose attempts `slo_attain` counts.
    slo: &'a Phase,
    /// Generator lateness samples.
    lag: &'a [f64],
    all: &'a Phase,
    qps: f64,
    cpu_s: f64,
    wall_s: f64,
    writes: &'a Writes,
    wire_bytes_per_query: f64,
    setup_s: f64,
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let latencies = m.latency.latencies();
    let (p50, p99) = (percentile(&latencies, 0.5), p99_of_parts(&latencies));
    println!(
        "latency samples: {} (p50 {p50:.3} ms; p99 of all {:.3} ms, median p99 of parts {p99:.3} ms); \
         generator lag p50 {:.4} ms, p99 {:.4} ms over {} samples",
        latencies.len(),
        percentile(&latencies, 0.99),
        percentile(m.lag, 0.5),
        percentile(m.lag, 0.99),
        m.lag.len()
    );
    println!(
        "attempted {}, verified {}, wrong {}, shed {}, failed {}; resubmitted after version skew {}",
        m.all.attempted, m.all.verified, m.all.wrong, m.all.shed, m.all.failed, m.all.resubmitted,
    );
    println!(
        "{} writes: update_entry returned p50 {:.4} ms, write visible to a read p50 {:.4} ms",
        m.writes.visible_ms.len(),
        median(&m.writes.returned_ms),
        median(&m.writes.visible_ms)
    );
    vec![
        ("setup_s", m.setup_s, "s"),
        ("qps", m.qps, "1/s"),
        ("p50_ms", p50, "ms"),
        ("p99_ms", p99, "ms"),
        (
            "slo_attain",
            m.slo.within_limit as f64 / m.slo.attempted.max(1) as f64,
            "ratio",
        ),
        (
            "verified_ratio",
            m.all.verified as f64 / m.all.attempted.max(1) as f64,
            "ratio",
        ),
        ("update_p50_ms", median(&m.writes.visible_ms), "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        (
            "cpu_ms_per_query",
            m.cpu_s * 1e3 / m.all.verified.max(1) as f64,
            "ms",
        ),
        ("wire_bytes_per_query", m.wire_bytes_per_query, "B"),
    ]
}

fn per_layer(
    m: &Measured,
    serve: &ServeDelta,
    wire: &WireDelta,
    cluster: &ClusterCounters,
    ledger: &Ledger,
) -> Vec<Metric> {
    ledger.print();
    let per_batched = |value: f64| value / serve.batched.max(1) as f64;
    vec![
        (
            "serve.batch_occupancy",
            serve.batched as f64 / serve.batches.max(1) as f64,
            "queries",
        ),
        ("serve.queue_p50_ms", serve.queue_p50_ms, "ms"),
        ("serve.queue_p99_ms", serve.queue_p99_ms, "ms"),
        ("serve.busy_ms_per_query", per_batched(serve.busy_ms), "ms"),
        (
            "serve.busy_ratio",
            serve.busy_ms / (m.wall_s * 1e3 * serve.replicas.max(1) as f64),
            "ratio",
        ),
        ("serve.shed", serve.shed as f64, "count"),
        ("serve.displaced", serve.displaced as f64, "count"),
        ("serve.inproc_unloaded_ms", ledger.inproc_ms, "ms"),
        ("pir.answer_b1_ms", ledger.answer_ms[0], "ms"),
        ("pir.answer_b16_ms", ledger.answer_ms[1], "ms"),
        ("pir.answer_b64_ms", ledger.answer_ms[2], "ms"),
        (
            "pir.batch_gain",
            ledger.answer_ms[0] / (ledger.answer_ms[2] / 64.0),
            "ratio",
        ),
        ("pir.launch_floor_us", ledger.launch_floor_us, "us"),
        ("pir.keygen_us", ledger.keygen_us, "us"),
        ("pir.reconstruct_us", ledger.reconstruct_us, "us"),
        ("dpf.fused_eval_ms", ledger.fused_eval_ms, "ms"),
        ("prf.expand_ms", ledger.prf_expand_ms, "ms"),
        (
            "dpf.prf_share",
            ledger.prf_expand_ms / ledger.fused_eval_ms,
            "ratio",
        ),
        (
            "dpf.prf_calls_per_query",
            ledger.prf_calls_per_query,
            "count",
        ),
        ("dpf.bytes_per_query", ledger.bytes_per_query, "B"),
        (
            "gpu_sim.device_busy_ms_per_query",
            per_batched(serve.device_busy_s * 1e3),
            "ms",
        ),
        ("wire.encode_us", ledger.encode_us, "us"),
        ("wire.decode_us", ledger.decode_us, "us"),
        ("wire.frames_per_query", wire.frames_per_query, "frames"),
        ("wire.version_retries", wire.version_retries as f64, "count"),
        ("wire.skew_failures", wire.skew_failures as f64, "count"),
        ("wire.out_of_order", wire.out_of_order as f64, "count"),
        (
            "wire.overhead_ms",
            ledger.session_ms - ledger.inproc_ms,
            "ms",
        ),
        (
            "cluster.backhaul_ms_per_call",
            cluster.backhaul_ms_per_call,
            "ms",
        ),
        (
            "cluster.router_overhead_ms",
            ledger.cluster_ms - ledger.session_ms,
            "ms",
        ),
        (
            "cluster.shard_occupancy",
            cluster.shard_occupancy,
            "queries",
        ),
        ("cluster.resident_mb", cluster.resident_mb, "MB"),
        (
            "cluster.fence_retries",
            cluster.fence_retries as f64,
            "count",
        ),
        ("cluster.failovers", cluster.failovers as f64, "count"),
        ("load.lag_p50_ms", percentile(m.lag, 0.5), "ms"),
        ("load.lag_p99_ms", percentile(m.lag, 0.99), "ms"),
        (
            "host.cpu_busy",
            m.cpu_s / (m.wall_s * nproc() as f64),
            "ratio",
        ),
        ("trace.overhead", m.latency.trace_overhead(), "ratio"),
    ]
}

fn outcome(
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    all: &Phase,
    extra_wrong: u64,
) -> Outcome {
    Outcome {
        end_to_end,
        per_layer,
        attempted: all.attempted,
        failed: all.errors() + extra_wrong,
        wrong: all.wrong + extra_wrong,
    }
}

/// Kernel-bound and in-process: a large AES table behind `ServeHandle`.
pub const REC_LARGE: Shape = Shape {
    entries: 1 << 18,
    entry_bytes: 64,
    prf: PrfKind::Aes128,
    max_batch: 64,
    max_wait: Duration::from_millis(2),
};
/// About a third of the closed loop's throughput on an idle 2-core host.
/// At half of it, a host whose neighbours take CPU pushed the open loop
/// near saturation, and its latency spread across runs beyond any bound.
const REC_LARGE_RATE: f64 = 80.0;
const REC_LARGE_WINDOW: usize = 128;
const REC_LARGE_LIMIT_MS: f64 = 50.0;
/// Share of the run spent in the open loop; the closed loop gets the rest.
const REC_LARGE_OPEN_SHARE: f64 = 0.5;

pub fn rec_large(run: &Run, tracer: &mut Tracer) -> Outcome {
    let shape = REC_LARGE;
    let truth = Mutex::new(Truth::new(
        seeded_table(run.seed, shape.entries, shape.entry_bytes),
        1,
    ));
    let mut rng = stream(run.seed, 1);
    let mut setup_wrong = 0;
    let (setup_s, runtime) = set_up(
        || {
            let runtime = tracer.time("setup.register_table", 0, || {
                let table = truth.lock().expect("truth").table().clone();
                stack::runtime(table, &shape, run.seed)
            });
            setup_wrong += tracer.time("setup.warm_up", 0, || {
                warm_in_process(
                    &runtime.handle(),
                    &truth.lock().expect("truth"),
                    shape.max_batch,
                    &mut stream(run.seed, 1),
                )
            });
            runtime
        },
        |runtime: std::sync::Arc<PirServeRuntime>| runtime.shutdown(),
    );
    let handle = runtime.handle();
    let verify = |index: u64, version: u64, row: &[u8]| {
        truth.lock().expect("truth").matches(index, version, row)
    };

    let open_for = Duration::from_secs_f64(run.seconds * REC_LARGE_OPEN_SHARE);
    let closed_for = Duration::from_secs_f64(run.seconds * (1.0 - REC_LARGE_OPEN_SHARE));
    let arrivals = drive::poisson(
        &mut stream(run.seed, 2),
        REC_LARGE_RATE,
        open_for,
        shape.entries,
    );
    let before = vec![runtime.stats()];
    let meter = Meter::start();
    let open = drive::in_process(
        &handle,
        Schedule::Open(arrivals),
        &verify,
        REC_LARGE_LIMIT_MS,
        &Interval::new(Instant::now(), open_for, Duration::ZERO),
        tracer,
    );
    let closed_interval = Interval::new(Instant::now(), closed_for, RAMP);
    let mut writer_tracer = tracer.fork();
    let (closed, writes) = std::thread::scope(|scope| {
        // One write at a time, each read back, beside the saturated reads.
        // Unloaded, the read-back waits out the batching window on a timer,
        // and on a 2-core host the two parties' threads then often wake on
        // one core: the median jumped between about 6.6 and 9.3 ms from run
        // to run. Under saturation the threads stay spread over the cores.
        let writer = scope.spawn(|| {
            let mut rows = stream(run.seed, 4);
            let mut writes = Writes::default();
            while Instant::now() < closed_interval.end {
                let index = rows.gen_range(0..shape.entries);
                let bytes = payload(&mut rows, shape.entry_bytes);
                writes.write_and_read_back(&handle, &truth, index, bytes, &mut writer_tracer);
            }
            writes
        });
        let closed = drive::in_process(
            &handle,
            Schedule::Closed {
                window: REC_LARGE_WINDOW,
                entries: shape.entries,
                rng: stream(run.seed, 3),
            },
            &verify,
            REC_LARGE_LIMIT_MS,
            &closed_interval,
            tracer,
        );
        (closed, writer.join().expect("writer thread"))
    });
    tracer.absorb(writer_tracer);
    let (cpu_s, wall_s) = meter.read();
    let after = vec![runtime.stats()];
    let qps = closed.in_window as f64 / closed_interval.seconds();
    let open_latencies = open.latencies();
    println!(
        "open loop: {} arrivals at {REC_LARGE_RATE} qps, from due time p50 {:.3} ms, p99 {:.3} ms, \
         {} within {REC_LARGE_LIMIT_MS} ms; closed loop: {} answers at window {REC_LARGE_WINDOW}",
        open.attempted,
        percentile(&open_latencies, 0.5),
        percentile(&open_latencies, 0.99),
        open.within_limit,
        closed.attempted
    );

    let truth = truth.into_inner().expect("truth");
    let all = Phase::totals(&[&open, &closed]);
    let measured = Measured {
        latency: &closed,
        slo: &open,
        lag: &open.lag,
        all: &all,
        qps,
        cpu_s,
        wall_s,
        writes: &writes,
        wire_bytes_per_query: ledger::frame_bytes_per_query(truth.table(), shape.prf, &mut rng),
        setup_s,
    };
    let e2e = end_to_end(&measured);
    runtime.shutdown();
    drop((handle, runtime));

    let mut ledger_wrong = 0;
    let layers = if run.traced {
        let ledger = ledger::run(&shape, truth.table(), run.seed, tracer);
        ledger_wrong = ledger.wrong;
        let wire = WireDelta::between(&ledger.session[0], &ledger.session[1]);
        per_layer(
            &measured,
            &ServeDelta::between(&before, &after),
            &wire,
            &ledger.cluster,
            &ledger,
        )
    } else {
        Vec::new()
    };
    outcome(e2e, layers, &all, setup_wrong + writes.wrong + ledger_wrong)
}

const HOT_WINDOW: usize = 128;
const HOT_WRITE_EVERY: Duration = Duration::from_millis(20);
const HOT_LIMIT_MS: f64 = 20.0;

/// Overhead-bound with writes: the small hot table behind two wire
/// frontends, a pipelined session, and a writer beside the reads.
pub fn hot_wire(run: &Run, tracer: &mut Tracer) -> Outcome {
    let shape = HOT_SHAPE;
    let truth = Mutex::new(Truth::new(
        seeded_table(run.seed, shape.entries, shape.entry_bytes),
        1,
    ));
    let table = truth.lock().expect("truth").table().clone();
    let verify = |index: u64, version: u64, row: &[u8]| {
        truth.lock().expect("truth").matches(index, version, row)
    };
    let mut setup_wrong = 0;
    let (setup_s, (node, mut session)) = set_up(
        || {
            let runtime = tracer.time("setup.register_table", 0, || {
                stack::runtime(table.clone(), &shape, run.seed)
            });
            let node = Node::start(runtime);
            let mut session = tracer.time("setup.connect", 0, || node.session(HOT_WINDOW));
            setup_wrong += tracer.time("setup.warm_up", 0, || {
                warm_session(
                    &mut session,
                    HOT_WINDOW,
                    &mut stream(run.seed, 1),
                    &|index, row| verify(index, 1, row),
                )
            });
            (node, session)
        },
        |(node, session)| {
            drop(session);
            node.stop();
        },
    );
    let handle = node.runtime.handle();

    let duration = Duration::from_secs_f64(run.seconds);
    let before = vec![node.runtime.stats()];
    let session_before = SessionCounters::read(&session);
    let meter = Meter::start();
    let start = Instant::now();
    let interval = Interval::new(start, duration, RAMP);
    let mut writer_tracer = tracer.fork();
    let (phase, writes) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut payloads = stream(run.seed, 4);
            let first_row = stream(run.seed, 5).gen_range(0..shape.entries);
            let mut writes = Writes::default();
            for k in 0u64.. {
                let due = start + HOT_WRITE_EVERY * k as u32;
                if due >= start + duration {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                // Rotating rows: a fixed odd stride visits every row.
                let index = (first_row + k * 0x9E37) % shape.entries;
                let bytes = payload(&mut payloads, shape.entry_bytes);
                writes.write_and_read_back(&handle, &truth, index, bytes, &mut writer_tracer);
            }
            writes
        });
        let phase = drive::session_closed(
            &mut session,
            HOT_WINDOW,
            &interval,
            &mut stream(run.seed, 3),
            &verify,
            HOT_LIMIT_MS,
            tracer,
        );
        (phase, writer.join().expect("writer thread"))
    });
    tracer.absorb(writer_tracer);
    let (cpu_s, wall_s) = meter.read();
    let after = vec![node.runtime.stats()];
    let session_after = SessionCounters::read(&session);
    let completed = session_after.pipeline.completed - session_before.pipeline.completed;
    let measured = Measured {
        latency: &phase,
        slo: &phase,
        lag: &phase.lag,
        all: &phase,
        qps: phase.in_window as f64 / interval.seconds(),
        cpu_s,
        wall_s,
        writes: &writes,
        wire_bytes_per_query: session_after.traffic_since(&session_before).1 as f64
            / completed.max(1) as f64,
        setup_s,
    };
    let e2e = end_to_end(&measured);
    drop((session, handle));
    node.stop();

    let mut ledger_wrong = 0;
    let layers = if run.traced {
        let ledger = ledger::run(&shape, &table, run.seed, tracer);
        ledger_wrong = ledger.wrong;
        let wire = WireDelta::between(&session_before, &session_after);
        per_layer(
            &measured,
            &ServeDelta::between(&before, &after),
            &wire,
            &ledger.cluster,
            &ledger,
        )
    } else {
        Vec::new()
    };
    outcome(
        e2e,
        layers,
        &phase,
        setup_wrong + writes.wrong + ledger_wrong,
    )
}

/// Sharded scale-out: a ChaCha20 table split over two shards per party,
/// each party behind its own `ClusterRouter`.
pub const REC_CLUSTER: Shape = Shape {
    entries: 1 << 16,
    entry_bytes: 64,
    prf: PrfKind::Chacha20,
    max_batch: 64,
    max_wait: Duration::from_millis(2),
};
const CLUSTER_SHARDS: usize = 2;
const CLUSTER_WINDOW: usize = 16;
const CLUSTER_LIMIT_MS: f64 = 250.0;

pub fn rec_cluster(run: &Run, tracer: &mut Tracer) -> Outcome {
    let shape = REC_CLUSTER;
    let table = seeded_table(run.seed, shape.entries, shape.entry_bytes);
    // No writes during the measured phase: every answer is the generated row.
    let verify = |index: u64, _version: u64, row: &[u8]| table.entry(index) == row;
    let mut rng = stream(run.seed, 1);
    let mut setup_wrong = 0;
    let (setup_s, (cluster, mut session)) = set_up(
        || {
            let cluster = tracer.time("setup.provision", 0, || {
                Cluster::provision(&table, CLUSTER_SHARDS, &shape, run.seed)
            });
            let mut session = tracer.time("setup.connect", 0, || cluster.session(CLUSTER_WINDOW));
            setup_wrong += tracer.time("setup.warm_up", 0, || {
                warm_session(
                    &mut session,
                    CLUSTER_WINDOW,
                    &mut stream(run.seed, 1),
                    &|index, row| verify(index, 0, row),
                )
            });
            (cluster, session)
        },
        |(cluster, session)| {
            drop(session);
            cluster.stop();
        },
    );

    let duration = Duration::from_secs_f64(run.seconds);
    let before = cluster.shard_stats();
    let session_before = SessionCounters::read(&session);
    let meter = Meter::start();
    let interval = Interval::new(Instant::now(), duration, RAMP);
    let phase = drive::session_closed(
        &mut session,
        CLUSTER_WINDOW,
        &interval,
        &mut stream(run.seed, 3),
        &verify,
        CLUSTER_LIMIT_MS,
        tracer,
    );
    let (cpu_s, wall_s) = meter.read();
    let after = cluster.shard_stats();
    let session_after = SessionCounters::read(&session);
    let counters = ClusterCounters::read(&cluster);
    let completed = session_after.pipeline.completed - session_before.pipeline.completed;

    // Writes through the routers' reload fence, each read back through the
    // cluster. The session's version stamp is a digest of the shards'
    // versions, so the read-back is checked against the written bytes.
    let mut rows = stream(run.seed, 4);
    let mut writes = Writes::default();
    let writes_end = Instant::now() + WRITES_FOR;
    while Instant::now() < writes_end {
        let index = rows.gen_range(0..shape.entries);
        let bytes = payload(&mut rows, shape.entry_bytes);
        let issued = Instant::now();
        session
            .update_entry(TABLE, index, &bytes)
            .expect("update_entry");
        let returned = Instant::now();
        let row = session.query(TABLE, index, &mut rng).expect("read back");
        let visible = Instant::now();
        writes.record(issued, returned, visible, row == bytes);
        let span = tracer.record("write", 0, 0, issued, visible);
        tracer.record("session.update_entry", span, 0, issued, returned);
    }

    let measured = Measured {
        latency: &phase,
        slo: &phase,
        lag: &phase.lag,
        all: &phase,
        qps: phase.in_window as f64 / interval.seconds(),
        cpu_s,
        wall_s,
        writes: &writes,
        wire_bytes_per_query: session_after.traffic_since(&session_before).1 as f64
            / completed.max(1) as f64,
        setup_s,
    };
    let e2e = end_to_end(&measured);
    drop(session);
    cluster.stop();

    let mut ledger_wrong = 0;
    let layers = if run.traced {
        let ledger = ledger::run(&shape, &table, run.seed, tracer);
        ledger_wrong = ledger.wrong;
        let wire = WireDelta::between(&session_before, &session_after);
        per_layer(
            &measured,
            &ServeDelta::between(&before, &after),
            &wire,
            &counters,
            &ledger,
        )
    } else {
        Vec::new()
    };
    outcome(
        e2e,
        layers,
        &phase,
        setup_wrong + writes.wrong + ledger_wrong,
    )
}
