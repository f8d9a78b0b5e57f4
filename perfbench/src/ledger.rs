//! The layer ledger: one table shape timed at every boundary, from the PRF
//! sweep up to the cluster router, each layer called on its own.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pir_dpf::{
    fused_eval_matmul, generate_keys, DpfParams, NullRecorder, Scheduler, SchedulerConfig,
};
use pir_field::{Block128, Ring128};
use pir_prf::{build_prf, GgmPrg, PrfKind};
use pir_protocol::{
    build_replica, GpuPirServer, PirClient, PirResponse, PirServer, PirTable, ServerQuery,
};
use pir_wire::{
    decode_message_versioned, encode_message_v, ConnStats, PipelineStats, PirSession, QueryMsg,
    ResponseMsg, WireMessage, PROTOCOL_V2,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::measure::{median, ms_since};
use crate::stack::{self, Cluster, Node, Shape, TABLE, TENANT};
use crate::trace::Tracer;
use crate::truth::{seeded_table, stream};

/// The small hot table of the co-design: the launch floor is a batch of
/// one at this shape, whichever workload runs the ledger.
pub const HOT_SHAPE: Shape = Shape {
    entries: 1 << 10,
    entry_bytes: 64,
    prf: PrfKind::Aes128,
    max_batch: 64,
    max_wait: Duration::from_millis(1),
};

/// Unloaded round trips timed per serving layer.
const UNLOADED_REPS: usize = 30;

/// Cluster counters, from a cluster under load or from the ledger's own.
pub struct ClusterCounters {
    pub backhaul_ms_per_call: f64,
    pub shard_occupancy: f64,
    pub resident_mb: f64,
    pub fence_retries: u64,
    pub failovers: u64,
}

impl ClusterCounters {
    pub fn read(cluster: &Cluster) -> Self {
        let routers: Vec<_> = cluster
            .routers
            .iter()
            .map(|router| router.stats())
            .collect();
        let shards = routers.iter().flat_map(|router| &router.shards);
        let (calls, call_time) = shards.fold((0u64, Duration::ZERO), |(calls, time), shard| {
            (calls + shard.calls, time + shard.call_time)
        });
        let stats = cluster.shard_stats();
        let (batches, queries) = stats
            .iter()
            .flat_map(|snapshot| &snapshot.tables)
            .fold((0u64, 0u64), |(b, q), table| {
                (b + table.batches, q + table.batched_queries)
            });
        let resident: u64 = stats
            .iter()
            .flat_map(|snapshot| &snapshot.tables)
            .map(|table| table.plan.resident_bytes)
            .sum();
        Self {
            backhaul_ms_per_call: call_time.as_secs_f64() * 1e3 / calls.max(1) as f64,
            shard_occupancy: queries as f64 / batches.max(1) as f64,
            resident_mb: resident as f64 / (1024.0 * 1024.0),
            fence_retries: routers.iter().map(|router| router.fence_retries).sum(),
            failovers: routers
                .iter()
                .flat_map(|router| &router.shards)
                .map(|shard| shard.failovers)
                .sum(),
        }
    }
}

/// Session counters: pipeline statistics and both connections' traffic.
pub struct SessionCounters {
    pub pipeline: PipelineStats,
    pub conns: [ConnStats; 2],
}

impl SessionCounters {
    pub fn read(session: &PirSession) -> Self {
        Self {
            pipeline: session.pipeline_stats(),
            conns: session.conn_stats(),
        }
    }

    /// Frames and bytes moved on both connections since `earlier`.
    pub fn traffic_since(&self, earlier: &Self) -> (u64, u64) {
        self.conns
            .iter()
            .zip(&earlier.conns)
            .fold((0, 0), |(frames, bytes), (now, then)| {
                (
                    frames + now.frames_sent + now.frames_received
                        - then.frames_sent
                        - then.frames_received,
                    bytes + now.bytes_sent + now.bytes_received
                        - then.bytes_sent
                        - then.bytes_received,
                )
            })
    }
}

pub struct Ledger {
    pub prf_expand_ms: f64,
    pub fused_eval_ms: f64,
    /// `answer_batch` at batch 1, 16 and 64, per call.
    pub answer_ms: [f64; 3],
    pub launch_floor_us: f64,
    pub keygen_us: f64,
    pub reconstruct_us: f64,
    pub prf_calls_per_query: f64,
    pub bytes_per_query: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub inproc_ms: f64,
    pub session_ms: f64,
    pub cluster_ms: f64,
    /// Counters of the ledger's unloaded node session, after connecting
    /// and after the timed queries.
    pub session: [SessionCounters; 2],
    /// Counters of the ledger's unloaded cluster.
    pub cluster: ClusterCounters,
    /// Rows that did not reconstruct to the table's bytes.
    pub wrong: u64,
}

fn time_ms(body: impl FnOnce()) -> f64 {
    let start = Instant::now();
    body();
    start.elapsed().as_secs_f64() * 1e3
}

/// PRF-only expansion of a GGM tree over `entries` leaves: the tree's
/// `entries - 1` inner nodes, each expanded into two children, swept in
/// tiles through the batched MMO entry point, with no control bits,
/// corrections or table reads.
fn prf_expand(kind: PrfKind, entries: u64, rng: &mut StdRng) -> f64 {
    const TILE: usize = 512;
    let prf = build_prf(kind);
    let mut seeds: Vec<Block128> = (0..TILE).map(|_| Block128::from_u128(rng.gen())).collect();
    let (mut left, mut right) = (vec![Block128::ZERO; TILE], vec![Block128::ZERO; TILE]);
    let nodes = (entries - 1) as usize;
    time_ms(|| {
        let mut done = 0;
        while done < nodes {
            let n = TILE.min(nodes - done);
            prf.expand_blocks_mmo(&seeds[..n], 0, 1, &mut left[..n], &mut right[..n]);
            // Feed the children back so no sweep can be hoisted or skipped.
            seeds[..n].copy_from_slice(&left[..n]);
            done += n;
        }
        black_box(&right);
    })
}

fn answer(server: &dyn PirServer, queries: &[ServerQuery]) -> Vec<PirResponse> {
    server
        .answer_batch(queries)
        .expect("answer_batch at the table's own shape")
}

/// Time `answer_batch` at each batch size on both parties' replicas and
/// check that every pair of shares reconstructs the row.
fn answer_batches(
    table: &PirTable,
    prf: PrfKind,
    rng: &mut StdRng,
    ledger_wrong: &mut u64,
    reconstruct_us: &mut Vec<f64>,
) -> [f64; 3] {
    let replicas =
        [0, 1].map(|_| build_replica(table, prf, 1, SchedulerConfig::default()).expect("replica"));
    let client = PirClient::new(table.schema(), prf);
    let mut out = [0.0; 3];
    for (slot, (batch, reps)) in [(1usize, 8usize), (16, 2), (64, 1)].into_iter().enumerate() {
        let mut times = Vec::new();
        for _ in 0..reps {
            let indices: Vec<u64> = (0..batch)
                .map(|_| rng.gen_range(0..table.entries()))
                .collect();
            let queries: Vec<_> = indices
                .iter()
                .map(|&index| client.query(index, rng))
                .collect();
            let mut responses = Vec::new();
            for (party, replica) in replicas.iter().enumerate() {
                let projections: Vec<ServerQuery> =
                    queries.iter().map(|q| q.to_server(party as u8)).collect();
                let start = Instant::now();
                responses.push(answer(replica.as_ref(), &projections));
                times.push(ms_since(start, Instant::now()));
            }
            for (i, (query, &index)) in queries.iter().zip(&indices).enumerate() {
                let start = Instant::now();
                let row = client.reconstruct(query, &responses[0][i], &responses[1][i]);
                reconstruct_us.push(ms_since(start, Instant::now()) * 1e3);
                if row.ok() != Some(table.entry(index)) {
                    *ledger_wrong += 1;
                }
            }
        }
        out[slot] = median(&times);
    }
    out
}

/// Median unloaded round trip of `query` over `reps` uniform indices.
fn unloaded(
    table: &PirTable,
    rng: &mut StdRng,
    wrong: &mut u64,
    mut query: impl FnMut(u64, &mut StdRng) -> Vec<u8>,
) -> f64 {
    let times: Vec<f64> = (0..UNLOADED_REPS)
        .map(|_| {
            let index = rng.gen_range(0..table.entries());
            let start = Instant::now();
            let row = query(index, rng);
            let ms = ms_since(start, Instant::now());
            *wrong += u64::from(row != table.entry(index));
            ms
        })
        .collect();
    median(&times)
}

pub fn run(shape: &Shape, table: &PirTable, seed: u64, tracer: &mut Tracer) -> Ledger {
    let mut rng = stream(seed, 0x1ed9e7);
    let root = Tracer::reserve();
    let started = Instant::now();
    let mut wrong = 0u64;

    let prf_expand_ms = median(
        &(0..5)
            .map(|_| {
                tracer.time("prf.expand", root, || {
                    prf_expand(shape.prf, shape.entries, &mut rng)
                })
            })
            .collect::<Vec<_>>(),
    );

    let prg = GgmPrg::new(build_prf(shape.prf));
    let params = DpfParams::for_domain(shape.entries);
    let strategy = Scheduler::new(SchedulerConfig::default())
        .plan(shape.entries, shape.entry_bytes as u64, 1)
        .strategy;
    let index = rng.gen_range(0..shape.entries);
    let (key0, key1) = generate_keys(&prg, &params, index, Ring128::ONE, &mut rng);
    let fused = |key| fused_eval_matmul(&prg, key, table.matrix(), strategy, &NullRecorder);
    let fused_eval_ms = median(
        &(0..5)
            .map(|_| {
                tracer.time("dpf.fused_eval", root, || {
                    time_ms(|| drop(black_box(fused(&key0))))
                })
            })
            .collect::<Vec<_>>(),
    );
    let mut share = fused(&key0);
    share.add_assign_wrapping(&fused(&key1));
    wrong += u64::from(share.to_bytes()[..shape.entry_bytes] != table.entry(index)[..]);

    let mut reconstruct = Vec::new();
    let answer_ms = tracer.time("pir.answer_batch", root, || {
        answer_batches(table, shape.prf, &mut rng, &mut wrong, &mut reconstruct)
    });

    let hot = seeded_table(seed ^ 0x40, HOT_SHAPE.entries, HOT_SHAPE.entry_bytes);
    let launch_floor_us = tracer.time("pir.launch_floor", root, || {
        let server =
            build_replica(&hot, HOT_SHAPE.prf, 1, SchedulerConfig::default()).expect("replica");
        let client = PirClient::new(hot.schema(), HOT_SHAPE.prf);
        let times: Vec<f64> = (0..50)
            .map(|_| {
                let query = client
                    .query(rng.gen_range(0..hot.entries()), &mut rng)
                    .to_server(0);
                time_ms(|| drop(black_box(answer(server.as_ref(), &[query])))) * 1e3
            })
            .collect();
        median(&times)
    });

    let client = PirClient::new(table.schema(), shape.prf);
    let keygen_us = tracer.time("pir.keygen", root, || {
        let times: Vec<f64> = (0..200)
            .map(|_| {
                let index = rng.gen_range(0..shape.entries);
                time_ms(|| drop(black_box(client.query(index, &mut rng)))) * 1e3
            })
            .collect();
        median(&times)
    });

    // Kernel counters of one batch-of-one launch.
    let query = client.query(index, &mut rng);
    let (responses, report) = GpuPirServer::with_defaults(table.clone(), shape.prf)
        .answer_batch_with_report(&[query.to_server(0)])
        .expect("answer at the table's own shape");

    let (encode_us, decode_us) = tracer.time("wire.codec", root, || {
        let frames = [
            WireMessage::Query(QueryMsg {
                table: TABLE.into(),
                tenant: TENANT.into(),
                query: query.to_server(0),
            }),
            WireMessage::Response(ResponseMsg {
                response: responses[0].clone(),
                table_version: 1,
            }),
        ];
        let encoded: Vec<Vec<u8>> = frames
            .iter()
            .map(|frame| encode_message_v(frame, PROTOCOL_V2))
            .collect();
        const PER_BATCH: usize = 200;
        let per_call = |body: &dyn Fn()| {
            let times: Vec<f64> = (0..15)
                .map(|_| time_ms(|| (0..PER_BATCH).for_each(|_| body())) * 1e3 / PER_BATCH as f64)
                .collect();
            median(&times)
        };
        let encode = per_call(&|| {
            for frame in &frames {
                black_box(encode_message_v(black_box(frame), PROTOCOL_V2));
            }
        });
        let decode = per_call(&|| {
            for frame in &encoded {
                black_box(decode_message_versioned(black_box(frame)).expect("decode own frame"));
            }
        });
        (encode, decode)
    });

    let runtime = stack::runtime(table.clone(), shape, seed);
    let handle = runtime.handle();
    let inproc_ms = tracer.time("serve.unloaded", root, || {
        unloaded(table, &mut rng, &mut wrong, |index, _| {
            handle
                .query(TABLE, TENANT, index)
                .expect("admitted")
                .wait()
                .expect("answered")
        })
    });
    let node = Node::start(runtime);
    let mut session = tracer.time("connect", root, || node.session(1));
    let connected = SessionCounters::read(&session);
    let session_ms = tracer.time("session.unloaded", root, || {
        unloaded(table, &mut rng, &mut wrong, |index, rng| {
            session.query(TABLE, index, rng).expect("session row")
        })
    });
    let session_counters = SessionCounters::read(&session);
    drop(session);
    node.stop();

    let cluster = tracer.time("cluster.provision", root, || {
        Cluster::provision(table, 2, shape, seed)
    });
    let mut session = tracer.time("connect", root, || cluster.session(1));
    let cluster_ms = tracer.time("cluster.unloaded", root, || {
        unloaded(table, &mut rng, &mut wrong, |index, rng| {
            session.query(TABLE, index, rng).expect("cluster row")
        })
    });
    let cluster_counters = ClusterCounters::read(&cluster);
    drop(session);
    cluster.stop();
    tracer.record_as(root, "ledger", 0, 0, started, Instant::now());

    Ledger {
        prf_expand_ms,
        fused_eval_ms,
        answer_ms,
        launch_floor_us,
        keygen_us,
        reconstruct_us: median(&reconstruct),
        prf_calls_per_query: report.counters.prf_calls as f64,
        bytes_per_query: report.counters.global_bytes() as f64,
        encode_us,
        decode_us,
        inproc_ms,
        session_ms,
        cluster_ms,
        session: [connected, session_counters],
        cluster: cluster_counters,
        wrong,
    }
}

impl Ledger {
    /// Each layer's time and its ratio to the layer below it.
    pub fn print(&self) {
        let rows = [
            ("prf.expand", self.prf_expand_ms),
            ("dpf.fused_eval", self.fused_eval_ms),
            ("pir.answer_b1", self.answer_ms[0]),
            ("pir.answer_b16/16", self.answer_ms[1] / 16.0),
            ("pir.answer_b64/64", self.answer_ms[2] / 64.0),
            ("serve.inproc_unloaded", self.inproc_ms),
            ("wire.session_unloaded", self.session_ms),
            ("cluster.router_unloaded", self.cluster_ms),
        ];
        println!("ledger (ms per query, ratio to the layer above in this list):");
        let mut below: Option<f64> = None;
        for (name, ms) in rows {
            match below {
                Some(prev) => println!("  {name:<26} {ms:>10.4} ms  x{:.3}", ms / prev),
                None => println!("  {name:<26} {ms:>10.4} ms"),
            }
            below = Some(ms);
        }
    }
}

/// Bytes both parties' Query and Response frames take at `shape`, as the
/// codec encodes them: what one in-process query would send over the wire.
pub fn frame_bytes_per_query(table: &PirTable, prf: PrfKind, rng: &mut StdRng) -> f64 {
    let client = PirClient::new(table.schema(), prf);
    let query = client.query(0, rng);
    (0..2u8)
        .map(|party| {
            let request = WireMessage::Query(QueryMsg {
                table: TABLE.into(),
                tenant: TENANT.into(),
                query: query.to_server(party),
            });
            let response = WireMessage::Response(ResponseMsg {
                response: PirResponse {
                    query_id: query.query_id,
                    party,
                    share: vec![0; table.schema().lanes_per_entry()],
                },
                table_version: 1,
            });
            encode_message_v(&request, PROTOCOL_V2).len()
                + encode_message_v(&response, PROTOCOL_V2).len()
        })
        .sum::<usize>() as f64
}
