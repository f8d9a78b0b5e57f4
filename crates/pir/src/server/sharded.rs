//! A PIR server whose table is sharded across several simulated GPUs.
//!
//! Tables at the paper's production scale (tens of GB, Table 2) exceed a
//! single V100's 16 GB; §3.2.7 shows the DPF's linear reduction makes the
//! domain trivially splittable, so each device permanently owns a contiguous
//! slice (subtree) of the table and evaluates every query of a batch against
//! its slice only. This server wraps that decomposition behind the ordinary
//! [`PirServer`] trait: callers batch queries exactly as against a
//! single-device [`GpuPirServer`](crate::GpuPirServer), and the shard fan-out
//! and partial-share reduction stay internal.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use gpu_sim::{DeviceSpec, GpuExecutor, ResidentAllocation};
use pir_dpf::{
    DpfParams, MultiGpuBatchEvalJob, PlanCache, PlanKey, PlanLedger, Scheduler, SchedulerConfig,
    TableResidency,
};
use pir_prf::{build_prf, GgmPrg, PrfKind};

use crate::error::PirError;
use crate::message::{PirResponse, ServerQuery};
use crate::server::{
    check_schema, responses_from_shares, validate_update, PirServer, ServerMetrics,
};
use crate::table::{PirTable, TableSchema};

/// The per-device table-slice allocations a memory plan decided to keep
/// resident, tagged with the table version they were uploaded from.
struct ResidentShards {
    allocs: Vec<ResidentAllocation>,
    generation: u64,
}

/// A GPU PIR server spread across several devices (one [`GpuExecutor`] per
/// shard).
///
/// Like [`GpuPirServer`](crate::GpuPirServer), the table sits behind an
/// `RwLock` so [`PirServer::update_entry`] hot reloads are atomic with
/// respect to in-flight batches; when the per-batch
/// [`MemoryPlan`](pir_dpf::MemoryPlan) keeps the shard slices resident they
/// are uploaded once per table generation and re-used across batches.
pub struct ShardedGpuServer {
    schema: TableSchema,
    table: RwLock<PirTable>,
    prg: GgmPrg,
    prf_kind: PrfKind,
    executors: Vec<GpuExecutor>,
    scheduler: Scheduler,
    metrics: Mutex<ServerMetrics>,
    plan_cache: PlanCache,
    resident: Mutex<Option<ResidentShards>>,
    table_generation: AtomicU64,
    transfers_issued: AtomicU64,
    transfers_avoided: AtomicU64,
}

impl ShardedGpuServer {
    /// Create a server over an explicit list of devices.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::InvalidSharding`] if `devices` is empty or the
    /// table's domain cannot be split into that many subtrees, so serving
    /// layers never have to pre-validate the decomposition themselves.
    pub fn new(
        table: PirTable,
        prf_kind: PrfKind,
        devices: Vec<DeviceSpec>,
        scheduler_config: SchedulerConfig,
    ) -> Result<Self, PirError> {
        crate::server::shard_split_bits(table.entries(), devices.len())?;
        Ok(Self {
            prg: GgmPrg::new(build_prf(prf_kind)),
            prf_kind,
            executors: devices.into_iter().map(GpuExecutor::new).collect(),
            scheduler: Scheduler::new(scheduler_config),
            metrics: Mutex::new(ServerMetrics::default()),
            schema: table.schema(),
            table: RwLock::new(table),
            plan_cache: PlanCache::new(),
            resident: Mutex::new(None),
            table_generation: AtomicU64::new(0),
            transfers_issued: AtomicU64::new(0),
            transfers_avoided: AtomicU64::new(0),
        })
    }

    /// Create a server sharded across `shards` identical V100s with the
    /// default scheduler thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::InvalidSharding`] if the table cannot be split
    /// across `shards` devices.
    pub fn with_v100_shards(
        table: PirTable,
        prf_kind: PrfKind,
        shards: usize,
    ) -> Result<Self, PirError> {
        Self::new(
            table,
            prf_kind,
            vec![DeviceSpec::v100(); shards],
            SchedulerConfig::default(),
        )
    }

    /// The number of devices the table is sharded over.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.executors.len()
    }

    /// Build (or fetch from the plan cache) the memory plan for a batch of
    /// `batch` queries against the current table shape.
    fn memory_plan(&self, batch: u64) -> std::sync::Arc<pir_dpf::MemoryPlan> {
        let row_bytes = self.table.read().matrix().lanes_per_row() as u64 * 4;
        let key = PlanKey {
            table_rows: self.schema.entries,
            row_bytes,
            key_bytes: DpfParams::for_domain(self.schema.entries).key_size_bytes(),
            batch: batch.max(1),
            devices: self.executors.len(),
        };
        self.plan_cache.get_or_build(key, || {
            self.scheduler.memory_plan(
                key.table_rows,
                key.row_bytes,
                key.key_bytes,
                key.batch,
                key.devices,
            )
        })
    }

    /// Allocate and upload one resident table slice per shard, sized exactly
    /// as the memory plan (and the batch job) expect.
    fn upload_resident_slices(&self, plan: &pir_dpf::MemoryPlan) -> Vec<ResidentAllocation> {
        self.executors
            .iter()
            .zip(&plan.devices)
            .map(|(executor, device_plan)| {
                let alloc = executor.alloc(device_plan.table_bytes);
                executor.upload_table(&alloc, device_plan.table_bytes);
                alloc
            })
            .collect()
    }

    /// The PRF family this server evaluates.
    #[must_use]
    pub fn prf_kind(&self) -> PrfKind {
        self.prf_kind
    }

    /// A snapshot of the table served by this server.
    #[must_use]
    pub fn table_snapshot(&self) -> PirTable {
        self.table.read().clone()
    }
}

impl PirServer for ShardedGpuServer {
    fn schema(&self) -> TableSchema {
        self.schema
    }

    fn update_entry(&self, index: u64, bytes: &[u8]) -> Result<(), PirError> {
        validate_update(self.schema, index, bytes)?;
        let mut table = self.table.write();
        table.update_entry(index, bytes);
        // Bumped while the write lock is held, so every batch that reads the
        // new table also sees the new generation and re-uploads residency.
        self.table_generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    fn answer(&self, query: &ServerQuery) -> Result<PirResponse, PirError> {
        let mut responses = self.answer_batch(std::slice::from_ref(query))?;
        Ok(responses.remove(0))
    }

    fn answer_batch(&self, queries: &[ServerQuery]) -> Result<Vec<PirResponse>, PirError> {
        assert!(!queries.is_empty(), "batch must contain at least one query");
        for query in queries {
            check_schema(self.schema, query)?;
        }

        // The scheduler's strategy/threads choices apply per shard; the grid
        // mapping is fixed by the shard decomposition itself.
        let plan = self.scheduler.plan(
            self.schema.entries,
            self.schema.entry_bytes as u64,
            queries.len() as u64,
        );
        let memory_plan = self.memory_plan(queries.len() as u64);
        let keys: Vec<_> = queries.iter().map(|q| q.key.clone()).collect();
        // Read lock held across the whole multi-device launch: every shard
        // of this batch sees the same table version.
        let table = self.table.read();
        let generation = self.table_generation.load(Ordering::Acquire);
        let matrix = table.matrix();
        let job = MultiGpuBatchEvalJob::new(&self.prg, self.prf_kind, &keys, matrix)
            .with_strategy(plan.strategy)
            .with_threads_per_block(plan.threads_per_block);
        let shards = self.executors.len() as u64;
        let output = if memory_plan.residency == TableResidency::Resident {
            // Held across the launch so a concurrent batch cannot free or
            // replace the slices mid-flight.
            let mut resident = self.resident.lock();
            let current = matches!(&*resident, Some(r) if r.generation == generation);
            if current {
                self.transfers_avoided.fetch_add(shards, Ordering::Relaxed);
            } else {
                if let Some(stale) = resident.take() {
                    for (executor, alloc) in self.executors.iter().zip(stale.allocs) {
                        executor.free(alloc);
                    }
                }
                let allocs = self.upload_resident_slices(&memory_plan);
                self.transfers_issued.fetch_add(shards, Ordering::Relaxed);
                *resident = Some(ResidentShards { allocs, generation });
            }
            let held = resident.as_ref().expect("resident slices just ensured");
            let slice_refs: Vec<&ResidentAllocation> = held.allocs.iter().collect();
            job.run_resident(&self.executors, &slice_refs)
        } else {
            // The plan says this batch's working set does not fit alongside
            // resident slices; release any stale residency and stream.
            if let Some(stale) = self.resident.lock().take() {
                for (executor, alloc) in self.executors.iter().zip(stale.allocs) {
                    executor.free(alloc);
                }
            }
            self.transfers_issued.fetch_add(shards, Ordering::Relaxed);
            job.run(&self.executors)
        };
        drop(table);
        let prf_calls = output.total_prf_calls();

        let responses = responses_from_shares(queries, output.results);
        let bytes_in: u64 = queries.iter().map(|q| q.size_bytes() as u64).sum();
        let bytes_out: u64 = responses.iter().map(|r| r.size_bytes() as u64).sum();
        self.metrics.lock().record_batch(
            queries.len() as u64,
            prf_calls,
            output.estimated_time_s,
            bytes_in,
            bytes_out,
        );
        Ok(responses)
    }

    fn metrics(&self) -> ServerMetrics {
        *self.metrics.lock()
    }

    fn planned_resident_bytes(&self, batch: usize) -> u64 {
        self.memory_plan(batch as u64).resident_bytes()
    }

    fn plan_ledger(&self) -> PlanLedger {
        PlanLedger {
            resident_bytes: self
                .executors
                .iter()
                .map(|executor| executor.stats().resident_bytes)
                .sum(),
            transfers_issued: self.transfers_issued.load(Ordering::Relaxed),
            transfers_avoided: self.transfers_avoided.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache.hits(),
            plan_cache_misses: self.plan_cache.misses(),
        }
    }
}

impl std::fmt::Debug for ShardedGpuServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedGpuServer")
            .field("table", &self.schema.describe())
            .field("prf", &self.prf_kind)
            .field("shards", &self.executors.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use crate::server::GpuPirServer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> PirTable {
        PirTable::generate(512, 20, |row, offset| {
            (row as u8).wrapping_mul(7).wrapping_add(offset as u8)
        })
    }

    #[test]
    fn sharded_batch_roundtrips() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let s0 = ShardedGpuServer::with_v100_shards(table.clone(), PrfKind::SipHash, 4).unwrap();
        let s1 = ShardedGpuServer::with_v100_shards(table.clone(), PrfKind::SipHash, 4).unwrap();
        assert_eq!(s0.shard_count(), 4);
        let mut rng = StdRng::seed_from_u64(91);

        let indices = [0u64, 3, 129, 255, 511, 77];
        let queries: Vec<_> = indices.iter().map(|i| client.query(*i, &mut rng)).collect();
        let to0: Vec<_> = queries.iter().map(|q| q.to_server(0)).collect();
        let to1: Vec<_> = queries.iter().map(|q| q.to_server(1)).collect();
        let r0 = s0.answer_batch(&to0).unwrap();
        let r1 = s1.answer_batch(&to1).unwrap();
        for (i, index) in indices.iter().enumerate() {
            let bytes = client.reconstruct(&queries[i], &r0[i], &r1[i]).unwrap();
            assert_eq!(bytes, table.entry(*index), "index {index}");
        }
        assert_eq!(s0.metrics().queries_served, 6);
        assert!(s0.metrics().busy_time_s > 0.0);
    }

    #[test]
    fn sharded_answers_match_single_device_server() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let sharded =
            ShardedGpuServer::with_v100_shards(table.clone(), PrfKind::SipHash, 2).unwrap();
        let single = GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(92);

        let query = client.query(300, &mut rng);
        let from_sharded = sharded.answer(&query.to_server(0)).unwrap();
        let from_single = single.answer(&query.to_server(0)).unwrap();
        assert_eq!(from_sharded.share, from_single.share);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let server = ShardedGpuServer::with_v100_shards(table(), PrfKind::SipHash, 2).unwrap();
        let other = PirClient::new(TableSchema::new(1024, 20), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(93);
        let query = other.query(3, &mut rng);
        assert!(matches!(
            server.answer(&query.to_server(0)),
            Err(PirError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn too_many_shards_is_a_typed_error() {
        let tiny = PirTable::generate(4, 8, |row, _| row as u8);
        assert!(matches!(
            ShardedGpuServer::with_v100_shards(tiny.clone(), PrfKind::SipHash, 64),
            Err(PirError::InvalidSharding {
                entries: 4,
                devices: 64
            })
        ));
        assert!(matches!(
            ShardedGpuServer::new(
                tiny,
                PrfKind::SipHash,
                Vec::new(),
                SchedulerConfig::default()
            ),
            Err(PirError::InvalidSharding { devices: 0, .. })
        ));
    }

    #[test]
    fn resident_shard_slices_survive_across_batches() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let server =
            ShardedGpuServer::with_v100_shards(table.clone(), PrfKind::SipHash, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(96);

        assert!(server.planned_resident_bytes(1) > 0);
        for _ in 0..2 {
            let query = client.query(100, &mut rng);
            server.answer(&query.to_server(0)).unwrap();
        }
        let ledger = server.plan_ledger();
        assert_eq!(ledger.transfers_issued, 4, "one upload per shard");
        assert_eq!(
            ledger.transfers_avoided, 4,
            "second batch re-uses all slices"
        );
        // The four resident slices exactly cover the table.
        assert_eq!(
            ledger.resident_bytes,
            server.table_snapshot().matrix().size_bytes() as u64
        );

        server.update_entry(100, &[0x77u8; 20]).unwrap();
        let query = client.query(100, &mut rng);
        server.answer(&query.to_server(0)).unwrap();
        assert_eq!(
            server.plan_ledger().transfers_issued,
            8,
            "reload re-uploads"
        );
    }

    #[test]
    fn non_power_of_two_shard_counts_reconstruct_end_to_end() {
        // 3 devices -> 4 subtrees (device 0 owns two); 5 devices -> 8
        // subtrees (devices 0..3 own two each). Every row must still
        // reconstruct bit-exactly.
        let table = table();
        for shards in [3usize, 5] {
            let client = PirClient::new(table.schema(), PrfKind::SipHash);
            let s0 = ShardedGpuServer::with_v100_shards(table.clone(), PrfKind::SipHash, shards)
                .unwrap();
            let s1 = ShardedGpuServer::with_v100_shards(table.clone(), PrfKind::SipHash, shards)
                .unwrap();
            assert_eq!(s0.shard_count(), shards);
            let mut rng = StdRng::seed_from_u64(94 + shards as u64);

            let indices = [0u64, 1, 127, 128, 255, 256, 383, 384, 511];
            let queries: Vec<_> = indices.iter().map(|i| client.query(*i, &mut rng)).collect();
            let to0: Vec<_> = queries.iter().map(|q| q.to_server(0)).collect();
            let to1: Vec<_> = queries.iter().map(|q| q.to_server(1)).collect();
            let r0 = s0.answer_batch(&to0).unwrap();
            let r1 = s1.answer_batch(&to1).unwrap();
            for (i, index) in indices.iter().enumerate() {
                let bytes = client.reconstruct(&queries[i], &r0[i], &r1[i]).unwrap();
                assert_eq!(bytes, table.entry(*index), "{shards} shards, index {index}");
            }
        }
    }
}
