//! The GPU-accelerated PIR server (the paper's contribution).

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

use gpu_sim::{DeviceSpec, GpuExecutor, KernelReport, ResidentAllocation};
use pir_dpf::{
    BatchEvalJob, DpfParams, PlanCache, PlanKey, PlanLedger, Scheduler, SchedulerConfig,
    TableResidency,
};
use pir_prf::{build_prf, GgmPrg, PrfKind};

use crate::error::PirError;
use crate::message::{PirResponse, ServerQuery};
use crate::server::{
    check_schema, responses_from_shares, validate_update, PirServer, ServerMetrics,
};
use crate::table::{PirTable, TableSchema};

/// The table allocation a memory plan decided to keep on the device, tagged
/// with the table version it was uploaded from so hot reloads invalidate it.
struct ResidentTable {
    alloc: ResidentAllocation,
    generation: u64,
}

/// A PIR server that evaluates DPFs on one simulated GPU ([`GpuExecutor`]).
///
/// Every batch of queries is planned by the batch/table-size-aware
/// [`Scheduler`] (§3.2.5), evaluated with the fused memory-bounded kernel
/// (§3.2.3–§3.2.4), and accounted in the server's [`ServerMetrics`].
///
/// Per batch shape the server also builds (and caches) a
/// [`MemoryPlan`](pir_dpf::MemoryPlan): when the plan keeps the table
/// resident, the table is uploaded once and re-used across batches — the
/// upload is re-issued only after a hot reload bumps the table generation —
/// and the avoided transfers are reported through
/// [`PirServer::plan_ledger`].
///
/// The table sits behind an `RwLock` so entries can be hot-reloaded through
/// [`PirServer::update_entry`] while queries are being served: a batch holds
/// the read lock for the whole launch, so it sees one consistent table
/// version.
pub struct GpuPirServer {
    schema: TableSchema,
    table: RwLock<PirTable>,
    prg: GgmPrg,
    prf_kind: PrfKind,
    executor: GpuExecutor,
    scheduler: Scheduler,
    metrics: Mutex<ServerMetrics>,
    last_report: Mutex<Option<KernelReport>>,
    plan_cache: PlanCache,
    resident: Mutex<Option<ResidentTable>>,
    table_generation: AtomicU64,
    transfers_issued: AtomicU64,
    transfers_avoided: AtomicU64,
}

impl GpuPirServer {
    /// Create a server on a specific device with a specific scheduler.
    #[must_use]
    pub fn new(
        table: PirTable,
        prf_kind: PrfKind,
        device: DeviceSpec,
        scheduler_config: SchedulerConfig,
    ) -> Self {
        Self {
            schema: table.schema(),
            table: RwLock::new(table),
            prg: GgmPrg::new(build_prf(prf_kind)),
            prf_kind,
            executor: GpuExecutor::new(device),
            scheduler: Scheduler::new(scheduler_config),
            metrics: Mutex::new(ServerMetrics::default()),
            last_report: Mutex::new(None),
            plan_cache: PlanCache::new(),
            resident: Mutex::new(None),
            table_generation: AtomicU64::new(0),
            transfers_issued: AtomicU64::new(0),
            transfers_avoided: AtomicU64::new(0),
        }
    }

    /// Create a server with the paper's defaults: a V100 and the default
    /// scheduler thresholds.
    #[must_use]
    pub fn with_defaults(table: PirTable, prf_kind: PrfKind) -> Self {
        Self::new(
            table,
            prf_kind,
            DeviceSpec::v100(),
            SchedulerConfig::default(),
        )
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

    /// The kernel report of the most recent batch (None before any batch).
    #[must_use]
    pub fn last_report(&self) -> Option<KernelReport> {
        self.last_report.lock().clone()
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
            devices: 1,
        };
        self.plan_cache.get_or_build(key, || {
            self.scheduler
                .memory_plan(key.table_rows, key.row_bytes, key.key_bytes, key.batch, 1)
        })
    }

    /// Answer a batch and also return the kernel report for benchmarking.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::SchemaMismatch`] if any query targets a different
    /// table shape.
    pub fn answer_batch_with_report(
        &self,
        queries: &[ServerQuery],
    ) -> Result<(Vec<PirResponse>, KernelReport), PirError> {
        assert!(!queries.is_empty(), "batch must contain at least one query");
        for query in queries {
            check_schema(self.schema, query)?;
        }

        let plan = self.scheduler.plan(
            self.schema.entries,
            self.schema.entry_bytes as u64,
            queries.len() as u64,
        );
        let memory_plan = self.memory_plan(queries.len() as u64);
        let keys: Vec<_> = queries.iter().map(|q| q.key.clone()).collect();
        // The read lock brackets the whole launch: a concurrent hot reload
        // waits, so this batch sees exactly one table version.
        let table = self.table.read();
        let generation = self.table_generation.load(Ordering::Acquire);
        let matrix = table.matrix();
        let job = BatchEvalJob::new(&self.prg, self.prf_kind, &keys, matrix).with_plan(&plan);
        let executor = &self.executor;
        let output = if memory_plan.residency == TableResidency::Resident {
            // Held across the launch so a concurrent batch cannot free or
            // replace the allocation mid-flight.
            let mut resident = self.resident.lock();
            let current = matches!(&*resident, Some(r) if r.generation == generation);
            if current {
                self.transfers_avoided.fetch_add(1, Ordering::Relaxed);
            } else {
                if let Some(stale) = resident.take() {
                    executor.free(stale.alloc);
                }
                let alloc = executor.alloc(matrix.size_bytes() as u64);
                executor.upload_table(&alloc, alloc.bytes());
                self.transfers_issued.fetch_add(1, Ordering::Relaxed);
                *resident = Some(ResidentTable { alloc, generation });
            }
            let held = resident.as_ref().expect("resident table just ensured");
            job.run_resident(executor, &held.alloc)
        } else {
            // The plan says this batch's working set does not fit alongside a
            // resident table; release any stale residency and stream.
            if let Some(stale) = self.resident.lock().take() {
                executor.free(stale.alloc);
            }
            self.transfers_issued.fetch_add(1, Ordering::Relaxed);
            job.run(executor)
        };
        drop(table);

        let responses = responses_from_shares(queries, output.results);

        let bytes_in: u64 = queries.iter().map(|q| q.size_bytes() as u64).sum();
        let bytes_out: u64 = responses.iter().map(|r| r.size_bytes() as u64).sum();
        self.metrics.lock().record_batch(
            queries.len() as u64,
            output.report.counters.prf_calls,
            output.report.estimated_time_s,
            bytes_in,
            bytes_out,
        );
        *self.last_report.lock() = Some(output.report.clone());
        Ok((responses, output.report))
    }
}

impl PirServer for GpuPirServer {
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
        let (mut responses, _) = self.answer_batch_with_report(std::slice::from_ref(query))?;
        Ok(responses.remove(0))
    }

    fn answer_batch(&self, queries: &[ServerQuery]) -> Result<Vec<PirResponse>, PirError> {
        let (responses, _) = self.answer_batch_with_report(queries)?;
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
            resident_bytes: self.executor.stats().resident_bytes,
            transfers_issued: self.transfers_issued.load(Ordering::Relaxed),
            transfers_avoided: self.transfers_avoided.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache.hits(),
            plan_cache_misses: self.plan_cache.misses(),
        }
    }
}

impl std::fmt::Debug for GpuPirServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuPirServer")
            .field("table", &self.schema.describe())
            .field("prf", &self.prf_kind)
            .field("device", &self.executor.device().name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PirClient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> PirTable {
        PirTable::generate(300, 16, |row, offset| {
            (row as u8).wrapping_mul(3).wrapping_add(offset as u8)
        })
    }

    #[test]
    fn single_query_roundtrip() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let s0 = GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash);
        let s1 = GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(71);

        for index in [0u64, 1, 137, 299] {
            let query = client.query(index, &mut rng);
            let r0 = s0.answer(&query.to_server(0)).unwrap();
            let r1 = s1.answer(&query.to_server(1)).unwrap();
            let bytes = client.reconstruct(&query, &r0, &r1).unwrap();
            assert_eq!(bytes, table.entry(index), "index {index}");
        }
        assert_eq!(s0.metrics().queries_served, 4);
        assert!(s0.metrics().busy_time_s > 0.0);
        assert!(s0.last_report().is_some());
    }

    #[test]
    fn batched_queries_roundtrip() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let s0 = GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash);
        let s1 = GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(72);

        let indices: Vec<u64> = vec![5, 9, 200, 299, 0, 123, 77, 31];
        let queries: Vec<_> = indices.iter().map(|i| client.query(*i, &mut rng)).collect();
        let to0: Vec<_> = queries.iter().map(|q| q.to_server(0)).collect();
        let to1: Vec<_> = queries.iter().map(|q| q.to_server(1)).collect();

        let (r0, report) = s0.answer_batch_with_report(&to0).unwrap();
        let r1 = s1.answer_batch(&to1).unwrap();
        assert!(report.estimated_time_s > 0.0);
        for (i, index) in indices.iter().enumerate() {
            let bytes = client.reconstruct(&queries[i], &r0[i], &r1[i]).unwrap();
            assert_eq!(bytes, table.entry(*index));
        }
        assert!(s0.metrics().bytes_in > 0);
        assert!(s0.metrics().bytes_out > 0);
        assert!(s0.metrics().average_qps() > 0.0);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let table = table();
        let other_schema = TableSchema::new(1024, 16);
        let client = PirClient::new(other_schema, PrfKind::SipHash);
        let server = GpuPirServer::with_defaults(table, PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(73);
        let query = client.query(3, &mut rng);
        assert!(matches!(
            server.answer(&query.to_server(0)),
            Err(PirError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn hot_reloaded_entries_are_served_after_update() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let s0 = GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash);
        let s1 = GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(74);

        let fresh = vec![0xABu8; 16];
        s0.update_entry(137, &fresh).unwrap();
        s1.update_entry(137, &fresh).unwrap();

        let query = client.query(137, &mut rng);
        let r0 = s0.answer(&query.to_server(0)).unwrap();
        let r1 = s1.answer(&query.to_server(1)).unwrap();
        assert_eq!(client.reconstruct(&query, &r0, &r1).unwrap(), fresh);

        // Neighbouring rows are untouched.
        let query = client.query(136, &mut rng);
        let r0 = s0.answer(&query.to_server(0)).unwrap();
        let r1 = s1.answer(&query.to_server(1)).unwrap();
        assert_eq!(
            client.reconstruct(&query, &r0, &r1).unwrap(),
            table.entry(136)
        );

        // Typed errors, not panics, on bad updates.
        assert!(matches!(
            s0.update_entry(300, &fresh),
            Err(PirError::IndexOutOfRange { index: 300, .. })
        ));
        assert!(matches!(
            s0.update_entry(0, &[1, 2, 3]),
            Err(PirError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn works_as_trait_object() {
        let table = table();
        let server: Box<dyn PirServer> =
            Box::new(GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash));
        assert_eq!(server.schema(), table.schema());
    }

    #[test]
    fn resident_plan_avoids_repeat_uploads_until_hot_reload() {
        let table = table();
        let client = PirClient::new(table.schema(), PrfKind::SipHash);
        let server = GpuPirServer::with_defaults(table.clone(), PrfKind::SipHash);
        let mut rng = StdRng::seed_from_u64(76);

        // The default 16 GiB budget keeps this table resident, so the first
        // batch uploads it and the second re-uses the allocation.
        assert!(server.planned_resident_bytes(1) > 0);
        for _ in 0..2 {
            let query = client.query(5, &mut rng);
            server.answer(&query.to_server(0)).unwrap();
        }
        let ledger = server.plan_ledger();
        assert_eq!(ledger.transfers_issued, 1, "one upload for two batches");
        assert_eq!(ledger.transfers_avoided, 1);
        assert_eq!(ledger.plan_cache_misses, 1);
        assert!(ledger.plan_cache_hits >= 1);
        assert_eq!(
            ledger.resident_bytes,
            server.table_snapshot().matrix().size_bytes() as u64,
            "between batches only the table stays on the device"
        );

        // A hot reload bumps the table generation: the next batch re-uploads
        // (and still serves the fresh value).
        let fresh = vec![0x5Au8; 16];
        server.update_entry(5, &fresh).unwrap();
        let other = GpuPirServer::with_defaults(table, PrfKind::SipHash);
        other.update_entry(5, &fresh).unwrap();
        let query = client.query(5, &mut rng);
        let r0 = server.answer(&query.to_server(0)).unwrap();
        let r1 = other.answer(&query.to_server(1)).unwrap();
        assert_eq!(client.reconstruct(&query, &r0, &r1).unwrap(), fresh);
        assert_eq!(server.plan_ledger().transfers_issued, 2);
    }
}
