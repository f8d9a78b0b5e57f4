//! PIR servers: the GPU-accelerated implementation and the CPU baseline.

mod cpu;
mod gpu;
mod sharded;

pub use cpu::{CpuBatchTiming, CpuPirServer};
pub use gpu::GpuPirServer;
pub use sharded::ShardedGpuServer;

use gpu_sim::DeviceSpec;
use pir_dpf::{PlanLedger, SchedulerConfig};
use pir_field::LaneVector;
use pir_prf::PrfKind;
use serde::{Deserialize, Serialize};

use crate::error::PirError;
use crate::message::{PirResponse, ServerQuery};
use crate::table::{PirTable, TableSchema};

/// Validate that a table of `entries` rows can be sharded across `devices`
/// and return the number of prefix bits the DPF domain must be split on.
///
/// This is the single source of truth for the shard decomposition rule: the
/// split needs one subtree per device, and — matching `DpfParams::for_domain`
/// — a table of one entry has a depth-0 tree and therefore admits exactly
/// one shard.
///
/// # Errors
///
/// Returns [`PirError::InvalidSharding`] if `devices` is zero or the domain
/// is too shallow to be split that many ways.
pub fn shard_split_bits(entries: u64, devices: usize) -> Result<u32, PirError> {
    if devices == 0 {
        return Err(PirError::InvalidSharding { entries, devices });
    }
    let split_bits = (devices as u64).next_power_of_two().trailing_zeros();
    let domain_bits = if entries <= 1 {
        0
    } else {
        64 - (entries - 1).leading_zeros()
    };
    if split_bits > domain_bits {
        return Err(PirError::InvalidSharding { entries, devices });
    }
    Ok(split_bits)
}

/// The row ranges each of `shards` shard-owners serves, derived from the
/// same split rule as [`shard_split_bits`].
///
/// The padded power-of-two DPF domain is cut into `1 << split_bits`
/// contiguous subtrees; subtree `t` is owned by shard `t % shards` (the
/// same striping the multi-GPU engine uses for devices, so non-power-of-two
/// shard counts give the low-index shards one extra subtree each). Ranges
/// are clamped to the real table, padded-only subtrees are dropped, and
/// every row lands in exactly one shard's range.
///
/// This is the shard *plan* a scale-out router needs: a shard-owner hosts
/// the full-shape table with every row outside its ranges zeroed, so —
/// the reduction being linear — per-shard answer shares sum (lane-wise,
/// wrapping) to exactly the unsharded answer share.
///
/// # Errors
///
/// Returns [`PirError::InvalidSharding`] under the same conditions as
/// [`shard_split_bits`].
pub fn shard_owned_ranges(
    entries: u64,
    shards: usize,
) -> Result<Vec<Vec<std::ops::Range<u64>>>, PirError> {
    let split_bits = shard_split_bits(entries, shards)?;
    let domain_bits = if entries <= 1 {
        0
    } else {
        64 - (entries - 1).leading_zeros()
    };
    let subtree_span = 1u64 << (domain_bits - split_bits);
    let mut ranges = vec![Vec::new(); shards];
    for subtree in 0..(1u64 << split_bits) {
        let start = subtree * subtree_span;
        let end = ((subtree + 1) * subtree_span).min(entries);
        if start < end {
            ranges[subtree as usize % shards].push(start..end);
        }
    }
    Ok(ranges)
}

/// Build one interchangeable GPU server replica for `table`: a single-device
/// [`GpuPirServer`] when `shards == 1`, a [`ShardedGpuServer`] over `shards`
/// V100s otherwise.
///
/// Serving layers that keep pools of identical replicas per party construct
/// each member through this helper so the single/sharded split (and its
/// validation) lives in one place.
///
/// # Errors
///
/// Returns [`PirError::InvalidSharding`] if the table cannot be split across
/// `shards` devices.
pub fn build_replica(
    table: &PirTable,
    prf_kind: PrfKind,
    shards: usize,
    scheduler: SchedulerConfig,
) -> Result<Box<dyn PirServer>, PirError> {
    shard_split_bits(table.entries(), shards)?;
    if shards > 1 {
        Ok(Box::new(ShardedGpuServer::new(
            table.clone(),
            prf_kind,
            vec![DeviceSpec::v100(); shards],
            scheduler,
        )?))
    } else {
        Ok(Box::new(GpuPirServer::new(
            table.clone(),
            prf_kind,
            DeviceSpec::v100(),
            scheduler,
        )))
    }
}

/// Validate an in-place entry update against a table's schema.
///
/// Shared by every [`PirServer::update_entry`] implementation so hot-reload
/// requests fail with typed errors instead of tripping the table's internal
/// assertions.
///
/// # Errors
///
/// Returns [`PirError::IndexOutOfRange`] if `index` is outside the table and
/// [`PirError::SchemaMismatch`] if the payload width differs from the schema.
pub fn validate_update(schema: TableSchema, index: u64, bytes: &[u8]) -> Result<(), PirError> {
    if index >= schema.entries {
        return Err(PirError::IndexOutOfRange {
            index,
            table_size: schema.entries,
        });
    }
    if bytes.len() != schema.entry_bytes {
        return Err(PirError::SchemaMismatch {
            expected: format!("{} B entries", schema.entry_bytes),
            actual: format!("{} B update payload", bytes.len()),
        });
    }
    Ok(())
}

/// Running totals a server keeps about the work it has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerMetrics {
    /// Queries answered so far.
    pub queries_served: u64,
    /// PRF block evaluations performed.
    pub prf_calls: u64,
    /// Estimated device-busy seconds (modelled time, not host wall time).
    pub busy_time_s: f64,
    /// Bytes received from clients.
    pub bytes_in: u64,
    /// Bytes returned to clients.
    pub bytes_out: u64,
}

impl ServerMetrics {
    /// Average sustained throughput in queries per second.
    #[must_use]
    pub fn average_qps(&self) -> f64 {
        if self.busy_time_s <= 0.0 {
            return 0.0;
        }
        self.queries_served as f64 / self.busy_time_s
    }

    pub(crate) fn record_batch(
        &mut self,
        queries: u64,
        prf_calls: u64,
        busy_time_s: f64,
        bytes_in: u64,
        bytes_out: u64,
    ) {
        self.queries_served += queries;
        self.prf_calls += prf_calls;
        self.busy_time_s += busy_time_s;
        self.bytes_in += bytes_in;
        self.bytes_out += bytes_out;
    }
}

/// Behaviour common to both server implementations.
///
/// The trait is object-safe so higher layers (the batch-PIR router, the
/// end-to-end system) can mix CPU and GPU servers behind `dyn PirServer`.
pub trait PirServer: Send + Sync {
    /// The schema of the table this server holds.
    fn schema(&self) -> TableSchema;

    /// Answer a single query.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::SchemaMismatch`] if the query was generated for a
    /// different table shape.
    fn answer(&self, query: &ServerQuery) -> Result<PirResponse, PirError>;

    /// Answer a batch of queries (the server is free to batch them onto the
    /// device however it likes).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::SchemaMismatch`] if any query targets a different
    /// table shape.
    fn answer_batch(&self, queries: &[ServerQuery]) -> Result<Vec<PirResponse>, PirError> {
        queries.iter().map(|query| self.answer(query)).collect()
    }

    /// Overwrite one table entry in place (hot reload, §4.2 "Changes to
    /// Embedding Table": value updates are transparent to clients — no new
    /// keys are needed).
    ///
    /// The update is atomic with respect to [`PirServer::answer_batch`]: a
    /// batch observes the table either entirely before or entirely after the
    /// update, never a mix.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::IndexOutOfRange`] if `index` is outside the table
    /// and [`PirError::SchemaMismatch`] if the payload width differs from
    /// the schema (see [`validate_update`]).
    fn update_entry(&self, index: u64, bytes: &[u8]) -> Result<(), PirError>;

    /// Metrics accumulated since the server was created.
    fn metrics(&self) -> ServerMetrics;

    /// The device bytes this server's memory plan keeps resident across
    /// batches of `batch` queries — what a serving-layer device budget
    /// should lease on top of the per-batch working set. Servers without a
    /// device memory plan (the CPU baseline) report zero.
    fn planned_resident_bytes(&self, batch: usize) -> u64 {
        let _ = batch;
        0
    }

    /// Memory-plan telemetry accumulated since the server was created:
    /// executor-reported resident bytes, table transfers issued/avoided, and
    /// plan-cache hit counters. Servers without a device memory plan report
    /// an empty ledger.
    fn plan_ledger(&self) -> PlanLedger {
        PlanLedger::default()
    }
}

/// Assemble wire responses from evaluated answer shares.
///
/// This is the single answer path shared by every GPU-backed server —
/// single-device batches, sharded multi-device batches and the serving
/// runtime's externally-formed batches all produce `(queries, shares)` pairs
/// in matching order and go through here, so response framing can never
/// drift between server flavours.
pub(crate) fn responses_from_shares(
    queries: &[ServerQuery],
    shares: Vec<LaneVector>,
) -> Vec<PirResponse> {
    debug_assert_eq!(queries.len(), shares.len());
    queries
        .iter()
        .zip(shares)
        .map(|(query, share)| PirResponse {
            query_id: query.query_id,
            party: query.party(),
            share: share.into(),
        })
        .collect()
}

pub(crate) fn check_schema(expected: TableSchema, query: &ServerQuery) -> Result<(), PirError> {
    if query.schema != expected || query.key.params.domain_size != expected.entries {
        return Err(PirError::SchemaMismatch {
            expected: query.schema.describe(),
            actual: expected.describe(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate_and_average() {
        let mut metrics = ServerMetrics::default();
        metrics.record_batch(10, 1000, 0.5, 100, 200);
        metrics.record_batch(10, 1000, 0.5, 100, 200);
        assert_eq!(metrics.queries_served, 20);
        assert_eq!(metrics.prf_calls, 2000);
        assert!((metrics.average_qps() - 20.0).abs() < 1e-9);
        assert_eq!(metrics.bytes_in, 200);
        assert_eq!(metrics.bytes_out, 400);
    }

    #[test]
    fn empty_metrics_have_zero_qps() {
        assert_eq!(ServerMetrics::default().average_qps(), 0.0);
    }

    #[test]
    fn shard_split_bits_rounds_up_to_subtrees() {
        // Non-power-of-two device counts need the next power of two of
        // subtrees: 3 devices -> 4 subtrees -> 2 split bits.
        assert_eq!(shard_split_bits(1 << 10, 1).unwrap(), 0);
        assert_eq!(shard_split_bits(1 << 10, 2).unwrap(), 1);
        assert_eq!(shard_split_bits(1 << 10, 3).unwrap(), 2);
        assert_eq!(shard_split_bits(1 << 10, 5).unwrap(), 3);
    }

    #[test]
    fn shard_split_bits_rejects_impossible_splits() {
        assert!(matches!(
            shard_split_bits(4, 64),
            Err(PirError::InvalidSharding {
                entries: 4,
                devices: 64
            })
        ));
        // A 1-entry table has a depth-0 tree: only one shard fits.
        assert!(shard_split_bits(1, 1).is_ok());
        assert!(shard_split_bits(1, 2).is_err());
        assert!(shard_split_bits(16, 0).is_err());
    }

    #[test]
    fn shard_owned_ranges_partition_every_row_exactly_once() {
        for (entries, shards) in [
            (1u64, 1usize),
            (5, 3),
            (1 << 10, 1),
            (1 << 10, 3),
            (100, 7),
            (257, 4),
        ] {
            let ranges = shard_owned_ranges(entries, shards).unwrap();
            assert_eq!(ranges.len(), shards);
            let mut owners = vec![0usize; entries as usize];
            for owned in &ranges {
                for range in owned {
                    for row in range.clone() {
                        owners[row as usize] += 1;
                    }
                }
            }
            assert!(
                owners.iter().all(|&n| n == 1),
                "{entries} rows x {shards} shards must partition: {owners:?}"
            );
        }
    }

    #[test]
    fn shard_owned_ranges_follow_subtree_striping() {
        // 5 entries, 3 shards -> 2 split bits -> 4 subtrees of span 2 over
        // the padded 8-row domain. Shard 0 also owns subtree 3, which clamps
        // to nothing (rows 6..8 are padding).
        let ranges = shard_owned_ranges(5, 3).unwrap();
        assert_eq!(ranges[0], vec![0..2]);
        assert_eq!(ranges[1], vec![2..4]);
        assert_eq!(ranges[2], vec![4..5]);
        // Same validation surface as shard_split_bits.
        assert!(shard_owned_ranges(4, 64).is_err());
        assert!(shard_owned_ranges(16, 0).is_err());
    }

    #[test]
    fn build_replica_picks_single_or_sharded() {
        let table = PirTable::generate(256, 8, |row, _| row as u8);
        let single =
            build_replica(&table, PrfKind::SipHash, 1, SchedulerConfig::default()).unwrap();
        let sharded =
            build_replica(&table, PrfKind::SipHash, 3, SchedulerConfig::default()).unwrap();
        assert_eq!(single.schema(), table.schema());
        assert_eq!(sharded.schema(), table.schema());
        assert!(build_replica(&table, PrfKind::SipHash, 512, SchedulerConfig::default()).is_err());
    }
}
