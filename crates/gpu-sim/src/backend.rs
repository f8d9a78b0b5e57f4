//! The device-memory lifecycle of a [`GpuExecutor`]: explicit allocation
//! handles, host↔device transfers, launches against a set of resident
//! allocations, a reduction primitive and a download step.
//!
//! Transfers are *accounted*, not performed: the ledger tracks every byte a
//! real device would move (the memory plans in `pir-dpf` read it), while
//! kernels read their inputs straight from host memory and launch time comes
//! from the roofline [`CostModel`](crate::CostModel). The operations map one
//! to one onto `cudaMalloc` / `cudaMemcpy` / launch / `cudaMemcpyD2H` /
//! `cudaFree`.

use std::collections::HashMap;
use std::sync::{MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use crate::{GpuExecutor, Kernel, KernelReport, LaunchConfig};

/// Handle to one live device-memory allocation.
///
/// Handles are linear: [`GpuExecutor::alloc`] mints one, exactly one
/// [`GpuExecutor::free`] consumes it, and every upload/launch/download in
/// between names it explicitly. The struct is deliberately not `Clone` — a
/// copied handle is how use-after-free bugs are born on real devices.
#[derive(Debug, PartialEq, Eq)]
pub struct ResidentAllocation {
    id: u64,
    bytes: u64,
}

impl ResidentAllocation {
    /// Size of the allocation in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Executor-assigned allocation id (unique per executor instance).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// What a transfer is carrying, so telemetry can distinguish the one-time
/// table upload (the bytes a memory plan keeps resident) from the
/// unavoidable per-batch key/output traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferKind {
    /// Table (or table-shard) bytes — avoidable across batches once resident.
    Table,
    /// Per-batch DPF key bytes — paid on every launch.
    Keys,
    /// Per-batch answer-share bytes — paid on every launch.
    Output,
}

/// Point-in-time snapshot of one executor's allocation/transfer ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendStats {
    /// Allocations minted.
    pub allocs: u64,
    /// Allocations freed.
    pub frees: u64,
    /// Bytes currently allocated.
    pub resident_bytes: u64,
    /// High-water mark of allocated bytes.
    pub peak_resident_bytes: u64,
    /// Host→device transfers performed, total.
    pub uploads: u64,
    /// Host→device bytes, total.
    pub upload_bytes: u64,
    /// Host→device table bytes (the avoidable-when-resident share of
    /// `upload_bytes`).
    pub table_upload_bytes: u64,
    /// Device→host transfers performed.
    pub downloads: u64,
    /// Device→host bytes.
    pub download_bytes: u64,
    /// Kernel launches issued through [`GpuExecutor::launch_resident`].
    pub launches: u64,
    /// `u32` lanes accumulated through [`GpuExecutor::reduce`].
    pub reduced_lanes: u64,
}

impl BackendStats {
    /// Allocations currently live.
    #[must_use]
    pub fn live_allocations(&self) -> u64 {
        self.allocs - self.frees
    }
}

/// Allocation/transfer bookkeeping behind an executor's lifecycle methods.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    next_id: u64,
    /// Live allocation id → size in bytes.
    live: HashMap<u64, u64>,
    stats: BackendStats,
}

impl Ledger {
    /// Check that a `len`-byte transfer fits live `allocation`.
    ///
    /// # Panics
    ///
    /// Panics if `allocation` is not live on this executor or `len` exceeds
    /// it — both would be memory-safety bugs on a real device.
    fn check_transfer(&self, allocation: &ResidentAllocation, len: u64, op: &str) {
        let id = allocation.id;
        let capacity = *self
            .live
            .get(&id)
            .unwrap_or_else(|| panic!("{op} against freed or foreign allocation #{id}"));
        assert!(
            len <= capacity,
            "{op} of {len} bytes overflows {capacity}-byte allocation #{id}"
        );
    }
}

impl GpuExecutor {
    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        // Every ledger update completes under the lock, so a guard recovered
        // from a poisoned mutex still holds consistent counts.
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocate `bytes` of device memory.
    pub fn alloc(&self, bytes: u64) -> ResidentAllocation {
        let mut ledger = self.ledger();
        let id = ledger.next_id;
        ledger.next_id += 1;
        ledger.live.insert(id, bytes);
        let stats = &mut ledger.stats;
        stats.allocs += 1;
        stats.resident_bytes += bytes;
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(stats.resident_bytes);
        ResidentAllocation { id, bytes }
    }

    /// Record a host→device copy of `bytes` into `dst`.
    fn upload(&self, dst: &ResidentAllocation, kind: TransferKind, bytes: u64) {
        let mut ledger = self.ledger();
        ledger.check_transfer(dst, bytes, "upload");
        ledger.stats.uploads += 1;
        ledger.stats.upload_bytes += bytes;
        if kind == TransferKind::Table {
            ledger.stats.table_upload_bytes += bytes;
        }
    }

    /// Upload table (or table-shard) bytes — the transfer a batch-resident
    /// memory plan exists to avoid repeating.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not live on this executor or `bytes` exceeds the
    /// allocation — both would be memory-safety bugs on a real device.
    pub fn upload_table(&self, dst: &ResidentAllocation, bytes: u64) {
        self.upload(dst, TransferKind::Table, bytes);
    }

    /// Upload per-batch DPF key bytes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`GpuExecutor::upload_table`].
    pub fn upload_keys(&self, dst: &ResidentAllocation, bytes: u64) {
        self.upload(dst, TransferKind::Keys, bytes);
    }

    /// Launch `kernel` with `config` against the given resident allocations
    /// (their summed sizes are the launch's resident working set).
    ///
    /// # Panics
    ///
    /// Panics if the launch geometry is invalid for the device, like
    /// [`GpuExecutor::launch`].
    pub fn launch_resident<K>(
        &self,
        name: &str,
        config: LaunchConfig,
        resident: &[&ResidentAllocation],
        kernel: K,
    ) -> KernelReport
    where
        K: Kernel,
    {
        self.ledger().stats.launches += 1;
        let resident_bytes = resident.iter().map(|a| a.bytes()).sum();
        self.launch_with_resident_memory(name, config, resident_bytes, kernel)
    }

    /// Lane-wise wrapping-add `partial` into `accumulator` — the host-side
    /// reduction combining per-subtree or per-device partial shares.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn reduce(&self, accumulator: &mut [u32], partial: &[u32]) {
        assert_eq!(
            accumulator.len(),
            partial.len(),
            "reduce over mismatched lane counts"
        );
        for (acc, add) in accumulator.iter_mut().zip(partial) {
            *acc = acc.wrapping_add(*add);
        }
        self.ledger().stats.reduced_lanes += partial.len() as u64;
    }

    /// Record a device→host copy of `bytes` out of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not live on this executor or `bytes` exceeds the
    /// allocation.
    pub fn download(&self, src: &ResidentAllocation, bytes: u64) {
        let mut ledger = self.ledger();
        ledger.check_transfer(src, bytes, "download");
        ledger.stats.downloads += 1;
        ledger.stats.download_bytes += bytes;
    }

    /// Release an allocation.
    ///
    /// # Panics
    ///
    /// Panics if the allocation was already freed (a forged copy of a
    /// consumed handle).
    pub fn free(&self, allocation: ResidentAllocation) {
        let mut ledger = self.ledger();
        let bytes = ledger
            .live
            .remove(&allocation.id)
            .unwrap_or_else(|| panic!("double free of allocation #{}", allocation.id));
        ledger.stats.frees += 1;
        ledger.stats.resident_bytes -= bytes;
    }

    /// Snapshot of the executor's allocation/transfer ledger.
    #[must_use]
    pub fn stats(&self) -> BackendStats {
        self.ledger().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockContext, DeviceSpec};

    fn executor() -> GpuExecutor {
        GpuExecutor::with_host_threads(DeviceSpec::v100(), 2)
    }

    #[test]
    fn lifecycle_ledger_tracks_allocs_transfers_and_frees() {
        let executor = executor();
        let table = executor.alloc(64);
        let keys = executor.alloc(16);
        executor.upload_table(&table, 64);
        executor.upload_keys(&keys, 16);
        let report = executor.launch_resident(
            "noop",
            LaunchConfig::linear(4, 32),
            &[&table, &keys],
            |block: &BlockContext<'_>| {
                block.counters().record_flops(1);
            },
        );
        assert!(report.peak_memory_bytes >= 80);
        assert!(report.host_wall_time_s > 0.0);
        executor.download(&table, 8);
        executor.free(keys);
        executor.free(table);

        let stats = executor.stats();
        assert_eq!(stats.allocs, 2);
        assert_eq!(stats.frees, 2);
        assert_eq!(stats.live_allocations(), 0);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.peak_resident_bytes, 80);
        assert_eq!(stats.uploads, 2);
        assert_eq!(stats.upload_bytes, 80);
        assert_eq!(stats.table_upload_bytes, 64);
        assert_eq!(stats.downloads, 1);
        assert_eq!(stats.download_bytes, 8);
        assert_eq!(stats.launches, 1);
    }

    #[test]
    fn reduce_is_wrapping_lane_addition() {
        let executor = executor();
        let mut acc = vec![u32::MAX, 1, 2];
        executor.reduce(&mut acc, &[1, 10, 20]);
        assert_eq!(acc, vec![0, 11, 22]);
        assert_eq!(executor.stats().reduced_lanes, 3);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let executor = executor();
        let alloc = executor.alloc(4);
        let copy = ResidentAllocation {
            id: alloc.id(),
            bytes: alloc.bytes(),
        };
        executor.free(alloc);
        executor.free(copy);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_upload_panics() {
        let executor = executor();
        let alloc = executor.alloc(4);
        executor.upload_table(&alloc, 8);
    }
}
