//! Multi-GPU sharding of a single DPF (§3.2.7).

use gpu_sim::{BlockContext, GpuExecutor, KernelReport, LaunchConfig, ResidentAllocation};
use pir_field::{AtomicLaneRows, LaneVector, ShareMatrix};
use pir_prf::{GgmPrg, PrfKind};

use crate::fusion::fused_eval_matmul_subtree;
use crate::recorder::KernelRecorder;
use crate::strategy::{EvalStrategy, Subtree};
use crate::DpfKey;

/// Allocate and upload one device's table slice of `slice_bytes`.
fn upload_slice(executor: &GpuExecutor, slice_bytes: u64) -> ResidentAllocation {
    let alloc = executor.alloc(slice_bytes);
    executor.upload_table(&alloc, slice_bytes);
    alloc
}

/// Table rows resident on a device that owns `subtrees`, clamped to the real
/// (unpadded) table: a subtree whose leaves all fall in the padded tail holds
/// no rows at all.
fn owned_rows(subtrees: &[Subtree], key: &DpfKey, table_rows: u64) -> u64 {
    subtrees
        .iter()
        .map(|subtree| {
            table_rows
                .saturating_sub(subtree.base_index(key))
                .min(subtree.leaf_count(key))
        })
        .sum()
}

/// Evaluate one DPF across several GPUs, each owning a contiguous slice of the
/// table.
///
/// Because the final reduction (a sum of partial dot products) is linear, the
/// domain can be split into one subtree per GPU; each device evaluates the DPF
/// only on its slice (equivalent to a table of `L / N` entries) and the host
/// sums the partial shares. Per the paper, this is embarrassingly parallel;
/// the cost is that each GPU sees a smaller effective table, so deeper
/// batching is needed to keep utilization up.
pub struct MultiGpuEvalJob<'a> {
    /// PRG shared by all devices.
    pub prg: &'a GgmPrg,
    /// PRF family for cost accounting.
    pub prf_kind: PrfKind,
    /// The key being evaluated (one query).
    pub key: &'a DpfKey,
    /// The full table; device `g` reads only rows in its subtree.
    pub table: &'a ShareMatrix,
    /// Expansion strategy used on every device.
    pub strategy: EvalStrategy,
    /// Blocks launched per device.
    pub blocks_per_device: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

/// Result of a multi-GPU evaluation.
#[derive(Clone, Debug)]
pub struct MultiGpuOutput {
    /// The answer share (sum of all devices' partial shares).
    pub result: LaneVector,
    /// Per-device kernel reports.
    pub per_device: Vec<KernelReport>,
    /// End-to-end estimated time: the slowest device plus the host reduction.
    pub estimated_time_s: f64,
}

impl<'a> MultiGpuEvalJob<'a> {
    /// Create a job with the paper's defaults.
    #[must_use]
    pub fn new(
        prg: &'a GgmPrg,
        prf_kind: PrfKind,
        key: &'a DpfKey,
        table: &'a ShareMatrix,
    ) -> Self {
        Self {
            prg,
            prf_kind,
            key,
            table,
            strategy: EvalStrategy::memory_bounded_default(),
            blocks_per_device: 320,
            threads_per_block: 256,
        }
    }

    /// Run the job on the provided executors (one per simulated GPU): each
    /// device allocates and uploads its table slice and the key, launches,
    /// contributes its partial share through the executor's reduction
    /// primitive, and frees its allocations.
    ///
    /// # Panics
    ///
    /// Panics if `executors` is empty or there are more devices than the
    /// domain can be split into.
    pub fn run(&self, executors: &[GpuExecutor]) -> MultiGpuOutput {
        assert!(!executors.is_empty(), "need at least one device");
        let device_count = executors.len();
        let split_bits = (device_count as u64).next_power_of_two().trailing_zeros();
        assert!(
            split_bits <= self.key.depth(),
            "cannot split a depth-{} tree across {device_count} devices",
            self.key.depth()
        );
        let subtrees = Subtree::split(self.key, split_bits);
        let cycles = self.prf_kind.gpu_cycles_per_block();

        let mut per_device = Vec::with_capacity(device_count);
        let mut result = LaneVector::zeroed(self.table.lanes_per_row());

        for (device_index, executor) in executors.iter().enumerate() {
            // Device g owns every subtree with index ≡ g (mod device_count).
            let owned: Vec<Subtree> = subtrees
                .iter()
                .copied()
                .skip(device_index)
                .step_by(device_count)
                .collect();
            if owned.is_empty() {
                continue;
            }
            // Blocks fold their local sums into one shared row with lock-free
            // wrapping lane adds.
            let partial = AtomicLaneRows::new(1, self.table.lanes_per_row());
            // Residency follows the subtrees this device actually owns: with a
            // non-power-of-two device count some devices own an extra subtree
            // (3 devices -> 4 subtrees, device 0 owns two), so `rows /
            // device_count` would undercount their table slice.
            let slice_bytes = owned_rows(&owned, self.key, self.table.rows() as u64)
                * self.table.lanes_per_row() as u64
                * 4;
            let slice_alloc = upload_slice(executor, slice_bytes);
            let key_alloc = executor.alloc(self.key.size_bytes() as u64);
            executor.upload_keys(&key_alloc, key_alloc.bytes());
            let config = LaunchConfig::linear(
                self.blocks_per_device.min(owned.len() as u32 * 8).max(1),
                self.threads_per_block,
            );

            let report = executor.launch_resident(
                &format!("dpf_multi_gpu[{device_index}]"),
                config,
                &[&slice_alloc, &key_alloc],
                |block: &BlockContext<'_>| {
                    let recorder = KernelRecorder::new(block, cycles);
                    // Blocks stripe over this device's subtrees.
                    let mut local = LaneVector::zeroed(self.table.lanes_per_row());
                    let mut handled_any = false;
                    for (i, subtree) in owned.iter().enumerate() {
                        if i as u64 % block.config().total_blocks() != block.block_index() {
                            continue;
                        }
                        handled_any = true;
                        let part = fused_eval_matmul_subtree(
                            self.prg,
                            self.key,
                            self.table,
                            *subtree,
                            self.strategy,
                            &recorder,
                        );
                        local.add_assign_wrapping(&part);
                    }
                    if handled_any {
                        partial.add_row(0, &local);
                    }
                },
            );

            // The cross-device partial sum is the executor's reduction
            // primitive, counted in its ledger.
            executor.reduce(&mut result.0, &partial.row(0).0);
            executor.free(key_alloc);
            executor.free(slice_alloc);
            per_device.push(report);
        }

        // Devices run in parallel: end-to-end time is the slowest device plus a
        // small host-side reduction of N partial vectors.
        let slowest = per_device
            .iter()
            .map(|r| r.estimated_time_s)
            .fold(0.0f64, f64::max);
        let reduction_s = 1e-6 * device_count as f64;
        MultiGpuOutput {
            result,
            per_device,
            estimated_time_s: slowest + reduction_s,
        }
    }
}

/// Evaluate a *batch* of DPFs across several GPUs.
///
/// The single-key [`MultiGpuEvalJob`] dedicates the whole multi-GPU complex
/// to one query; a serving layer that has already coalesced many concurrent
/// queries wants the transpose: every device holds its slice of the table
/// permanently (tables larger than one device's memory are the reason to
/// shard at all) and evaluates *every* query of the batch against that slice.
/// Each (query, owned-subtree) pair becomes one unit of block work, the
/// device-level partial shares are summed on the host, and the end-to-end
/// time is the slowest device plus the reduction — the same
/// embarrassingly-parallel decomposition as §3.2.7, amortized over a batch.
pub struct MultiGpuBatchEvalJob<'a> {
    /// PRG shared by all devices.
    pub prg: &'a GgmPrg,
    /// PRF family for cost accounting.
    pub prf_kind: PrfKind,
    /// Keys of the batched queries (all for the same party and domain).
    pub keys: &'a [DpfKey],
    /// The full table; device `g` reads only rows in its subtrees.
    pub table: &'a ShareMatrix,
    /// Expansion strategy used on every device.
    pub strategy: EvalStrategy,
    /// Blocks launched per device.
    pub blocks_per_device: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

/// Result of a multi-GPU batched evaluation.
#[derive(Clone, Debug)]
pub struct MultiGpuBatchOutput {
    /// One answer share per input key, in order.
    pub results: Vec<LaneVector>,
    /// Per-device kernel reports.
    pub per_device: Vec<KernelReport>,
    /// End-to-end estimated time: the slowest device plus the host reduction.
    pub estimated_time_s: f64,
}

impl MultiGpuBatchOutput {
    /// Total PRF evaluations across all devices.
    #[must_use]
    pub fn total_prf_calls(&self) -> u64 {
        self.per_device.iter().map(|r| r.counters.prf_calls).sum()
    }

    /// Queries per second implied by the slowest device.
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        if self.estimated_time_s <= 0.0 {
            return 0.0;
        }
        self.results.len() as f64 / self.estimated_time_s
    }
}

impl<'a> MultiGpuBatchEvalJob<'a> {
    /// Create a job with the paper's defaults.
    #[must_use]
    pub fn new(
        prg: &'a GgmPrg,
        prf_kind: PrfKind,
        keys: &'a [DpfKey],
        table: &'a ShareMatrix,
    ) -> Self {
        Self {
            prg,
            prf_kind,
            keys,
            table,
            strategy: EvalStrategy::memory_bounded_default(),
            blocks_per_device: 320,
            threads_per_block: 256,
        }
    }

    /// Builder-style: set the expansion strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style: set threads per block.
    #[must_use]
    pub fn with_threads_per_block(mut self, threads: u32) -> Self {
        self.threads_per_block = threads;
        self
    }

    /// Per-device table-slice sizes in bytes for a `device_count`-way split
    /// of this job's table — what [`MultiGpuBatchEvalJob::run_resident`]
    /// expects each pre-uploaded slice allocation to measure. Matches the
    /// plan layer's `DevicePlan::table_bytes` (same subtree striping, same
    /// one-row floor).
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or the domain cannot split
    /// `device_count` ways.
    #[must_use]
    pub fn slice_bytes(&self, device_count: usize) -> Vec<u64> {
        assert!(!self.keys.is_empty(), "batch must contain at least one key");
        assert!(device_count > 0, "need at least one device");
        let split_bits = (device_count as u64).next_power_of_two().trailing_zeros();
        assert!(
            split_bits <= self.keys[0].depth(),
            "cannot split a depth-{} tree across {device_count} devices",
            self.keys[0].depth()
        );
        let subtrees = Subtree::split(&self.keys[0], split_bits);
        let lanes = self.table.lanes_per_row() as u64;
        (0..device_count)
            .map(|device_index| {
                let owned: Vec<Subtree> = subtrees
                    .iter()
                    .copied()
                    .skip(device_index)
                    .step_by(device_count)
                    .collect();
                owned_rows(&owned, &self.keys[0], self.table.rows() as u64).max(1) * lanes * 4
            })
            .collect()
    }

    /// Run the batch on the provided executors (one per simulated GPU) with
    /// every device's table slice streamed for this batch: allocate, upload,
    /// evaluate, free — per device.
    ///
    /// Servers whose memory plan keeps the slices resident should hold the
    /// allocations and call [`MultiGpuBatchEvalJob::run_resident`].
    ///
    /// # Panics
    ///
    /// Panics if the batch or the executor list is empty, or there are more
    /// devices than the domain can be split into.
    pub fn run(&self, executors: &[GpuExecutor]) -> MultiGpuBatchOutput {
        assert!(!self.keys.is_empty(), "batch must contain at least one key");
        assert!(!executors.is_empty(), "need at least one device");
        let sizes = self.slice_bytes(executors.len());
        let slices: Vec<ResidentAllocation> = executors
            .iter()
            .zip(sizes)
            .map(|(executor, slice_bytes)| upload_slice(executor, slice_bytes))
            .collect();
        let slice_refs: Vec<&ResidentAllocation> = slices.iter().collect();
        let output = self.run_resident(executors, &slice_refs);
        for (executor, slice) in executors.iter().zip(slices) {
            executor.free(slice);
        }
        output
    }

    /// Run the batch against table slices that are *already resident*, one
    /// per executor (uploaded by the caller's memory plan — see
    /// [`MultiGpuBatchEvalJob::slice_bytes`] for the expected sizes). Only
    /// per-batch keys and outputs are allocated, transferred and freed here.
    ///
    /// # Panics
    ///
    /// Panics if the batch or executor list is empty, the domain cannot
    /// split across the devices, or `slices` disagrees with the executors in
    /// length or per-device size.
    pub fn run_resident(
        &self,
        executors: &[GpuExecutor],
        slices: &[&ResidentAllocation],
    ) -> MultiGpuBatchOutput {
        assert!(!self.keys.is_empty(), "batch must contain at least one key");
        assert!(!executors.is_empty(), "need at least one device");
        let device_count = executors.len();
        assert_eq!(
            slices.len(),
            device_count,
            "one resident table slice per device"
        );
        let expected = self.slice_bytes(device_count);
        for (slice, expected_bytes) in slices.iter().zip(&expected) {
            assert_eq!(
                slice.bytes(),
                *expected_bytes,
                "resident slice does not match the job's table split"
            );
        }
        let depth = self.keys[0].depth();
        let split_bits = (device_count as u64).next_power_of_two().trailing_zeros();
        assert!(
            split_bits <= depth,
            "cannot split a depth-{depth} tree across {device_count} devices"
        );
        let cycles = self.prf_kind.gpu_cycles_per_block();
        let lanes = self.table.lanes_per_row();

        // One subtree list per key; all keys share the same domain, so every
        // list has the same length and device `g` owns the same subtree
        // *indices* (≡ g mod device_count) for every key.
        let subtrees_per_key: Vec<Vec<Subtree>> = self
            .keys
            .iter()
            .map(|key| Subtree::split(key, split_bits))
            .collect();
        let subtree_count = subtrees_per_key[0].len();

        let key_bytes: u64 = self.keys.iter().map(|k| k.size_bytes() as u64).sum();
        let mut per_device = Vec::with_capacity(device_count);
        let mut results = vec![LaneVector::zeroed(lanes); self.keys.len()];

        for (device_index, executor) in executors.iter().enumerate() {
            let owned_indices: Vec<usize> = (0..subtree_count)
                .skip(device_index)
                .step_by(device_count)
                .collect();
            if owned_indices.is_empty() {
                continue;
            }
            // Flattened (key × owned-subtree) work items, striped over blocks.
            let work_items = self.keys.len() * owned_indices.len();
            // One partial row per key; blocks accumulate with lock-free
            // wrapping lane adds instead of taking a mutex per work item.
            let partials = AtomicLaneRows::new(self.keys.len(), lanes);
            // Per-batch allocations: the keys and one partial-share row per
            // key; the table slice is the caller's resident allocation.
            let keys_alloc = executor.alloc(key_bytes);
            executor.upload_keys(&keys_alloc, key_bytes);
            let out_alloc = executor.alloc(self.keys.len() as u64 * lanes as u64 * 4);
            let config = LaunchConfig::linear(
                self.blocks_per_device.min(work_items as u32).max(1),
                self.threads_per_block,
            );

            let report = executor.launch_resident(
                &format!("dpf_multi_gpu_batch[{device_index}]"),
                config,
                &[slices[device_index], &keys_alloc, &out_alloc],
                |block: &BlockContext<'_>| {
                    let recorder = KernelRecorder::new(block, cycles);
                    let total_blocks = block.config().total_blocks();
                    for item in 0..work_items {
                        if item as u64 % total_blocks != block.block_index() {
                            continue;
                        }
                        let key_index = item / owned_indices.len();
                        let subtree =
                            subtrees_per_key[key_index][owned_indices[item % owned_indices.len()]];
                        block
                            .counters()
                            .record_global_read(self.keys[key_index].size_bytes() as u64);
                        let part = fused_eval_matmul_subtree(
                            self.prg,
                            &self.keys[key_index],
                            self.table,
                            subtree,
                            self.strategy,
                            &recorder,
                        );
                        partials.add_row(key_index, &part);
                    }
                },
            );

            executor.download(&out_alloc, out_alloc.bytes());
            for (result, partial) in results.iter_mut().zip(partials.into_lane_vectors()) {
                executor.reduce(&mut result.0, &partial.0);
            }
            executor.free(out_alloc);
            executor.free(keys_alloc);
            per_device.push(report);
        }

        // Devices run in parallel: end-to-end time is the slowest device plus
        // a host-side reduction of N partial vectors per query.
        let slowest = per_device
            .iter()
            .map(|r| r.estimated_time_s)
            .fold(0.0f64, f64::max);
        let reduction_s = 1e-6 * device_count as f64 * self.keys.len() as f64;
        MultiGpuBatchOutput {
            results,
            per_device,
            estimated_time_s: slowest + reduction_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fused_eval_matmul;
    use crate::recorder::NullRecorder;
    use crate::{generate_keys, DpfParams};
    use gpu_sim::DeviceSpec;
    use pir_field::{reconstruct_lanes, Ring128};
    use pir_prf::build_prf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(rows: usize) -> (GgmPrg, ShareMatrix, DpfKey, DpfKey, u64) {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(61);
        let lanes = 8;
        let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
        let table = ShareMatrix::from_rows(rows, lanes, data);
        let params = DpfParams::for_domain(rows as u64);
        let target = rng.gen_range(0..rows as u64);
        let (a, b) = generate_keys(&prg, &params, target, Ring128::ONE, &mut rng);
        (prg, table, a, b, target)
    }

    #[test]
    fn multi_gpu_matches_single_device_answer() {
        let (prg, table, key_a, key_b, target) = setup(1 << 10);
        let executors: Vec<GpuExecutor> = (0..4)
            .map(|_| GpuExecutor::with_host_threads(DeviceSpec::v100(), 2))
            .collect();

        let single =
            fused_eval_matmul(&prg, &key_a, &table, EvalStrategy::default(), &NullRecorder);
        let multi = MultiGpuEvalJob::new(&prg, PrfKind::SipHash, &key_a, &table).run(&executors);
        assert_eq!(multi.result, single);
        assert_eq!(multi.per_device.len(), 4);

        // And it still reconstructs against party B evaluated however.
        let other = MultiGpuEvalJob::new(&prg, PrfKind::SipHash, &key_b, &table).run(&executors);
        let row = reconstruct_lanes(&Vec::from(multi.result), &Vec::from(other.result));
        assert_eq!(row, table.row(target as usize));
    }

    #[test]
    fn per_device_work_shrinks_with_more_devices() {
        let (prg, table, key_a, _key_b, _) = setup(1 << 12);
        let one: Vec<GpuExecutor> = vec![GpuExecutor::with_host_threads(DeviceSpec::v100(), 2)];
        let four: Vec<GpuExecutor> = (0..4)
            .map(|_| GpuExecutor::with_host_threads(DeviceSpec::v100(), 2))
            .collect();
        let job = MultiGpuEvalJob::new(&prg, PrfKind::SipHash, &key_a, &table);
        let single = job.run(&one);
        let multi = job.run(&four);
        let single_prf = single.per_device[0].counters.prf_calls;
        let multi_prf_max = multi
            .per_device
            .iter()
            .map(|r| r.counters.prf_calls)
            .max()
            .unwrap();
        assert!(
            multi_prf_max * 3 < single_prf,
            "{multi_prf_max} vs {single_prf}"
        );
    }

    #[test]
    fn residency_reflects_owned_subtrees_for_non_power_of_two_devices() {
        // 3 devices split a 2^10-row table into 4 subtrees; device 0 owns
        // subtrees {0, 3} and must account rows for both (half the table),
        // not rows/3.
        let (prg, table, key_a, _key_b, _) = setup(1 << 10);
        let executors: Vec<GpuExecutor> = (0..3)
            .map(|_| GpuExecutor::with_host_threads(DeviceSpec::v100(), 1))
            .collect();
        let out = MultiGpuEvalJob::new(&prg, PrfKind::SipHash, &key_a, &table).run(&executors);

        let row_bytes = table.lanes_per_row() as u64 * 4;
        let half_table = (table.rows() as u64 / 2) * row_bytes;
        assert!(
            out.per_device[0].peak_memory_bytes >= half_table,
            "device 0 owns two of four subtrees: peak {} must cover {half_table}",
            out.per_device[0].peak_memory_bytes
        );
        // Devices 1 and 2 own one subtree each (a quarter of the table), so
        // their residency stays below device 0's.
        for report in &out.per_device[1..] {
            assert!(report.peak_memory_bytes < out.per_device[0].peak_memory_bytes);
        }

        // The batch job applies the same ownership-aware accounting.
        let keys = vec![key_a.clone()];
        let batch =
            MultiGpuBatchEvalJob::new(&prg, PrfKind::SipHash, &keys, &table).run(&executors);
        assert!(batch.per_device[0].peak_memory_bytes >= half_table);
    }

    #[test]
    fn owned_rows_clamps_to_real_table() {
        let (_prg, _table, key_a, _key_b, _) = setup(1 << 6);
        let subtrees = Subtree::split(&key_a, 2);
        // The full split covers exactly the table.
        assert_eq!(owned_rows(&subtrees, &key_a, 1 << 6), 1 << 6);
        // A short table leaves the tail subtrees empty.
        assert_eq!(owned_rows(&subtrees, &key_a, 40), 40);
        assert_eq!(owned_rows(&subtrees[3..], &key_a, 40), 0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_device_list_panics() {
        let (prg, table, key_a, _key_b, _) = setup(64);
        let executors: Vec<GpuExecutor> = Vec::new();
        let _ = MultiGpuEvalJob::new(&prg, PrfKind::SipHash, &key_a, &table).run(&executors);
    }

    fn batch_setup(
        rows: usize,
        batch: usize,
    ) -> (GgmPrg, ShareMatrix, Vec<u64>, Vec<DpfKey>, Vec<DpfKey>) {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(77);
        let lanes = 4;
        let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
        let table = ShareMatrix::from_rows(rows, lanes, data);
        let params = DpfParams::for_domain(rows as u64);
        let mut targets = Vec::new();
        let mut keys_a = Vec::new();
        let mut keys_b = Vec::new();
        for _ in 0..batch {
            let target = rng.gen_range(0..rows as u64);
            let (a, b) = generate_keys(&prg, &params, target, Ring128::ONE, &mut rng);
            targets.push(target);
            keys_a.push(a);
            keys_b.push(b);
        }
        (prg, table, targets, keys_a, keys_b)
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index i addresses three parallel arrays
    fn batched_multi_gpu_reconstructs_every_query() {
        let (prg, table, targets, keys_a, keys_b) = batch_setup(1 << 9, 7);
        let executors: Vec<GpuExecutor> = (0..3)
            .map(|_| GpuExecutor::with_host_threads(DeviceSpec::v100(), 2))
            .collect();
        let out_a =
            MultiGpuBatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &table).run(&executors);
        let out_b =
            MultiGpuBatchEvalJob::new(&prg, PrfKind::SipHash, &keys_b, &table).run(&executors);
        assert_eq!(out_a.results.len(), 7);
        assert_eq!(out_a.per_device.len(), 3);
        for i in 0..7 {
            let row = reconstruct_lanes(
                &Vec::from(out_a.results[i].clone()),
                &Vec::from(out_b.results[i].clone()),
            );
            assert_eq!(row, table.row(targets[i] as usize), "query {i}");
        }
        assert!(out_a.total_prf_calls() > 0);
        assert!(out_a.throughput_qps() > 0.0);
    }

    #[test]
    fn batched_multi_gpu_matches_single_device_batch() {
        let (prg, table, _targets, keys_a, _keys_b) = batch_setup(1 << 8, 5);
        let one: Vec<GpuExecutor> = vec![GpuExecutor::with_host_threads(DeviceSpec::v100(), 2)];
        let four: Vec<GpuExecutor> = (0..4)
            .map(|_| GpuExecutor::with_host_threads(DeviceSpec::v100(), 2))
            .collect();
        let job = MultiGpuBatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &table);
        let single = job.run(&one);
        let multi = job.run(&four);
        assert_eq!(single.results, multi.results);
        // Per-device work shrinks when the batch is spread across devices.
        let single_prf = single.per_device[0].counters.prf_calls;
        let multi_prf_max = multi
            .per_device
            .iter()
            .map(|r| r.counters.prf_calls)
            .max()
            .unwrap();
        assert!(multi_prf_max < single_prf);
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_batch_multi_gpu_panics() {
        let (prg, table, _key_a, _key_b, _) = setup(64);
        let executors = vec![GpuExecutor::with_host_threads(DeviceSpec::v100(), 1)];
        let keys: Vec<DpfKey> = Vec::new();
        let _ = MultiGpuBatchEvalJob::new(&prg, PrfKind::SipHash, &keys, &table).run(&executors);
    }
}
