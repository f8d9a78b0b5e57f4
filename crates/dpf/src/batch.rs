//! Batched DPF execution on the simulated GPU (§3.2.1, §3.2.5).

use gpu_sim::{BlockContext, GpuExecutor, KernelReport, LaunchConfig, ResidentAllocation};
use pir_field::{AtomicLaneRows, LaneVector, ShareMatrix};
use pir_prf::{GgmPrg, PrfKind};
use serde::{Deserialize, Serialize};

use crate::fusion::{fused_eval_matmul, fused_eval_matmul_subtree, unfused_eval_matmul};
use crate::recorder::KernelRecorder;
use crate::strategy::{EvalStrategy, Subtree};
use crate::DpfKey;

/// How queries are mapped onto the GPU grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GridMapping {
    /// One thread block per DPF key: the standard batched execution mode.
    BlockPerQuery,
    /// All blocks cooperate on one DPF at a time (cooperative groups), used
    /// for very large tables where a single DPF saturates the device.
    Cooperative {
        /// `log2` of the number of subtrees the domain is split into (one
        /// subtree per block).
        split_bits: u32,
    },
}

/// A batch of DPF queries to evaluate against one table.
#[derive(Clone, Copy)]
pub struct BatchEvalJob<'a> {
    /// PRG (and therefore PRF) used by the servers.
    pub prg: &'a GgmPrg,
    /// PRF family, used to charge the right per-call cycle cost.
    pub prf_kind: PrfKind,
    /// Keys of the batched queries (all for the same party and domain).
    pub keys: &'a [DpfKey],
    /// The table the server multiplies against.
    pub table: &'a ShareMatrix,
    /// Expansion strategy.
    pub strategy: EvalStrategy,
    /// Whether to fuse the matrix multiplication into the expansion.
    pub fused: bool,
    /// Threads per block for the launch.
    pub threads_per_block: u32,
    /// Grid mapping (batched or cooperative).
    pub mapping: GridMapping,
}

/// Results and performance report of a batched evaluation.
#[derive(Clone, Debug)]
pub struct BatchEvalOutput {
    /// One answer share per input key, in order.
    pub results: Vec<LaneVector>,
    /// Merged kernel report (counters, occupancy, estimated time).
    pub report: KernelReport,
}

impl BatchEvalOutput {
    /// Queries per second implied by the report.
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        self.report.throughput_qps(self.results.len() as u64)
    }

    /// Estimated kernel latency in milliseconds.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.report.latency_ms()
    }
}

impl<'a> BatchEvalJob<'a> {
    /// Create a job with the defaults the paper uses: fused memory-bounded
    /// expansion, 256 threads per block, block-per-query mapping.
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
            fused: true,
            threads_per_block: 256,
            mapping: GridMapping::BlockPerQuery,
        }
    }

    /// Builder-style: set the expansion strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style: enable or disable operator fusion.
    #[must_use]
    pub fn with_fusion(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Builder-style: set the grid mapping.
    #[must_use]
    pub fn with_mapping(mut self, mapping: GridMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Builder-style: set threads per block.
    #[must_use]
    pub fn with_threads_per_block(mut self, threads: u32) -> Self {
        self.threads_per_block = threads;
        self
    }

    /// Builder-style: apply an [`ExecutionPlan`](crate::ExecutionPlan)
    /// chosen by the [`Scheduler`](crate::Scheduler).
    ///
    /// This is the submission path for *externally formed* batches: a serving
    /// layer that accumulates concurrent queries (rather than receiving one
    /// pre-built batch) plans once per batch and hands the plan here, so
    /// every knob the scheduler chose — strategy, grid mapping, threads per
    /// block — is applied atomically instead of field by field.
    #[must_use]
    pub fn with_plan(self, plan: &crate::ExecutionPlan) -> Self {
        self.with_strategy(plan.strategy)
            .with_mapping(plan.mapping)
            .with_threads_per_block(plan.threads_per_block)
    }

    /// Device memory that stays resident for the whole batch: the table, the
    /// uploaded keys and the output buffer.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let keys: u64 = self.keys.iter().map(|k| k.size_bytes() as u64).sum();
        let outputs = self.keys.len() as u64 * self.table.lanes_per_row() as u64 * 4;
        self.table.size_bytes() as u64 + keys + outputs
    }

    /// Run the batch on the simulated GPU with the table streamed for this
    /// batch: allocate and upload the table, run, free it again.
    ///
    /// Servers whose memory plan keeps the table resident should hold the
    /// table allocation themselves and call [`BatchEvalJob::run_resident`]
    /// instead — this entry point re-pays the table upload every call.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or any key addresses a domain larger than
    /// the table.
    pub fn run(&self, executor: &GpuExecutor) -> BatchEvalOutput {
        let table_alloc = executor.alloc(self.table.size_bytes() as u64);
        executor.upload_table(&table_alloc, table_alloc.bytes());
        let output = self.run_resident(executor, &table_alloc);
        executor.free(table_alloc);
        output
    }

    /// Run the batch against a table that is *already resident* on the
    /// executor (uploaded into `table_alloc` by the caller's memory plan).
    /// Only the per-batch keys and outputs are allocated, transferred and
    /// freed here.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, or `table_alloc` does not match the
    /// job's table size (a stale residency — the caller's plan is out of
    /// sync with the table).
    pub fn run_resident(
        &self,
        executor: &GpuExecutor,
        table_alloc: &ResidentAllocation,
    ) -> BatchEvalOutput {
        assert!(!self.keys.is_empty(), "batch must contain at least one key");
        assert_eq!(
            table_alloc.bytes(),
            self.table.size_bytes() as u64,
            "resident table allocation does not match the job's table"
        );
        match self.mapping {
            GridMapping::BlockPerQuery => self.run_block_per_query(executor, table_alloc),
            GridMapping::Cooperative { split_bits } => {
                self.run_cooperative(executor, table_alloc, split_bits)
            }
        }
    }

    /// Allocate and upload this job's keys, returning the allocation.
    fn upload_keys(&self, executor: &GpuExecutor) -> ResidentAllocation {
        let key_bytes: u64 = self.keys.iter().map(|k| k.size_bytes() as u64).sum();
        let keys_alloc = executor.alloc(key_bytes);
        executor.upload_keys(&keys_alloc, key_bytes);
        keys_alloc
    }

    fn run_block_per_query(
        &self,
        executor: &GpuExecutor,
        table_alloc: &ResidentAllocation,
    ) -> BatchEvalOutput {
        let batch = self.keys.len();
        let lanes = self.table.lanes_per_row();
        let config = LaunchConfig::linear(batch as u32, self.threads_per_block);
        // Each block owns one preallocated output row; no result locking on
        // the dispatch path.
        let rows = AtomicLaneRows::new(batch, lanes);
        let cycles = self.prf_kind.gpu_cycles_per_block();
        // The kernel name is composed once per job, not per launch; it names
        // the host SIMD backend that executes the PRF sweeps.
        let prf_backend = self.prg.prf().backend_label();
        let kernel_name = format!("dpf_batch[{}|{prf_backend}]", self.strategy.label());

        let keys_alloc = self.upload_keys(executor);
        let out_alloc = executor.alloc(batch as u64 * lanes as u64 * 4);

        let mut report = executor.launch_resident(
            &kernel_name,
            config,
            &[table_alloc, &keys_alloc, &out_alloc],
            |block: &BlockContext<'_>| {
                let index = block.block_index() as usize;
                if index >= batch {
                    return;
                }
                let recorder = KernelRecorder::new(block, cycles);
                // The key is streamed from global memory once per block.
                block
                    .counters()
                    .record_global_read(self.keys[index].size_bytes() as u64);
                let result = if self.fused {
                    fused_eval_matmul(
                        self.prg,
                        &self.keys[index],
                        self.table,
                        self.strategy,
                        &recorder,
                    )
                } else {
                    unfused_eval_matmul(
                        self.prg,
                        &self.keys[index],
                        self.table,
                        self.strategy,
                        &recorder,
                    )
                };
                rows.store_row(index, &result);
            },
        );

        executor.download(&out_alloc, out_alloc.bytes());
        let results = rows.into_lane_vectors();
        executor.free(out_alloc);
        executor.free(keys_alloc);

        self.tag_report(&mut report, prf_backend);
        BatchEvalOutput { results, report }
    }

    fn run_cooperative(
        &self,
        executor: &GpuExecutor,
        table_alloc: &ResidentAllocation,
        split_bits: u32,
    ) -> BatchEvalOutput {
        let cycles = self.prf_kind.gpu_cycles_per_block();
        let lanes = self.table.lanes_per_row();
        let mut results = Vec::with_capacity(self.keys.len());
        let mut merged: Option<KernelReport> = None;
        // One launch per key, all sharing one kernel name built up front.
        let prf_backend = self.prg.prf().backend_label();
        let kernel_name = format!("dpf_coop[{}|{prf_backend}]", self.strategy.label());

        // Keys and outputs for the whole batch are allocated once; the
        // per-key launches all run against the same three allocations.
        let keys_alloc = self.upload_keys(executor);
        let out_alloc = executor.alloc(self.keys.len() as u64 * lanes as u64 * 4);

        // Cooperative groups dedicate the whole device to one query at a time;
        // a batch is processed as a sequence of cooperative launches.
        for key in self.keys {
            let split_bits = split_bits.min(key.depth());
            let subtrees = Subtree::split(key, split_bits);
            let blocks = subtrees.len() as u32;
            let config =
                LaunchConfig::linear(blocks, self.threads_per_block).with_cooperative(true);
            // One disjoint partial row per cooperating block.
            let partials = AtomicLaneRows::new(subtrees.len(), lanes);

            let report = executor.launch_resident(
                &kernel_name,
                config,
                &[table_alloc, &keys_alloc, &out_alloc],
                |block: &BlockContext<'_>| {
                    let index = block.block_index() as usize;
                    if index >= subtrees.len() {
                        return;
                    }
                    let recorder = KernelRecorder::new(block, cycles);
                    block.counters().record_global_read(key.size_bytes() as u64);
                    let partial = fused_eval_matmul_subtree(
                        self.prg,
                        key,
                        self.table,
                        subtrees[index],
                        self.strategy,
                        &recorder,
                    );
                    // Grid-wide barrier before the cross-block reduction.
                    if index == 0 {
                        block.counters().record_grid_sync();
                    }
                    block.counters().record_flops(lanes as u64);
                    partials.store_row(index, &partial);
                },
            );

            // The cross-block partial sum is the executor's reduction
            // primitive, so the ledger counts the lane-wise wrapping adds.
            let mut answer = LaneVector::zeroed(lanes);
            for partial in partials.into_lane_vectors() {
                executor.reduce(&mut answer.0, &partial.0);
            }
            results.push(answer);
            // pir-lint: allow(secret-flow, "matches the report accumulator's Some/None state, which tracks the public batch position, not key bits")
            merged = Some(match merged {
                None => report,
                Some(previous) => previous.merged_with(&report),
            });
        }

        executor.download(&out_alloc, out_alloc.bytes());
        executor.free(out_alloc);
        executor.free(keys_alloc);

        // pir-lint: allow(panic-path, "the eval loop above set it for every key; empty batches never reach eval")
        let mut report = merged.expect("batch is non-empty");
        self.tag_report(&mut report, prf_backend);
        BatchEvalOutput { results, report }
    }

    /// Stamp the host SIMD provenance onto a launch report: the PRF backend
    /// label and — when the frontier engine ran and probed — the autotuned
    /// tile it used.
    fn tag_report(&self, report: &mut KernelReport, prf_backend: &'static str) {
        report.prf_backend = prf_backend.to_string();
        report.frontier_tile =
            crate::tile::reported_frontier_tile(self.prg.prf().kind(), prf_backend);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_keys, DpfParams};
    use gpu_sim::DeviceSpec;
    use pir_field::{reconstruct_lanes, Ring128};
    use pir_prf::build_prf;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(
        rows: usize,
        lanes: usize,
        batch: usize,
        seed: u64,
    ) -> (GgmPrg, ShareMatrix, Vec<u64>, Vec<DpfKey>, Vec<DpfKey>) {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(seed);
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
    fn batched_execution_answers_every_query() {
        let (prg, table, targets, keys_a, keys_b) = setup(500, 8, 16, 51);
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 4);

        let job_a = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &table);
        let job_b = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_b, &table);
        let out_a = job_a.run(&executor);
        let out_b = job_b.run(&executor);

        assert_eq!(out_a.results.len(), 16);
        for i in 0..16 {
            let row = reconstruct_lanes(
                &Vec::from(out_a.results[i].clone()),
                &Vec::from(out_b.results[i].clone()),
            );
            assert_eq!(row, table.row(targets[i] as usize), "query {i}");
        }
        assert!(out_a.throughput_qps() > 0.0);
        assert!(out_a.latency_ms() > 0.0);
        assert_eq!(
            out_a.report.counters.prf_calls,
            out_b.report.counters.prf_calls
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index i addresses three parallel arrays
    fn cooperative_mapping_matches_batched_results() {
        let (prg, table, targets, keys_a, keys_b) = setup(256, 4, 3, 52);
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 4);

        let coop = GridMapping::Cooperative { split_bits: 4 };
        let out_a = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &table)
            .with_mapping(coop)
            .run(&executor);
        let out_b = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_b, &table)
            .with_mapping(coop)
            .run(&executor);
        for i in 0..3 {
            let row = reconstruct_lanes(
                &Vec::from(out_a.results[i].clone()),
                &Vec::from(out_b.results[i].clone()),
            );
            assert_eq!(row, table.row(targets[i] as usize), "query {i}");
        }
        // The cooperative report merges one launch per query.
        assert!(out_a.report.counters.grid_syncs >= 3);
    }

    #[test]
    fn unfused_matches_fused_results() {
        let (prg, table, targets, keys_a, keys_b) = setup(128, 4, 4, 53);
        // One host thread: peak-memory comparison below must not depend on
        // how many simulated blocks happen to overlap on host workers.
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 1);
        let fused = BatchEvalJob::new(&prg, PrfKind::Aes128, &keys_a, &table).run(&executor);
        let unfused = BatchEvalJob::new(&prg, PrfKind::Aes128, &keys_a, &table)
            .with_fusion(false)
            .run(&executor);
        assert_eq!(fused.results, unfused.results);
        // Unfused needs more peak memory (materialized leaf vectors).
        assert!(unfused.report.peak_memory_bytes > fused.report.peak_memory_bytes);

        // And both still decode correctly against party B.
        let out_b = BatchEvalJob::new(&prg, PrfKind::Aes128, &keys_b, &table).run(&executor);
        let row = reconstruct_lanes(
            &Vec::from(fused.results[0].clone()),
            &Vec::from(out_b.results[0].clone()),
        );
        assert_eq!(row, table.row(targets[0] as usize));
    }

    #[test]
    fn larger_batches_improve_throughput() {
        let (prg, table, _targets, keys_a, _keys_b) = setup(1 << 12, 8, 64, 54);
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 4);
        let small = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a[..1], &table).run(&executor);
        let large = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys_a, &table).run(&executor);
        assert!(
            large.throughput_qps() > 5.0 * small.throughput_qps(),
            "batch-64 {} qps should dwarf batch-1 {} qps",
            large.throughput_qps(),
            small.throughput_qps()
        );
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_batch_panics() {
        let (prg, table, _, _, _) = setup(64, 4, 1, 55);
        let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 1);
        let keys: Vec<DpfKey> = Vec::new();
        let _ = BatchEvalJob::new(&prg, PrfKind::SipHash, &keys, &table).run(&executor);
    }
}
